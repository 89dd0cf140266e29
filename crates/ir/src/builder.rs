//! Ergonomic construction of program graphs.
//!
//! [`ProgramBuilder`] assembles programs front-to-back: tables and branches
//! are declared first, then wired together. `seal` wires straight-line
//! defaults (declaration order) for any table whose next hop was not set
//! explicitly, sets the root, and validates.

use crate::expr::Condition;
use crate::graph::{Branch, NextHops, ProgramGraph};
use crate::table::{Action, CacheRole, MatchKey, MatchKind, Primitive, Table, TableEntry};
use crate::types::{FieldRef, IrError, NodeId};

/// Incrementally builds a [`ProgramGraph`].
#[derive(Debug)]
pub struct ProgramBuilder {
    graph: ProgramGraph,
    /// Declaration order of nodes whose next-hop was not set explicitly.
    sequence: Vec<NodeId>,
    explicit_next: Vec<NodeId>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder for an unnamed program.
    pub fn new() -> Self {
        Self::named("program")
    }

    /// Creates a builder for a named program.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            graph: ProgramGraph::new(name),
            sequence: Vec::new(),
            explicit_next: Vec::new(),
        }
    }

    /// Interns a field name.
    pub fn field(&mut self, name: &str) -> FieldRef {
        self.graph.fields.intern(name)
    }

    /// Starts a table definition; finish with [`TableBuilder::finish`].
    pub fn table(&mut self, name: impl Into<String>) -> TableBuilder<'_> {
        TableBuilder {
            builder: self,
            table: {
                let mut t = Table::new(name);
                t.actions.clear();
                t
            },
            switch_case: None,
        }
    }

    /// Adds a fully-formed table node, appended to the default sequence.
    pub fn add_table(&mut self, table: Table) -> NodeId {
        let id = self.graph.add_table(table, None);
        self.sequence.push(id);
        id
    }

    /// Adds a branch with explicit arms. Arms may be `None` (sink) or nodes
    /// added earlier/later; targets are validated at seal time.
    pub fn branch(
        &mut self,
        name: impl Into<String>,
        condition: Condition,
        on_true: Option<NodeId>,
        on_false: Option<NodeId>,
    ) -> NodeId {
        let id = self.graph.add_branch(
            Branch {
                name: name.into(),
                condition,
            },
            on_true,
            on_false,
        );
        self.sequence.push(id);
        self.explicit_next.push(id);
        id
    }

    /// Explicitly sets the next hop of a table node (removing it from the
    /// default straight-line wiring).
    pub fn set_next(&mut self, from: NodeId, to: Option<NodeId>) {
        if let Some(n) = self.graph.node_mut(from) {
            n.next = NextHops::Always(to);
        }
        if !self.explicit_next.contains(&from) {
            self.explicit_next.push(from);
        }
    }

    /// Makes a table switch-case: action `i` continues at `targets[i]`.
    pub fn set_by_action(&mut self, from: NodeId, targets: Vec<Option<NodeId>>) {
        if let Some(n) = self.graph.node_mut(from) {
            n.next = NextHops::ByAction(targets);
        }
        if !self.explicit_next.contains(&from) {
            self.explicit_next.push(from);
        }
    }

    /// Finishes the program: wires declaration-order fallthrough for tables
    /// without explicit next hops, sets `root`, and validates.
    pub fn seal(mut self, root: NodeId) -> Result<ProgramGraph, IrError> {
        // Straight-line wiring: each non-explicit node in the declared
        // sequence flows to the next declared node (explicit or not);
        // the last one flows to the sink.
        for i in 0..self.sequence.len() {
            let id = self.sequence[i];
            if self.explicit_next.contains(&id) {
                continue;
            }
            let next = self.sequence.get(i + 1).copied();
            if let Some(n) = self.graph.node_mut(id) {
                n.next = NextHops::Always(next);
            }
        }
        self.graph.set_root(root);
        self.graph.validate()?;
        Ok(self.graph)
    }

    /// Like [`seal`](Self::seal) but uses the first declared node as root.
    pub fn seal_sequential(self) -> Result<ProgramGraph, IrError> {
        let root = self.sequence.first().copied().ok_or(IrError::NoRoot)?;
        self.seal(root)
    }
}

/// Fluent builder for one table, returned by [`ProgramBuilder::table`].
#[derive(Debug)]
pub struct TableBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    table: Table,
    switch_case: Option<Vec<Option<NodeId>>>,
}

impl<'a> TableBuilder<'a> {
    /// Adds a key component.
    pub fn key(mut self, field: FieldRef, kind: MatchKind) -> Self {
        self.table.keys.push(MatchKey { field, kind });
        self
    }

    /// Adds an action built from primitives.
    pub fn action(mut self, name: impl Into<String>, primitives: Vec<Primitive>) -> Self {
        self.table.actions.push(Action::new(name, primitives));
        self
    }

    /// Adds a drop action.
    pub fn action_drop(mut self, name: impl Into<String>) -> Self {
        self.table.actions.push(Action::drop_action(name));
        self
    }

    /// Adds a no-op action.
    pub fn action_nop(mut self, name: impl Into<String>) -> Self {
        self.table.actions.push(Action::nop(name));
        self
    }

    /// Selects the default action by index (defaults to 0).
    pub fn default_action(mut self, index: usize) -> Self {
        self.table.default_action = index;
        self
    }

    /// Installs an entry.
    pub fn entry(mut self, entry: TableEntry) -> Self {
        self.table.entries.push(entry);
        self
    }

    /// Sets the capacity.
    pub fn max_entries(mut self, cap: usize) -> Self {
        self.table.max_entries = Some(cap);
        self
    }

    /// Marks the table's cache role (used when hand-building optimized
    /// layouts in tests).
    pub fn cache_role(mut self, role: CacheRole) -> Self {
        self.table.cache_role = role;
        self
    }

    /// Makes the table switch-case with per-action targets (checked against
    /// the action count at seal time).
    pub fn by_action(mut self, targets: Vec<Option<NodeId>>) -> Self {
        self.switch_case = Some(targets);
        self
    }

    /// Adds the table to the program and returns its node id.
    pub fn finish(self) -> NodeId {
        let TableBuilder {
            builder,
            mut table,
            switch_case,
        } = self;
        if table.actions.is_empty() {
            table.actions.push(Action::nop("nop"));
        }
        let id = builder.add_table(table);
        if let Some(targets) = switch_case {
            builder.set_by_action(id, targets);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_program_builds_and_wires() {
        let mut b = ProgramBuilder::named("seq");
        let f = b.field("ipv4.dst");
        let t0 = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        let t1 = b
            .table("route")
            .key(f, MatchKind::Lpm)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .finish();
        let g = b.seal(t0).unwrap();
        assert_eq!(g.root(), Some(t0));
        let n0 = g.node(t0).unwrap();
        assert_eq!(n0.next, NextHops::Always(Some(t1)));
        let n1 = g.node(t1).unwrap();
        assert_eq!(n1.next, NextHops::Always(None));
    }

    #[test]
    fn seal_sequential_uses_first_node() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let first = b.table("a").key(f, MatchKind::Exact).finish();
        b.table("b").key(f, MatchKind::Exact).finish();
        let g = b.seal_sequential().unwrap();
        assert_eq!(g.root(), Some(first));
    }

    #[test]
    fn explicit_next_overrides_sequence() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let a = b.table("a").key(f, MatchKind::Exact).finish();
        let _skipped = b.table("b").key(f, MatchKind::Exact).finish();
        let c = b.table("c").key(f, MatchKind::Exact).finish();
        b.set_next(a, Some(c));
        let g = b.seal(a).unwrap();
        assert_eq!(g.node(a).unwrap().next, NextHops::Always(Some(c)));
    }

    #[test]
    fn switch_case_wiring_via_builder() {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let end = b.table("end").key(f, MatchKind::Exact).finish();
        b.set_next(end, None);
        let sw = b
            .table("sw")
            .key(f, MatchKind::Exact)
            .action_nop("to_end")
            .action_nop("to_sink")
            .by_action(vec![Some(end), None])
            .finish();
        let g = b.seal(sw).unwrap();
        assert!(g.node(sw).unwrap().is_switch_case());
    }

    #[test]
    fn empty_builder_cannot_seal() {
        let b = ProgramBuilder::new();
        assert_eq!(b.seal_sequential().unwrap_err(), IrError::NoRoot);
    }
}
