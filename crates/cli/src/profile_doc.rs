//! On-disk runtime-profile format.
//!
//! [`pipeleon_cost::RuntimeProfile`] uses structured map keys that JSON
//! cannot express, so the CLI stores profiles as record lists addressing
//! nodes **by name** (stable across optimizer rewrites, like the JSON IR).

use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::{EdgeRef, ProgramGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Serializable profile document.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileDoc {
    /// Total packets observed at the root.
    pub total_packets: u64,
    /// Window length in seconds.
    #[serde(default = "default_window")]
    pub window_s: f64,
    /// Per-`(node, action-index)` packet counts.
    #[serde(default)]
    pub action_counts: Vec<ActionCount>,
    /// Per-branch edge counts (slot 0 = true arm, 1 = false arm).
    #[serde(default)]
    pub edge_counts: Vec<EdgeCount>,
    /// Per-table entry update rates (ops/s).
    #[serde(default)]
    pub update_rates: Vec<NodeRate>,
    /// Per-table distinct-key estimates.
    #[serde(default)]
    pub distinct_keys: Vec<NodeCount>,
}

fn default_window() -> f64 {
    1.0
}

/// One action counter record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionCount {
    /// Table name.
    pub node: String,
    /// Action index within the table.
    pub action: usize,
    /// Packets that executed the action.
    pub count: u64,
}

/// One branch-edge counter record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeCount {
    /// Branch name.
    pub node: String,
    /// Arm slot (0 = true, 1 = false).
    pub slot: u16,
    /// Packets that took the arm.
    pub count: u64,
}

/// A per-node rate record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeRate {
    /// Table name.
    pub node: String,
    /// Updates per second.
    pub rate: f64,
}

/// A per-node count record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeCount {
    /// Table name.
    pub node: String,
    /// Estimated distinct keys.
    pub count: u64,
}

/// Converts a document into a [`RuntimeProfile`] against `g`, resolving
/// names to node ids. A record the program cannot have produced is
/// refused, naming it: an unknown node, an action count on a node that
/// is no table or for an action the table does not have, an edge count
/// that is not slot 0 or 1 of a branch. Repeated records add up,
/// saturating at `u64::MAX`.
pub fn to_profile(doc: &ProfileDoc, g: &ProgramGraph) -> Result<RuntimeProfile, String> {
    let ids: HashMap<&str, pipeleon_ir::NodeId> =
        g.iter_nodes().map(|n| (n.name(), n.id)).collect();
    let resolve = |name: &str| {
        let id = ids
            .get(name)
            .copied()
            .ok_or_else(|| format!("profile references unknown node {name:?}"))?;
        Ok::<_, String>((id, g.node(id).expect("named by the graph")))
    };
    let mut p = RuntimeProfile::empty();
    p.total_packets = doc.total_packets;
    p.window_s = doc.window_s.max(1e-9);
    for r in &doc.action_counts {
        let (id, node) = resolve(&r.node)?;
        let actions = node.as_table().map_or(0, |t| t.actions.len());
        if r.action >= actions {
            return Err(format!(
                "action count {{node: {:?}, action: {}}}: {:?} has {actions} table actions",
                r.node, r.action, r.node
            ));
        }
        let room = u64::MAX - p.action_count(id, r.action);
        p.record_action(id, r.action, r.count.min(room));
    }
    for r in &doc.edge_counts {
        let (id, node) = resolve(&r.node)?;
        if node.as_branch().is_none() || r.slot > 1 {
            return Err(format!(
                "edge count {{node: {:?}, slot: {}}}: not slot 0 or 1 of a branch",
                r.node, r.slot
            ));
        }
        let edge = EdgeRef::new(id, r.slot);
        let room = u64::MAX - p.edge_count(edge);
        p.record_edge(edge, r.count.min(room));
    }
    for r in &doc.update_rates {
        p.set_entry_update_rate(resolve(&r.node)?.0, r.rate);
    }
    for r in &doc.distinct_keys {
        p.set_distinct_keys(resolve(&r.node)?.0, r.count);
    }
    Ok(p)
}

/// Converts a collected [`RuntimeProfile`] into the document form.
pub fn from_profile(p: &RuntimeProfile, g: &ProgramGraph) -> ProfileDoc {
    let name_of = |id: pipeleon_ir::NodeId| {
        g.node(id)
            .map(|n| n.name().to_owned())
            .unwrap_or_else(|| id.to_string())
    };
    let mut doc = ProfileDoc {
        total_packets: p.total_packets,
        window_s: p.window_s,
        ..ProfileDoc::default()
    };
    for ((node, action), count) in p.actions() {
        doc.action_counts.push(ActionCount {
            node: name_of(node),
            action,
            count,
        });
    }
    for (edge, count) in p.edges() {
        doc.edge_counts.push(EdgeCount {
            node: name_of(edge.node),
            slot: edge.slot,
            count,
        });
    }
    for (&node, &rate) in &p.entry_update_rates {
        doc.update_rates.push(NodeRate {
            node: name_of(node),
            rate,
        });
    }
    for (&node, &count) in &p.distinct_keys {
        doc.distinct_keys.push(NodeCount {
            node: name_of(node),
            count,
        });
    }
    // Deterministic output ordering.
    doc.action_counts
        .sort_by(|a, b| (&a.node, a.action).cmp(&(&b.node, b.action)));
    doc.edge_counts
        .sort_by(|a, b| (&a.node, a.slot).cmp(&(&b.node, b.slot)));
    doc.update_rates.sort_by(|a, b| a.node.cmp(&b.node));
    doc.distinct_keys.sort_by(|a, b| a.node.cmp(&b.node));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{MatchKind, ProgramBuilder};

    fn sample() -> ProgramGraph {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let t = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        b.seal(t).unwrap()
    }

    #[test]
    fn round_trips_through_document() {
        let g = sample();
        let acl = g.iter_nodes().next().unwrap().id;
        let mut p = RuntimeProfile::empty();
        p.total_packets = 100;
        p.record_action(acl, 0, 70);
        p.record_action(acl, 1, 30);
        p.set_entry_update_rate(acl, 5.0);
        p.set_distinct_keys(acl, 12);
        let doc = from_profile(&p, &g);
        let p2 = to_profile(&doc, &g).unwrap();
        assert_eq!(p, p2);
        // And through JSON text.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let doc2: ProfileDoc = serde_json::from_str(&text).unwrap();
        let p3 = to_profile(&doc2, &g).unwrap();
        assert_eq!(p, p3);
    }

    /// A record the program cannot have produced is refused by name;
    /// repeated records add up, saturating.
    #[test]
    fn impossible_records_are_refused_and_repeats_saturate() {
        use pipeleon_ir::Condition;
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .finish();
        b.set_next(acl, None);
        let br = b.branch("br", Condition::eq(f, 1), Some(acl), None);
        let g = b.seal(br).unwrap();
        let action = |node: &str, action, count| ActionCount {
            node: node.into(),
            action,
            count,
        };
        let edge = |node: &str, slot, count| EdgeCount {
            node: node.into(),
            slot,
            count,
        };
        let refused = [
            (vec![action("acl", 2, 1)], vec![], "acl"),
            (vec![action("br", 0, 1)], vec![], "br"),
            (vec![], vec![edge("acl", 0, 1)], "acl"),
            (vec![], vec![edge("br", 2, 1)], "slot: 2"),
        ];
        for (action_counts, edge_counts, named) in refused {
            let doc = ProfileDoc {
                action_counts,
                edge_counts,
                ..ProfileDoc::default()
            };
            let err = to_profile(&doc, &g).unwrap_err();
            assert!(err.contains(named), "{doc:?}: {err}");
        }
        let doc = ProfileDoc {
            action_counts: vec![action("acl", 1, u64::MAX), action("acl", 1, 7)],
            edge_counts: vec![edge("br", 0, u64::MAX), edge("br", 0, 7)],
            ..ProfileDoc::default()
        };
        let p = to_profile(&doc, &g).unwrap();
        assert_eq!(p.action_count(acl, 1), u64::MAX);
        assert_eq!(p.edge_count(EdgeRef::new(br, 0)), u64::MAX);
    }

    #[test]
    fn unknown_node_is_reported() {
        let g = sample();
        let doc = ProfileDoc {
            action_counts: vec![ActionCount {
                node: "ghost".into(),
                action: 0,
                count: 1,
            }],
            ..ProfileDoc::default()
        };
        assert!(to_profile(&doc, &g).unwrap_err().contains("ghost"));
    }
}
