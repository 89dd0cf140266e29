//! Random P4 program synthesis with controllable structure.
//!
//! The paper evaluates on synthesized programs grouped by pipelet count
//! (PN) and pipelet length (PL) (§5.4.2 "we synthesized 300 P4 programs and
//! divided them into three groups based on their PN and PL values"). This
//! synthesizer builds a binary tree of pipelets separated by conditional
//! branches: every pipelet is a straight-line chain of MA tables; branches
//! split traffic toward child pipelets, so the pipelet partition of the
//! result has exactly the requested pipelet count.

use pipeleon_ir::{
    Condition, MatchKind, MatchValue, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Relative weights of match kinds for synthesized tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchMix {
    /// Weight of exact tables.
    pub exact: f64,
    /// Weight of LPM tables.
    pub lpm: f64,
    /// Weight of ternary tables.
    pub ternary: f64,
}

impl MatchMix {
    /// Only exact tables.
    pub fn all_exact() -> Self {
        Self {
            exact: 1.0,
            lpm: 0.0,
            ternary: 0.0,
        }
    }

    /// The default mix: mostly exact with some LPM/ternary.
    pub fn default_mix() -> Self {
        Self {
            exact: 0.6,
            lpm: 0.2,
            ternary: 0.2,
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> MatchKind {
        let total = self.exact + self.lpm + self.ternary;
        let x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        if x < self.exact {
            MatchKind::Exact
        } else if x < self.exact + self.lpm {
            MatchKind::Lpm
        } else {
            MatchKind::Ternary
        }
    }
}

/// Synthesizer configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of pipelets (PN). Must be ≥ 1.
    pub pipelets: usize,
    /// Tables per pipelet (PL); actual lengths vary by ±1 around this.
    pub pipelet_len: usize,
    /// Match-kind mix.
    pub match_mix: MatchMix,
    /// Actions per table (≥ 1; one extra default no-op is always added).
    pub actions_per_table: usize,
    /// Primitives per action.
    pub prims_per_action: usize,
    /// Entries installed per table.
    pub entries_per_table: usize,
    /// Fraction of tables that get a drop action.
    pub drop_fraction: f64,
    /// Fraction of tables whose actions write a shared field (creating
    /// reorder-blocking dependencies).
    pub write_fraction: f64,
    /// Number of header fields tables draw their keys from.
    pub field_pool: usize,
    /// RNG seed — everything is deterministic given the config.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            pipelets: 8,
            pipelet_len: 3,
            match_mix: MatchMix::default_mix(),
            actions_per_table: 2,
            prims_per_action: 2,
            entries_per_table: 8,
            drop_fraction: 0.25,
            write_fraction: 0.15,
            field_pool: 12,
            seed: 1,
        }
    }
}

/// Synthesizes a program per the configuration. The result always
/// validates and has exactly `cfg.pipelets` branch-free table chains.
pub fn synthesize(cfg: &SynthConfig) -> ProgramGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut b = ProgramBuilder::named(format!(
        "synth_pn{}_pl{}_s{}",
        cfg.pipelets, cfg.pipelet_len, cfg.seed
    ));
    let fields: Vec<_> = (0..cfg.field_pool.max(2))
        .map(|i| b.field(&format!("h.f{i}")))
        .collect();
    let mut table_seq = 0usize;

    // Recursive descent: emit a subtree consuming `budget` pipelets and
    // return its entry node.
    fn subtree(
        b: &mut ProgramBuilder,
        cfg: &SynthConfig,
        rng: &mut ChaCha8Rng,
        fields: &[pipeleon_ir::FieldRef],
        table_seq: &mut usize,
        budget: usize,
    ) -> pipeleon_ir::NodeId {
        assert!(budget >= 1);
        // This pipelet's chain of tables.
        let len = if cfg.pipelet_len <= 1 {
            1
        } else {
            let lo = cfg.pipelet_len - 1;
            rng.gen_range(lo..=cfg.pipelet_len + 1)
        };
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            chain.push(make_table(b, cfg, rng, fields, table_seq));
        }
        // Remaining budget splits across a branch into two subtrees.
        let tail: Option<pipeleon_ir::NodeId> = if budget > 1 {
            let remaining = budget - 1;
            let left = remaining.div_ceil(2);
            let right = remaining - left;
            let lnode = subtree(b, cfg, rng, fields, table_seq, left.max(1));
            let rnode = if right >= 1 {
                Some(subtree(b, cfg, rng, fields, table_seq, right))
            } else {
                None
            };
            let cond_field = fields[rng.gen_range(0..fields.len())];
            let split = rng.gen_range(1..1000u64);
            let branch_id = *table_seq;
            *table_seq += 1;
            Some(b.branch(
                format!("br{branch_id}"),
                Condition::lt(cond_field, split),
                Some(lnode),
                rnode,
            ))
        } else {
            None
        };
        // Wire the chain: t0 -> t1 -> … -> tail.
        for w in chain.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(*chain.last().expect("len >= 1"), tail);
        chain[0]
    }

    fn make_table(
        b: &mut ProgramBuilder,
        cfg: &SynthConfig,
        rng: &mut ChaCha8Rng,
        fields: &[pipeleon_ir::FieldRef],
        table_seq: &mut usize,
    ) -> pipeleon_ir::NodeId {
        let idx = *table_seq;
        *table_seq += 1;
        let kind = cfg.match_mix.sample(rng);
        let key_field = fields[rng.gen_range(0..fields.len())];
        let mut tb = b.table(format!("t{idx}")).key(key_field, kind);
        let writes = rng.gen_bool(cfg.write_fraction);
        for a in 0..cfg.actions_per_table.max(1) {
            let mut prims = Vec::with_capacity(cfg.prims_per_action);
            for p in 0..cfg.prims_per_action {
                if writes && p == 0 {
                    let dst = fields[rng.gen_range(0..fields.len())];
                    prims.push(Primitive::set(dst, rng.gen_range(0..1 << 16)));
                } else {
                    prims.push(Primitive::Nop);
                }
            }
            tb = tb.action(format!("a{a}"), prims);
        }
        let mut n_table_actions = cfg.actions_per_table.max(1);
        if rng.gen_bool(cfg.drop_fraction) {
            tb = tb.action_drop("deny");
            n_table_actions += 1;
        }
        // The default (miss) action is the trailing no-op, so action
        // counters distinguish hits from misses.
        tb = tb.action_nop("default_nop").default_action(n_table_actions);
        // Entries, matching the key kind.
        let n_actions = cfg.actions_per_table.max(1);
        for e in 0..cfg.entries_per_table {
            let action = rng.gen_range(0..n_actions);
            let mv = match kind {
                MatchKind::Exact => MatchValue::Exact(e as u64),
                MatchKind::Lpm => MatchValue::Lpm {
                    value: (e as u64) << 48,
                    prefix_len: 8 + ((e % 3) as u8) * 8,
                },
                MatchKind::Ternary => MatchValue::Ternary {
                    value: e as u64,
                    mask: 0xFF << (8 * (e % 5)),
                },
                MatchKind::Range => MatchValue::Range {
                    lo: (e * 10) as u64,
                    hi: (e * 10 + 9) as u64,
                },
            };
            tb = tb.entry(TableEntry::with_priority(vec![mv], action, e as i32));
        }
        tb.finish()
    }

    let root = subtree(
        &mut b,
        cfg,
        &mut rng,
        &fields,
        &mut table_seq,
        cfg.pipelets.max(1),
    );
    b.seal(root).expect("synthesized program must validate")
}

/// Synthesizes a chain of reconverging if/else diamonds (the paper's
/// Figure 8 shape): `branch → {arm | arm} → join → branch → …`. Each arm
/// and join is a pipelet of `cfg.pipelet_len` tables, so the program is
/// dominated by short pipelets under common branch nodes — the structure
/// pipelet-group optimization (§4.1.1, Figure 15) targets. `cfg.pipelets`
/// is consumed three per diamond (two arms + join).
pub fn synthesize_diamonds(cfg: &SynthConfig) -> ProgramGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut b = ProgramBuilder::named(format!(
        "diamonds_pn{}_pl{}_s{}",
        cfg.pipelets, cfg.pipelet_len, cfg.seed
    ));
    let fields: Vec<_> = (0..cfg.field_pool.max(2))
        .map(|i| b.field(&format!("h.f{i}")))
        .collect();
    let mut table_seq = 0usize;
    let diamonds = (cfg.pipelets / 3).max(1);

    // Build back-to-front so each diamond knows its continuation.
    let chain = |b: &mut ProgramBuilder,
                 rng: &mut ChaCha8Rng,
                 table_seq: &mut usize,
                 next: Option<pipeleon_ir::NodeId>|
     -> pipeleon_ir::NodeId {
        let len = cfg.pipelet_len.max(1);
        let mut ids = Vec::with_capacity(len);
        for _ in 0..len {
            ids.push(make_table_like(b, cfg, rng, &fields, table_seq));
        }
        for w in ids.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(*ids.last().expect("len >= 1"), next);
        ids[0]
    };

    let mut next: Option<pipeleon_ir::NodeId> = None;
    for d in (0..diamonds).rev() {
        let join = chain(&mut b, &mut rng, &mut table_seq, next);
        let left = chain(&mut b, &mut rng, &mut table_seq, Some(join));
        let right = chain(&mut b, &mut rng, &mut table_seq, Some(join));
        let cond_field = fields[rng.gen_range(0..fields.len())];
        let split = rng.gen_range(1..1000u64);
        next = Some(b.branch(
            format!("diamond{d}"),
            Condition::lt(cond_field, split),
            Some(left),
            Some(right),
        ));
    }
    b.seal(next.expect("at least one diamond"))
        .expect("diamond program must validate")
}

/// Shared table generator for both synthesizer shapes.
fn make_table_like(
    b: &mut ProgramBuilder,
    cfg: &SynthConfig,
    rng: &mut ChaCha8Rng,
    fields: &[pipeleon_ir::FieldRef],
    table_seq: &mut usize,
) -> pipeleon_ir::NodeId {
    let idx = *table_seq;
    *table_seq += 1;
    let kind = cfg.match_mix.sample(rng);
    let key_field = fields[rng.gen_range(0..fields.len())];
    let mut tb = b.table(format!("t{idx}")).key(key_field, kind);
    for a in 0..cfg.actions_per_table.max(1) {
        let prims = vec![Primitive::Nop; cfg.prims_per_action];
        tb = tb.action(format!("a{a}"), prims);
    }
    let mut n_actions = cfg.actions_per_table.max(1);
    if rng.gen_bool(cfg.drop_fraction) {
        tb = tb.action_drop("deny");
        n_actions += 1;
    }
    tb = tb.action_nop("default_nop").default_action(n_actions);
    for e in 0..cfg.entries_per_table {
        let action = rng.gen_range(0..cfg.actions_per_table.max(1));
        let mv = match kind {
            MatchKind::Exact => MatchValue::Exact(e as u64),
            MatchKind::Lpm => MatchValue::Lpm {
                value: (e as u64) << 48,
                prefix_len: 8 + ((e % 3) as u8) * 8,
            },
            MatchKind::Ternary => MatchValue::Ternary {
                value: e as u64,
                mask: 0xFF << (8 * (e % 5)),
            },
            MatchKind::Range => MatchValue::Range {
                lo: (e * 10) as u64,
                hi: (e * 10 + 9) as u64,
            },
        };
        tb = tb.entry(TableEntry::with_priority(vec![mv], action, e as i32));
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::NodeKind;

    #[test]
    fn synthesized_program_validates() {
        let g = synthesize(&SynthConfig::default());
        g.validate().unwrap();
        assert!(g.num_nodes() > 8);
    }

    #[test]
    fn same_seed_same_program() {
        let cfg = SynthConfig::default();
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(
            pipeleon_ir::json::to_json_string(&a).unwrap(),
            pipeleon_ir::json::to_json_string(&b).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = SynthConfig::default();
        let a = synthesize(&cfg);
        cfg.seed = 99;
        let b = synthesize(&cfg);
        assert_ne!(
            pipeleon_ir::json::to_json_string(&a).unwrap(),
            pipeleon_ir::json::to_json_string(&b).unwrap()
        );
    }

    #[test]
    fn chain_count_matches_pipelet_budget() {
        // Every pipelet is a table chain whose head is entered from the
        // root or a branch, so chain-head count == requested pipelets.
        for n in [1, 2, 5, 12] {
            let cfg = SynthConfig {
                pipelets: n,
                ..SynthConfig::default()
            };
            let g = synthesize(&cfg);
            let preds = g.predecessors();
            let heads = g
                .tables()
                .filter(|(node, _)| {
                    let p = &preds[node.id.index()];
                    p.is_empty()
                        || p.iter()
                            .all(|&pid| matches!(g.node(pid).unwrap().kind, NodeKind::Branch(_)))
                })
                .count();
            assert_eq!(heads, n, "pipelets={n}");
            let branches = g
                .iter_nodes()
                .filter(|nd| matches!(nd.kind, NodeKind::Branch(_)))
                .count();
            assert!(branches < n || n == 1, "branches={branches} pipelets={n}");
        }
    }

    #[test]
    fn table_count_tracks_pl() {
        let cfg = SynthConfig {
            pipelets: 10,
            pipelet_len: 4,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        let tables = g.tables().count();
        // 10 pipelets × (4 ± 1) tables.
        assert!((30..=50).contains(&tables), "tables = {tables}");
    }

    #[test]
    fn all_exact_mix_yields_only_exact_tables() {
        let cfg = SynthConfig {
            match_mix: MatchMix::all_exact(),
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        for (_, t) in g.tables() {
            assert_eq!(t.effective_kind(), MatchKind::Exact);
        }
    }

    #[test]
    fn zero_drop_fraction_has_no_drop_tables() {
        let cfg = SynthConfig {
            drop_fraction: 0.0,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        assert!(g
            .tables()
            .all(|(_, t)| !t.actions.iter().any(|a| a.drops())));
    }

    #[test]
    fn diamond_programs_validate_and_reconverge() {
        let cfg = SynthConfig {
            pipelets: 9,
            pipelet_len: 1,
            ..SynthConfig::default()
        };
        let g = synthesize_diamonds(&cfg);
        g.validate().unwrap();
        // 3 diamonds × (2 arms + join) = 9 single-table chains + 3 branches.
        assert_eq!(g.tables().count(), 9);
        let branches = g
            .iter_nodes()
            .filter(|n| matches!(n.kind, NodeKind::Branch(_)))
            .count();
        assert_eq!(branches, 3);
        // Every join is entered from both arms (two predecessors).
        let preds = g.predecessors();
        let joins = g
            .tables()
            .filter(|(n, _)| preds[n.id.index()].len() == 2)
            .count();
        assert_eq!(joins, 3);
    }

    #[test]
    fn diamond_program_is_deterministic() {
        let cfg = SynthConfig {
            pipelets: 6,
            ..SynthConfig::default()
        };
        let a = synthesize_diamonds(&cfg);
        let b = synthesize_diamonds(&cfg);
        assert_eq!(
            pipeleon_ir::json::to_json_string(&a).unwrap(),
            pipeleon_ir::json::to_json_string(&b).unwrap()
        );
    }

    #[test]
    fn single_pipelet_program_is_branch_free() {
        let cfg = SynthConfig {
            pipelets: 1,
            pipelet_len: 5,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        assert!(g
            .iter_nodes()
            .all(|n| !matches!(n.kind, NodeKind::Branch(_))));
    }
}
