//! Target-specific cost parameters and presets.
//!
//! All latencies are in abstract nanosecond-like units; the cost model only
//! needs *relative* differences across layouts (paper §3.1: "the cost model
//! estimates relative latency differences across optimization options,
//! instead of their absolute values"). The presets below are chosen so the
//! emulator reproduces the paper's relative results (line-rate plateaus,
//! ~2.5× cache gains, 1.3–2.1× merge gains).

use pipeleon_ir::{MatchKind, Table};

/// How the number of memory accesses `m` (Eq. 4a) is derived for non-exact
/// tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchCostModel {
    /// `m` = number of distinct prefix lengths / masks among the installed
    /// entries (the multiple-hash-table implementation), capped at `cap`.
    /// This is the BlueField2 behaviour measured in §3.1.
    PerDistinctPattern {
        /// Upper bound on `m` per table.
        cap: usize,
    },
    /// Fixed multipliers per match kind, e.g. the §5.3.3 emulated NIC where
    /// "LPM and ternary matches have the same cost, which is 3x slower than
    /// exact matches".
    Fixed {
        /// Multiplier for LPM tables.
        lpm: f64,
        /// Multiplier for ternary tables.
        ternary: f64,
        /// Multiplier for range tables.
        range: f64,
    },
}

/// The constants of the approximate cost model (paper Table 1) plus the
/// target envelope (core counts, line rate) the simulator needs to convert
/// latency into throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Preset name for diagnostics.
    pub name: String,
    /// `L_mat`: latency of one memory access (one exact match), ns.
    pub l_mat: f64,
    /// `L_act`: latency of one action primitive, ns.
    pub l_act: f64,
    /// Latency of one branch comparison, ns (§5.3.3: 1/10 of an exact
    /// table on the emulated NIC; effectively negligible on hardware).
    pub l_branch: f64,
    /// Fixed per-packet overhead (parsing, deparsing, dispatch), ns.
    pub l_base: f64,
    /// Latency of one P4 counter update, ns (profiling overhead, §5.4.1).
    pub l_counter: f64,
    /// Extra latency when a cache miss installs a new cache entry, ns.
    pub l_cache_insert: f64,
    /// Latency of migrating a packet between ASIC and CPU cores, ns
    /// (Appendix A.2).
    pub l_migration: f64,
    /// Multiplier applied to node costs executed on CPU cores relative to
    /// ASIC cores (heterogeneous targets, §3.2.4).
    pub cpu_scale: f64,
    /// How `m` is derived for LPM/ternary/range tables.
    pub match_model: MatchCostModel,
    /// Number of (ASIC) processing cores packets are dispatched across.
    pub num_cores: usize,
    /// Port line rate in Gbit/s; throughput is capped here.
    pub line_rate_gbps: f64,
}

impl CostParams {
    /// A BlueField2-like target: ASIC MA cores, per-distinct-pattern match
    /// cost, 100 Gbps line rate. Constants are calibration outputs of the
    /// emulator itself (see `calibrate`), scaled so a ~10-exact-table
    /// program saturates the port at 512 B packets.
    pub fn bluefield2() -> Self {
        Self {
            name: "bluefield2".into(),
            l_mat: 18.0,
            l_act: 4.0,
            l_branch: 1.0,
            l_base: 60.0,
            l_counter: 0.35,
            l_cache_insert: 40.0,
            l_migration: 350.0,
            cpu_scale: 6.0,
            match_model: MatchCostModel::PerDistinctPattern { cap: 8 },
            num_cores: 6,
            line_rate_gbps: 100.0,
        }
    }

    /// An Agilio-CX-like target: micro-engine CPU cores, 40 Gbps line rate,
    /// slower memory path and costlier counter updates (§5.4.1 measures
    /// noticeably higher profiling overhead on Agilio).
    pub fn agilio_cx() -> Self {
        Self {
            name: "agilio_cx".into(),
            l_mat: 55.0,
            l_act: 10.0,
            l_branch: 2.0,
            l_base: 150.0,
            l_counter: 14.0,
            l_cache_insert: 120.0,
            l_migration: 500.0,
            cpu_scale: 1.0,
            match_model: MatchCostModel::PerDistinctPattern { cap: 8 },
            num_cores: 5,
            line_rate_gbps: 40.0,
        }
    }

    /// The paper's emulated NIC model (§5.3.3): LPM and ternary cost 3×
    /// exact; conditional branches cost 1/10 of an exact table.
    pub fn emulated_nic() -> Self {
        Self {
            name: "emulated_nic".into(),
            l_mat: 20.0,
            l_act: 5.0,
            l_branch: 2.0, // 1/10 of an exact table (l_mat 20)
            l_base: 40.0,
            l_counter: 0.5,
            l_cache_insert: 30.0,
            l_migration: 200.0,
            cpu_scale: 4.0,
            match_model: MatchCostModel::Fixed {
                lpm: 3.0,
                ternary: 3.0,
                range: 3.0,
            },
            num_cores: 4,
            line_rate_gbps: 100.0,
        }
    }

    /// The effective number of memory accesses `m` for a table under this
    /// target's match model (Eq. 4a).
    pub fn memory_accesses(&self, table: &Table) -> f64 {
        if table.keys.is_empty() {
            return 0.0;
        }
        match self.match_model {
            MatchCostModel::PerDistinctPattern { cap } => table.memory_accesses().min(cap) as f64,
            MatchCostModel::Fixed {
                lpm,
                ternary,
                range,
            } => match table.effective_kind() {
                MatchKind::Exact => 1.0,
                MatchKind::Lpm => lpm,
                MatchKind::Ternary => ternary,
                MatchKind::Range => range,
            },
        }
    }

    /// Converts a mean per-packet latency into aggregate throughput in
    /// Gbit/s for `self.num_cores` run-to-completion cores, capped at line
    /// rate. `latency_ns = 0` yields line rate.
    pub fn throughput_gbps(&self, latency_ns: f64, packet_bytes: usize) -> f64 {
        if latency_ns <= 0.0 {
            return self.line_rate_gbps;
        }
        let pps_per_core = 1.0e9 / latency_ns;
        let bits = (packet_bytes * 8) as f64;
        let gbps = pps_per_core * self.num_cores as f64 * bits / 1.0e9;
        gbps.min(self.line_rate_gbps)
    }

    /// The offered line-rate packet rate (packets/s) at a packet size.
    pub fn line_rate_pps(&self, packet_bytes: usize) -> f64 {
        self.line_rate_gbps * 1.0e9 / ((packet_bytes * 8) as f64)
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::bluefield2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::FieldRef;
    use pipeleon_ir::{MatchKey, MatchValue, TableEntry};

    fn lpm_table(prefix_lens: &[u8]) -> Table {
        let mut t = Table::new("t");
        t.keys = vec![MatchKey {
            field: FieldRef(0),
            kind: MatchKind::Lpm,
        }];
        for (i, &p) in prefix_lens.iter().enumerate() {
            t.entries.push(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: (i as u64) << 40,
                    prefix_len: p,
                }],
                0,
            ));
        }
        t
    }

    #[test]
    fn per_pattern_model_counts_prefixes() {
        let p = CostParams::bluefield2();
        assert_eq!(p.memory_accesses(&lpm_table(&[8, 16, 24])), 3.0);
        assert_eq!(p.memory_accesses(&lpm_table(&[8, 8])), 1.0);
    }

    #[test]
    fn per_pattern_model_caps() {
        let mut p = CostParams::bluefield2();
        p.match_model = MatchCostModel::PerDistinctPattern { cap: 2 };
        assert_eq!(p.memory_accesses(&lpm_table(&[1, 2, 3, 4, 5])), 2.0);
    }

    #[test]
    fn fixed_model_ignores_entries() {
        let p = CostParams::emulated_nic();
        assert_eq!(p.memory_accesses(&lpm_table(&[8, 16, 24])), 3.0);
        assert_eq!(p.memory_accesses(&lpm_table(&[8])), 3.0);
        let mut exact = Table::new("e");
        exact.keys = vec![MatchKey {
            field: FieldRef(0),
            kind: MatchKind::Exact,
        }];
        assert_eq!(p.memory_accesses(&exact), 1.0);
    }

    #[test]
    fn keyless_table_has_no_match_cost() {
        let p = CostParams::bluefield2();
        assert_eq!(p.memory_accesses(&Table::new("keyless")), 0.0);
    }

    #[test]
    fn throughput_caps_at_line_rate() {
        let p = CostParams::bluefield2();
        assert_eq!(p.throughput_gbps(0.0, 512), 100.0);
        assert_eq!(p.throughput_gbps(1.0, 512), 100.0); // absurdly fast
        let t = p.throughput_gbps(10_000.0, 512);
        assert!(t < 100.0 && t > 0.0, "got {t}");
    }

    #[test]
    fn throughput_scales_with_cores_and_packet_size() {
        let mut p = CostParams::bluefield2();
        p.line_rate_gbps = 1e9; // effectively uncapped
        let one = p.throughput_gbps(1000.0, 512);
        p.num_cores *= 2;
        let two = p.throughput_gbps(1000.0, 512);
        assert!((two / one - 2.0).abs() < 1e-9);
        let big = p.throughput_gbps(1000.0, 1024);
        assert!((big / two - 2.0).abs() < 1e-9);
    }

    #[test]
    fn line_rate_pps_is_consistent() {
        let p = CostParams::bluefield2();
        let pps = p.line_rate_pps(512);
        // 100 Gbps / 4096 bits.
        assert!((pps - 100.0e9 / 4096.0).abs() < 1.0);
    }
}
