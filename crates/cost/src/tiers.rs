//! Hierarchical memory tiers (paper §6 "Hierarchical memory support").
//!
//! Some SmartNICs expose a memory hierarchy — e.g. Netronome's internal
//! SRAM vs. external EMEM — but P4 has no native way to place tables, so
//! the paper's prototype assumes a flat memory (its §6 calls tier-aware
//! optimization future work). This module implements that extension: each
//! table can be assigned a [`MemoryTier`], key-match memory accesses on
//! the fast tier are `sram_speedup`× cheaper, and `assign_tiers` (in the
//! optimizer crate's `hierarchical` module) chooses the hottest tables
//! that fit the fast tier's capacity.

/// Which memory a table's entries live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryTier {
    /// External/far memory (the default; the paper's flat model).
    #[default]
    Emem,
    /// On-chip SRAM: `sram_speedup`× faster key matches, tight capacity.
    Sram,
}

/// The fast tier's parameters, attached to [`crate::CostParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierParams {
    /// Factor by which SRAM key matches are faster than EMEM.
    pub sram_speedup: f64,
    /// SRAM capacity in bytes.
    pub sram_capacity_bytes: f64,
}

impl Default for TierParams {
    fn default() -> Self {
        Self {
            sram_speedup: 3.0,
            sram_capacity_bytes: 256.0 * 1024.0,
        }
    }
}

impl TierParams {
    /// The match-cost multiplier of a tier.
    pub fn match_scale(&self, tier: MemoryTier) -> f64 {
        match tier {
            MemoryTier::Emem => 1.0,
            MemoryTier::Sram => 1.0 / self.sram_speedup.max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_is_faster() {
        let t = TierParams::default();
        assert_eq!(t.match_scale(MemoryTier::Emem), 1.0);
        assert!((t.match_scale(MemoryTier::Sram) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_below_one_clamps() {
        let t = TierParams {
            sram_speedup: 0.5,
            ..TierParams::default()
        };
        assert_eq!(t.match_scale(MemoryTier::Sram), 1.0);
    }
}
