//! Match/action tables: keys, match kinds, actions, primitives, and entries.
//!
//! The cost model (paper §3.1) distinguishes tables by their *match kind*
//! (which determines the number of memory accesses `m` a key match needs)
//! and by the number of *action primitives* `n_a` an action executes. Both
//! are first-class here so the optimizer and the simulator agree on costs.

use crate::types::FieldRef;

/// The match kind of a single table key, in increasing implementation cost.
///
/// * `Exact` — one hash plus one memory access (`m = 1`).
/// * `Lpm` — longest prefix match, implemented as one hash table per
///   distinct prefix length (`m` = number of distinct prefix lengths).
/// * `Ternary` — arbitrary value/mask, implemented as one hash table per
///   distinct mask (`m` = number of distinct masks), with priorities to
///   disambiguate overlapping entries.
/// * `Range` — `lo..=hi` interval match; modeled like ternary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact value match.
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Value/mask match with priority.
    Ternary,
    /// Interval match with priority.
    Range,
}

/// One key component of a table: which field is matched, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchKey {
    /// The packet field this key matches on.
    pub field: FieldRef,
    /// The match kind of this key component.
    pub kind: MatchKind,
}

/// A primitive operation inside an action (paper Figure 4 "action
/// primitives", e.g. `ipv4.ttl = ipv4.ttl - 1`).
///
/// The cost model charges `L_act` per primitive; the simulator executes them
/// for real so semantic-equivalence tests can compare packet contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operand fields are named by their role
pub enum Primitive {
    /// `field = value`
    Set { field: FieldRef, value: u64 },
    /// `field = field + delta` (wrapping)
    Add { field: FieldRef, delta: u64 },
    /// `field = field - delta` (wrapping)
    Sub { field: FieldRef, delta: u64 },
    /// `dst = src`
    Copy { dst: FieldRef, src: FieldRef },
    /// Mark the packet as dropped; execution halts after the action.
    Drop,
    /// Set the egress port metadata field.
    Forward { port: u32 },
    /// A primitive with cost but no architectural effect (e.g. checksum
    /// update); lets synthesized programs scale `n_a` without touching
    /// packet state.
    Nop,
}

impl Primitive {
    /// Convenience constructor for `Set`.
    pub fn set(field: FieldRef, value: u64) -> Self {
        Primitive::Set { field, value }
    }

    /// Convenience constructor for `Add`.
    pub fn add(field: FieldRef, delta: u64) -> Self {
        Primitive::Add { field, delta }
    }

    /// Convenience constructor for `Sub`.
    pub fn sub(field: FieldRef, delta: u64) -> Self {
        Primitive::Sub { field, delta }
    }

    /// The field this primitive writes, if any.
    pub fn written_field(&self) -> Option<FieldRef> {
        match *self {
            Primitive::Set { field, .. }
            | Primitive::Add { field, .. }
            | Primitive::Sub { field, .. } => Some(field),
            Primitive::Copy { dst, .. } => Some(dst),
            Primitive::Drop | Primitive::Forward { .. } | Primitive::Nop => None,
        }
    }

    /// The field this primitive reads, if any (beyond its written field).
    pub fn read_field(&self) -> Option<FieldRef> {
        match *self {
            Primitive::Copy { src, .. } => Some(src),
            Primitive::Add { field, .. } | Primitive::Sub { field, .. } => Some(field),
            _ => None,
        }
    }
}

/// A named action: a sequence of primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Human-readable action name (unique within its table by convention).
    pub name: String,
    /// The primitive operations executed when this action fires.
    pub primitives: Vec<Primitive>,
}

impl Action {
    /// Creates an action from a name and primitive list.
    pub fn new(name: impl Into<String>, primitives: Vec<Primitive>) -> Self {
        Self {
            name: name.into(),
            primitives,
        }
    }

    /// An action whose only effect is dropping the packet.
    pub fn drop_action(name: impl Into<String>) -> Self {
        Self::new(name, vec![Primitive::Drop])
    }

    /// A no-op action with zero primitives (the typical "permit"/default).
    pub fn nop(name: impl Into<String>) -> Self {
        Self::new(name, Vec::new())
    }

    /// The number of primitives, `n_a` in the cost model (Eq. 4b).
    pub fn num_primitives(&self) -> usize {
        self.primitives.len()
    }

    /// Whether executing this action drops the packet.
    pub fn drops(&self) -> bool {
        self.primitives.iter().any(|p| matches!(p, Primitive::Drop))
    }
}

/// The matched value for one key component of a table entry.
///
/// The variant must agree with the corresponding [`MatchKey`]'s kind; this
/// is validated by [`Table::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields are named by their role
pub enum MatchValue {
    /// Matches exactly `value`.
    Exact(u64),
    /// Matches the top `prefix_len` bits of a 64-bit value. `prefix_len = 0`
    /// matches anything; [`Table::validate`] refuses a `prefix_len` above
    /// 64.
    Lpm { value: u64, prefix_len: u8 },
    /// Matches where `packet & mask == value & mask`. A zero mask matches
    /// anything (the `*` wildcard of paper Figure 6).
    Ternary { value: u64, mask: u64 },
    /// Matches `lo <= packet <= hi`.
    Range { lo: u64, hi: u64 },
}

impl MatchValue {
    /// The wildcard ternary value (`*` / mask 0) from paper Figure 6.
    pub const ANY: MatchValue = MatchValue::Ternary { value: 0, mask: 0 };

    /// Whether a concrete packet field value satisfies this match value.
    pub fn matches(&self, packet_value: u64) -> bool {
        match *self {
            MatchValue::Exact(v) => packet_value == v,
            MatchValue::Lpm { value, prefix_len } => {
                let mask = prefix_mask(prefix_len);
                packet_value & mask == value & mask
            }
            MatchValue::Ternary { value, mask } => packet_value & mask == value & mask,
            MatchValue::Range { lo, hi } => (lo..=hi).contains(&packet_value),
        }
    }

    /// Whether this value is compatible with the given key kind.
    pub fn compatible_with(&self, kind: MatchKind) -> bool {
        matches!(
            (self, kind),
            (MatchValue::Exact(_), MatchKind::Exact)
                | (MatchValue::Lpm { .. }, MatchKind::Lpm)
                | (MatchValue::Ternary { .. }, MatchKind::Ternary)
                | (MatchValue::Range { .. }, MatchKind::Range)
        )
    }
}

/// The 64-bit mask selecting the top `prefix_len` bits.
pub fn prefix_mask(prefix_len: u8) -> u64 {
    match prefix_len {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => !0u64 << (64 - n),
    }
}

/// One installed rule in a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// One match value per table key, in key order.
    pub matches: Vec<MatchValue>,
    /// Index into the table's action list.
    pub action: usize,
    /// Priority for `Ternary`/`Range` tables; higher wins. Ignored for
    /// exact/LPM tables (LPM resolves by longest prefix instead).
    pub priority: i32,
}

impl TableEntry {
    /// Creates an entry with priority 0.
    pub fn new(matches: Vec<MatchValue>, action: usize) -> Self {
        Self {
            matches,
            action,
            priority: 0,
        }
    }

    /// Creates an entry with an explicit priority.
    pub fn with_priority(matches: Vec<MatchValue>, action: usize, priority: i32) -> Self {
        Self {
            matches,
            action,
            priority,
        }
    }

    /// The entry's lookup pattern, one word per key: the bits an exact
    /// value compares (all), an LPM value's prefix mask, a ternary
    /// value's mask, and a range binned by its width's bit length
    /// (approximating the number of covering prefixes). Entries of one
    /// pattern share a hash table, so a table's `m` counts its distinct
    /// patterns ([`Table::memory_accesses`]).
    pub fn pattern(&self) -> impl Iterator<Item = u64> + '_ {
        self.matches.iter().map(|m| match *m {
            MatchValue::Exact(_) => u64::MAX,
            MatchValue::Lpm { prefix_len, .. } => prefix_mask(prefix_len),
            MatchValue::Ternary { mask, .. } => mask,
            MatchValue::Range { lo, hi } => 64 - (hi - lo).leading_zeros() as u64,
        })
    }
}

/// Why a table exists, from the optimizer's point of view.
///
/// Transformed programs contain synthetic tables (caches, merged tables)
/// whose runtime behaviour differs from plain program tables: cache tables
/// self-populate on misses (table caching, §3.2.2) or do not (merge-as-cache,
/// §3.2.3), and their counters map back to original tables differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRole {
    /// A plain program table.
    None,
    /// A flow cache created by table caching: on a miss the packet falls
    /// through to the original tables *and the result is inserted* into the
    /// cache (subject to the insertion rate limit).
    FlowCache,
    /// A merged-exact table used as a cache (paper §3.2.3): misses fall back
    /// to the original tables but do **not** trigger insertions; entries are
    /// materialized from the merge cross-product by the control plane.
    MergedCache,
}

/// A match/action table node.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (for diagnostics and JSON round-tripping).
    pub name: String,
    /// Key components; empty keys are allowed (the table always misses and
    /// runs the default action, a pattern used for pure "action stages").
    pub keys: Vec<MatchKey>,
    /// Actions selectable by entries. Must be non-empty.
    pub actions: Vec<Action>,
    /// Index of the action run when no entry matches.
    pub default_action: usize,
    /// Installed entries.
    pub entries: Vec<TableEntry>,
    /// Capacity for caches / resource accounting. `None` = unbounded.
    pub max_entries: Option<usize>,
    /// Synthetic-table role (caches); `CacheRole::None` for program tables.
    pub cache_role: CacheRole,
}

impl Table {
    /// Per-entry memory footprint in bytes (key + action data), used by
    /// the resource model `M(v)`.
    pub const DEFAULT_ENTRY_BYTES: usize = 32;

    /// Creates an empty table with the given name and a single no-op
    /// default action.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            keys: Vec::new(),
            actions: vec![Action::nop("nop")],
            default_action: 0,
            entries: Vec::new(),
            max_entries: None,
            cache_role: CacheRole::None,
        }
    }

    /// The dominant match kind of the table: the most expensive kind among
    /// its keys (a table with any ternary key behaves like a ternary table).
    pub fn effective_kind(&self) -> MatchKind {
        let mut kind = MatchKind::Exact;
        for k in &self.keys {
            kind = match (kind, k.kind) {
                (_, MatchKind::Ternary) | (MatchKind::Ternary, _) => MatchKind::Ternary,
                (_, MatchKind::Range) | (MatchKind::Range, _) => MatchKind::Range,
                (_, MatchKind::Lpm) | (MatchKind::Lpm, _) => MatchKind::Lpm,
                _ => MatchKind::Exact,
            };
        }
        kind
    }

    /// The number of hash-table lookups a key match performs — the `m`
    /// parameter of cost-model Eq. 4a — derived from the installed entries:
    ///
    /// * exact: 1
    /// * LPM: number of distinct prefix lengths (≥ 1)
    /// * ternary/range: number of distinct masks / distinct range shapes
    ///   (≥ 1)
    ///
    /// Multi-key tables count the distinct *combinations* of
    /// per-key patterns ([`TableEntry::pattern`]), matching the
    /// multiple-hash-table implementation.
    pub fn memory_accesses(&self) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        match self.effective_kind() {
            MatchKind::Exact => 1,
            _ => {
                let mut patterns: Vec<Vec<u64>> = Vec::new();
                for e in &self.entries {
                    let sig: Vec<u64> = e.pattern().collect();
                    if !patterns.contains(&sig) {
                        patterns.push(sig);
                    }
                }
                patterns.len().max(1)
            }
        }
    }

    /// Estimated memory footprint in bytes: entries × entry size × `m`
    /// (LPM/ternary tables are stored once per hash table; paper §4).
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * Self::DEFAULT_ENTRY_BYTES * self.memory_accesses().max(1)
    }

    /// Validates entry arity, action indices, match-value/kind
    /// compatibility and range bounds (`lo <= hi`). Returns a
    /// human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.actions.is_empty() {
            return Err("table has no actions".into());
        }
        if self.default_action >= self.actions.len() {
            return Err(format!(
                "default action index {} out of range ({} actions)",
                self.default_action,
                self.actions.len()
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.matches.len() != self.keys.len() {
                return Err(format!(
                    "entry {i} has {} match values but table has {} keys",
                    e.matches.len(),
                    self.keys.len()
                ));
            }
            if e.action >= self.actions.len() {
                return Err(format!(
                    "entry {i} references action {} out of range",
                    e.action
                ));
            }
            for (mv, key) in e.matches.iter().zip(&self.keys) {
                if !mv.compatible_with(key.kind) {
                    return Err(format!(
                        "entry {i}: match value {mv:?} incompatible with key kind {:?}",
                        key.kind
                    ));
                }
                match *mv {
                    MatchValue::Range { lo, hi } if lo > hi => {
                        return Err(format!("entry {i}: empty range {lo}..{hi}"));
                    }
                    MatchValue::Lpm { prefix_len, .. } if prefix_len > 64 => {
                        return Err(format!(
                            "entry {i}: prefix length {prefix_len} exceeds 64 bits"
                        ));
                    }
                    _ => {}
                }
            }
        }
        if let Some(cap) = self.max_entries {
            if self.entries.len() > cap {
                return Err(format!(
                    "table holds {} entries, exceeding max_entries {cap}",
                    self.entries.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u16) -> FieldRef {
        FieldRef(i)
    }

    #[test]
    fn prefix_mask_edges() {
        assert_eq!(prefix_mask(0), 0);
        assert_eq!(prefix_mask(64), u64::MAX);
        assert_eq!(prefix_mask(1), 1u64 << 63);
        assert_eq!(prefix_mask(32), 0xFFFF_FFFF_0000_0000);
    }

    #[test]
    fn match_value_semantics() {
        assert!(MatchValue::Exact(7).matches(7));
        assert!(!MatchValue::Exact(7).matches(8));
        let lpm = MatchValue::Lpm {
            value: 0xAB00_0000_0000_0000,
            prefix_len: 8,
        };
        assert!(lpm.matches(0xABCD_0000_0000_0000));
        assert!(!lpm.matches(0xAC00_0000_0000_0000));
        let tern = MatchValue::Ternary {
            value: 0b1010,
            mask: 0b1110,
        };
        assert!(tern.matches(0b1011));
        assert!(!tern.matches(0b0010));
        assert!(MatchValue::ANY.matches(u64::MAX));
        assert!(MatchValue::Range { lo: 5, hi: 9 }.matches(5));
        assert!(MatchValue::Range { lo: 5, hi: 9 }.matches(9));
        assert!(!MatchValue::Range { lo: 5, hi: 9 }.matches(10));
    }

    #[test]
    fn validate_refuses_an_inverted_range() {
        let mut t = Table::new("r");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Range,
        }];
        t.actions = vec![Action::nop("a")];
        t.entries = vec![TableEntry::new(vec![MatchValue::Range { lo: 7, hi: 7 }], 0)];
        assert_eq!(t.validate(), Ok(()));
        t.entries[0].matches[0] = MatchValue::Range { lo: 10, hi: 5 };
        assert_eq!(t.validate(), Err("entry 0: empty range 10..5".into()));
    }

    /// A prefix longer than the 64-bit key is refused: `prefix_mask`
    /// would clamp it to /64 while entry ranking reads the raw length.
    #[test]
    fn validate_refuses_a_prefix_longer_than_64_bits() {
        let mut t = Table::new("l");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Lpm,
        }];
        t.actions = vec![Action::nop("a")];
        let lpm = |prefix_len| MatchValue::Lpm {
            value: 5,
            prefix_len,
        };
        t.entries = vec![TableEntry::new(vec![lpm(64)], 0)];
        assert_eq!(t.validate(), Ok(()));
        for prefix_len in [65, 200, 255] {
            t.entries[0].matches[0] = lpm(prefix_len);
            assert_eq!(
                t.validate(),
                Err(format!(
                    "entry 0: prefix length {prefix_len} exceeds 64 bits"
                ))
            );
        }
    }

    #[test]
    fn effective_kind_is_most_expensive() {
        let mut t = Table::new("t");
        t.keys = vec![
            MatchKey {
                field: f(0),
                kind: MatchKind::Exact,
            },
            MatchKey {
                field: f(1),
                kind: MatchKind::Lpm,
            },
        ];
        assert_eq!(t.effective_kind(), MatchKind::Lpm);
        t.keys.push(MatchKey {
            field: f(2),
            kind: MatchKind::Ternary,
        });
        assert_eq!(t.effective_kind(), MatchKind::Ternary);
    }

    #[test]
    fn memory_accesses_counts_distinct_patterns() {
        let mut t = Table::new("lpm");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Lpm,
        }];
        t.actions = vec![Action::nop("nop"), Action::drop_action("drop")];
        // Three distinct prefix lengths -> m = 3 (paper §3.1 methodology).
        for (plen, v) in [(8u8, 1u64), (16, 2), (24, 3), (24, 4)] {
            t.entries.push(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: v << 40,
                    prefix_len: plen,
                }],
                0,
            ));
        }
        assert_eq!(t.memory_accesses(), 3);

        let mut e = Table::new("exact");
        e.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Exact,
        }];
        e.entries
            .push(TableEntry::new(vec![MatchValue::Exact(1)], 0));
        assert_eq!(e.memory_accesses(), 1);
    }

    #[test]
    fn empty_pattern_table_still_costs_one_access() {
        let mut t = Table::new("tern");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Ternary,
        }];
        assert_eq!(t.memory_accesses(), 1);
    }

    #[test]
    fn validation_catches_arity_and_action_errors() {
        let mut t = Table::new("t");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Exact,
        }];
        t.entries.push(TableEntry::new(vec![], 0));
        assert!(t.validate().unwrap_err().contains("match values"));
        t.entries.clear();
        t.entries
            .push(TableEntry::new(vec![MatchValue::Exact(1)], 9));
        assert!(t.validate().unwrap_err().contains("action 9"));
        t.entries.clear();
        t.entries.push(TableEntry::new(
            vec![MatchValue::Ternary { value: 0, mask: 0 }],
            0,
        ));
        assert!(t.validate().unwrap_err().contains("incompatible"));
    }

    #[test]
    fn validation_enforces_capacity() {
        let mut t = Table::new("t");
        t.max_entries = Some(1);
        t.entries.push(TableEntry::new(vec![], 0));
        t.entries.push(TableEntry::new(vec![], 0));
        assert!(t.validate().unwrap_err().contains("exceeding"));
    }

    #[test]
    fn action_drop_detection() {
        assert!(Action::drop_action("d").drops());
        assert!(!Action::nop("n").drops());
        let a = Action::new("mixed", vec![Primitive::Nop, Primitive::Drop]);
        assert!(a.drops());
    }

    #[test]
    fn primitive_read_write_sets() {
        let p = Primitive::Copy {
            dst: f(1),
            src: f(2),
        };
        assert_eq!(p.written_field(), Some(f(1)));
        assert_eq!(p.read_field(), Some(f(2)));
        assert_eq!(Primitive::Drop.written_field(), None);
        assert_eq!(Primitive::add(f(3), 1).read_field(), Some(f(3)));
    }

    #[test]
    fn memory_bytes_scales_with_m() {
        let mut t = Table::new("tern");
        t.keys = vec![MatchKey {
            field: f(0),
            kind: MatchKind::Ternary,
        }];
        t.actions = vec![Action::nop("nop")];
        for mask in [0xFF00u64, 0x00FF, 0xFFFF] {
            t.entries.push(TableEntry::new(
                vec![MatchValue::Ternary { value: 0, mask }],
                0,
            ));
        }
        // 3 entries, 3 distinct masks, default 32 B/entry -> 3*32*3.
        assert_eq!(t.memory_bytes(), 3 * 32 * 3);
    }
}
