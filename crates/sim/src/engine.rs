//! Match engines: the data structures behind key matching.
//!
//! Exact tables are a single hash table (one memory access). LPM and
//! ternary tables are families of hash tables — one per distinct prefix
//! length / mask pattern — exactly the implementation the cost model's `m`
//! parameter abstracts (paper §3.1). Each lookup reports how many hash
//! tables it probed so the executor charges `probes × L_mat`.

use crate::packet::Packet;
use fxhash::FxHashMap;
use pipeleon_ir::{prefix_mask, MatchKind, MatchValue, Table};

/// The outcome of a key match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Index of the matched entry in the table, `None` on miss.
    pub entry: Option<usize>,
    /// The action to execute (matched entry's action, or the default).
    pub action: usize,
    /// Number of hash tables probed (the realized `m`).
    pub probes: usize,
}

/// Reusable scratch buffers for [`MatchEngine::lookup`]: the composed key
/// values and the per-way masked key. Caller-owned so the steady-state
/// lookup path performs zero heap allocations (the buffers grow once to
/// the widest key and are reused for every packet thereafter).
#[derive(Debug, Default, Clone)]
pub struct KeyScratch {
    pub(crate) values: Vec<u64>,
    pub(crate) masked: Vec<u64>,
}

impl KeyScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The key values composed by the most recent lookup (one per match
    /// key, in declaration order). Valid until the next lookup.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Where a table's entries live: its hash-table ways, in the order a
/// lookup probes them, and the entries needing a linear scan. Decided
/// here once and read by both engines ([`MatchEngine::build`] and the
/// compiled engine), so they agree on probe order, per-key entry order
/// and resolution by construction.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Mask patterns in order of first appearance (LPM ways then stably
    /// sorted most specific first, so the first hit is the longest
    /// prefix), each with its entries in ascending order.
    pub(crate) ways: Vec<Way<Vec<usize>>>,
    /// Entries holding a range value, ascending.
    pub(crate) scan: Vec<usize>,
    pub(crate) resolve: Resolve,
    /// Entry index → (action, priority) copied from the table.
    pub(crate) entry_meta: Vec<(usize, i32)>,
}

impl Layout {
    /// Lays out a table's entries. The table should have passed
    /// [`Table::validate`].
    pub(crate) fn of(table: &Table) -> Self {
        let resolve = match table.effective_kind() {
            MatchKind::Exact => Resolve::Exact,
            MatchKind::Lpm => Resolve::LongestPrefix,
            MatchKind::Ternary | MatchKind::Range => Resolve::Priority,
        };
        let mut ways: Vec<Way<Vec<usize>>> = Vec::new();
        let mut scan = Vec::new();
        let mut masks = Vec::new();
        'entry: for (idx, e) in table.entries.iter().enumerate() {
            masks.clear();
            for mv in &e.matches {
                let Some((mask, _)) = mask_and_value(mv) else {
                    scan.push(idx);
                    continue 'entry;
                };
                masks.push(mask);
            }
            match ways.iter_mut().find(|w| w.masks == masks) {
                Some(w) => w.entries.push(idx),
                None => ways.push(Way {
                    masks: masks.clone(),
                    entries: vec![idx],
                }),
            }
        }
        if resolve == Resolve::LongestPrefix {
            ways.sort_by_key(|w| {
                std::cmp::Reverse(w.masks.iter().map(|m| m.count_ones()).sum::<u32>())
            });
        }
        Self {
            ways,
            scan,
            resolve,
            entry_meta: table
                .entries
                .iter()
                .map(|e| (e.action, e.priority))
                .collect(),
        }
    }
}

/// A match value's mask and value; `None` for a range, which no mask
/// expresses.
pub(crate) fn mask_and_value(mv: &MatchValue) -> Option<(u64, u64)> {
    match *mv {
        MatchValue::Exact(v) => Some((u64::MAX, v)),
        MatchValue::Lpm { value, prefix_len } => Some((prefix_mask(prefix_len), value)),
        MatchValue::Ternary { value, mask } => Some((mask, value)),
        MatchValue::Range { .. } => None,
    }
}

/// A key word as a way stores it: the value under its own mask (only
/// asked of entries a [`Layout`] put in a way).
pub(crate) fn stored_word(mv: &MatchValue) -> u64 {
    mask_and_value(mv).map_or(0, |(mask, value)| value & mask)
}

/// One hash-table "way": all entries sharing a mask pattern — as an
/// index list in a [`Layout`], keyed by masked value in an engine (boxed
/// keys, so lookups can borrow a `&[u64]` scratch buffer).
#[derive(Debug, Clone)]
pub(crate) struct Way<E = FxHashMap<Box<[u64]>, Vec<usize>>> {
    /// Per-key masks applied to the packet value before hashing: exact
    /// keys use `u64::MAX`, LPM and ternary keys their prefix/bit masks.
    pub(crate) masks: Vec<u64>,
    /// The entries under the pattern, each key's in ascending order.
    pub(crate) entries: E,
}

/// How the engine resolves among ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolve {
    /// Single way, first match wins (exact tables).
    Exact,
    /// Probe ways most-specific-first, stop at the first hit (LPM).
    LongestPrefix,
    /// Probe all ways, pick the highest-priority hit (ternary).
    Priority,
}

/// A compiled match engine for one table.
#[derive(Debug, Clone)]
pub struct MatchEngine {
    pub(crate) key_fields: Vec<pipeleon_ir::FieldRef>,
    pub(crate) ways: Vec<Way>,
    /// Entries needing a linear scan (ranges).
    pub(crate) scan_entries: Vec<usize>,
    pub(crate) resolve: Resolve,
    pub(crate) default_action: usize,
    /// Entry index → (action, priority) copied from the table.
    pub(crate) entry_meta: Vec<(usize, i32)>,
    pub(crate) has_keys: bool,
}

impl MatchEngine {
    /// Compiles the engine from a table's way layout, as the compiled
    /// engine is. The table should have passed [`Table::validate`].
    pub fn build(table: &Table) -> Self {
        let layout = Layout::of(table);
        let key = |idx: usize| table.entries[idx].matches.iter().map(stored_word).collect();
        let ways = layout.ways.into_iter().map(|w| {
            let mut map = FxHashMap::<Box<[u64]>, Vec<usize>>::default();
            for &idx in &w.entries {
                map.entry(key(idx)).or_default().push(idx);
            }
            Way {
                masks: w.masks,
                entries: map,
            }
        });
        Self {
            key_fields: table.keys.iter().map(|k| k.field).collect(),
            ways: ways.collect(),
            scan_entries: layout.scan,
            resolve: layout.resolve,
            default_action: table.default_action,
            entry_meta: layout.entry_meta,
            has_keys: !table.keys.is_empty(),
        }
    }

    /// Looks up a packet. `table` must be the same definition the engine
    /// was built from (used for range comparisons). The caller provides
    /// reusable [`KeyScratch`] buffers; after the call `scratch.values()`
    /// holds the composed key values (useful for distinct-key tracking).
    pub fn lookup(
        &self,
        table: &Table,
        packet: &Packet,
        scratch: &mut KeyScratch,
    ) -> LookupOutcome {
        scratch.values.clear();
        if !self.has_keys {
            // Keyless tables always run the default action with no access.
            return LookupOutcome {
                entry: None,
                action: self.default_action,
                probes: 0,
            };
        }
        scratch
            .values
            .extend(self.key_fields.iter().map(|&f| packet.get(f)));
        let mut probes = 0usize;
        let mut best: Option<(usize, i32)> = None; // (entry, priority)
        for way in &self.ways {
            probes += 1;
            scratch.masked.clear();
            scratch
                .masked
                .extend(scratch.values.iter().zip(&way.masks).map(|(v, m)| v & m));
            if let Some(entries) = way.entries.get(scratch.masked.as_slice()) {
                for &idx in entries {
                    let (_, prio) = self.entry_meta[idx];
                    let better = match best {
                        None => true,
                        Some((best_idx, best_prio)) => match self.resolve {
                            Resolve::Priority => {
                                prio > best_prio || (prio == best_prio && idx < best_idx)
                            }
                            _ => false,
                        },
                    };
                    if better {
                        best = Some((idx, prio));
                    }
                }
                if !matches!(self.resolve, Resolve::Priority) && best.is_some() {
                    // Exact / LPM: first (most specific) hit wins.
                    break;
                }
            }
        }
        // Linear-scan entries (ranges) act like one extra probe.
        if !self.scan_entries.is_empty() {
            probes += 1;
            for &idx in &self.scan_entries {
                let e = &table.entries[idx];
                let hit = e
                    .matches
                    .iter()
                    .zip(scratch.values.iter())
                    .all(|(mv, &v)| mv.matches(v));
                if hit {
                    let (_, prio) = self.entry_meta[idx];
                    let better = match best {
                        None => true,
                        Some((best_idx, best_prio)) => {
                            prio > best_prio || (prio == best_prio && idx < best_idx)
                        }
                    };
                    if better {
                        best = Some((idx, prio));
                    }
                }
            }
        }
        match best {
            Some((idx, _)) => LookupOutcome {
                entry: Some(idx),
                action: self.entry_meta[idx].0,
                probes,
            },
            None => LookupOutcome {
                entry: None,
                action: self.default_action,
                probes: probes.max(1),
            },
        }
    }
}

/// Reference semantics: linear scan over entries honouring LPM longest-
/// prefix and ternary priority resolution. Used by property tests as an
/// oracle for [`MatchEngine`].
pub fn oracle_lookup(table: &Table, packet: &Packet) -> (Option<usize>, usize) {
    let values: Vec<u64> = table.keys.iter().map(|k| packet.get(k.field)).collect();
    let mut best: Option<(usize, i64)> = None; // (entry, score)
    for (idx, e) in table.entries.iter().enumerate() {
        let hit = e.matches.iter().zip(&values).all(|(mv, &v)| mv.matches(v));
        if !hit {
            continue;
        }
        // Score: LPM tables prefer longer prefixes; ternary/range prefer
        // higher priority; exact tables take the first hit.
        let score = match table.effective_kind() {
            MatchKind::Lpm => e
                .matches
                .iter()
                .map(|m| match *m {
                    MatchValue::Lpm { prefix_len, .. } => prefix_len as i64,
                    MatchValue::Exact(_) => 64,
                    _ => 0,
                })
                .sum(),
            MatchKind::Ternary | MatchKind::Range => e.priority as i64,
            MatchKind::Exact => 0,
        };
        match best {
            None => best = Some((idx, score)),
            Some((_, s)) if score > s => best = Some((idx, score)),
            _ => {}
        }
    }
    match best {
        Some((idx, _)) => (Some(idx), table.entries[idx].action),
        None => (None, table.default_action),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_ir::{Action, FieldRef, MatchKey, TableEntry};

    fn packet(vals: &[u64]) -> Packet {
        Packet::with_slots(vals.to_vec())
    }

    fn lk(e: &MatchEngine, t: &Table, p: &Packet) -> LookupOutcome {
        e.lookup(t, p, &mut KeyScratch::new())
    }

    fn table_with(kind: MatchKind, entries: Vec<TableEntry>) -> Table {
        let mut t = Table::new("t");
        t.keys = vec![MatchKey {
            field: FieldRef(0),
            kind,
        }];
        t.actions = vec![Action::nop("miss"), Action::nop("hit")];
        t.entries = entries;
        t
    }

    #[test]
    fn exact_lookup_one_probe() {
        let t = table_with(
            MatchKind::Exact,
            vec![
                TableEntry::new(vec![MatchValue::Exact(5)], 1),
                TableEntry::new(vec![MatchValue::Exact(9)], 1),
            ],
        );
        let e = MatchEngine::build(&t);
        let r = lk(&e, &t, &packet(&[5]));
        assert_eq!(r.entry, Some(0));
        assert_eq!(r.action, 1);
        assert_eq!(r.probes, 1);
        let r = lk(&e, &t, &packet(&[7]));
        assert_eq!(r.entry, None);
        assert_eq!(r.action, 0);
        assert_eq!(r.probes, 1);
    }

    #[test]
    fn lpm_picks_longest_prefix() {
        let t = table_with(
            MatchKind::Lpm,
            vec![
                TableEntry::new(
                    vec![MatchValue::Lpm {
                        value: 0xAB00_0000_0000_0000,
                        prefix_len: 8,
                    }],
                    0,
                ),
                TableEntry::new(
                    vec![MatchValue::Lpm {
                        value: 0xABCD_0000_0000_0000,
                        prefix_len: 16,
                    }],
                    1,
                ),
            ],
        );
        let e = MatchEngine::build(&t);
        assert_eq!(e.ways.len(), 2);
        // Matches both prefixes; /16 must win, probed first (1 probe).
        let r = lk(&e, &t, &packet(&[0xABCD_1234_0000_0000]));
        assert_eq!(r.entry, Some(1));
        assert_eq!(r.probes, 1);
        // Matches only the /8: probes the /16 way first, then the /8.
        let r = lk(&e, &t, &packet(&[0xAB11_0000_0000_0000]));
        assert_eq!(r.entry, Some(0));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn ternary_resolves_by_priority_probing_all_ways() {
        let t = table_with(
            MatchKind::Ternary,
            vec![
                TableEntry::with_priority(
                    vec![MatchValue::Ternary {
                        value: 0x10,
                        mask: 0xF0,
                    }],
                    0,
                    1,
                ),
                TableEntry::with_priority(
                    vec![MatchValue::Ternary {
                        value: 0x12,
                        mask: 0xFF,
                    }],
                    1,
                    2,
                ),
                TableEntry::with_priority(vec![MatchValue::ANY], 0, 0),
            ],
        );
        let e = MatchEngine::build(&t);
        assert_eq!(e.ways.len(), 3);
        let r = lk(&e, &t, &packet(&[0x12]));
        assert_eq!(r.entry, Some(1)); // priority 2 wins
        assert_eq!(r.probes, 3);
        let r = lk(&e, &t, &packet(&[0x15]));
        assert_eq!(r.entry, Some(0)); // only 0xF0 mask + wildcard; prio 1 wins
        let r = lk(&e, &t, &packet(&[0xFF]));
        assert_eq!(r.entry, Some(2)); // wildcard
    }

    #[test]
    fn range_entries_linear_scan() {
        let t = table_with(
            MatchKind::Range,
            vec![
                TableEntry::with_priority(vec![MatchValue::Range { lo: 10, hi: 20 }], 1, 1),
                TableEntry::with_priority(vec![MatchValue::Range { lo: 15, hi: 30 }], 1, 2),
            ],
        );
        let e = MatchEngine::build(&t);
        let r = lk(&e, &t, &packet(&[17]));
        assert_eq!(r.entry, Some(1)); // overlap: priority 2 wins
        let r = lk(&e, &t, &packet(&[12]));
        assert_eq!(r.entry, Some(0));
        let r = lk(&e, &t, &packet(&[99]));
        assert_eq!(r.entry, None);
    }

    #[test]
    fn keyless_table_runs_default_with_no_probe() {
        let mut t = Table::new("keyless");
        t.actions = vec![Action::nop("only")];
        let e = MatchEngine::build(&t);
        let r = lk(&e, &t, &packet(&[1, 2, 3]));
        assert_eq!(r.probes, 0);
        assert_eq!(r.action, 0);
    }

    #[test]
    fn multi_key_exact_plus_ternary() {
        let mut t = Table::new("multi");
        t.keys = vec![
            MatchKey {
                field: FieldRef(0),
                kind: MatchKind::Exact,
            },
            MatchKey {
                field: FieldRef(1),
                kind: MatchKind::Ternary,
            },
        ];
        t.actions = vec![Action::nop("miss"), Action::nop("hit")];
        t.entries = vec![TableEntry::with_priority(
            vec![
                MatchValue::Exact(7),
                MatchValue::Ternary { value: 0, mask: 0 },
            ],
            1,
            1,
        )];
        let e = MatchEngine::build(&t);
        assert_eq!(lk(&e, &t, &packet(&[7, 123])).entry, Some(0));
        assert_eq!(lk(&e, &t, &packet(&[8, 123])).entry, None);
    }

    /// Both engines against the linear-scan oracle, entry for entry:
    /// all three break ties toward the lowest entry index. Ternary, LPM
    /// and range keys alone, and multi-key exact + LPM and exact +
    /// ternary + range tables, over small value domains so that rules
    /// overlap and priorities tie.
    #[test]
    fn engine_agrees_with_oracle_on_mixed_entries() {
        let mut x: u64 = 0x12345;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        use MatchKind::{Exact, Lpm, Range, Ternary};
        let shapes = [
            vec![Ternary],
            vec![Lpm],
            vec![Range],
            vec![Exact, Lpm],
            vec![Exact, Ternary, Range],
        ];
        for kinds in shapes {
            for n in [1, 5, 50] {
                let mut t = table_with(Ternary, Vec::new());
                t.keys = kinds
                    .iter()
                    .enumerate()
                    .map(|(f, &kind)| MatchKey {
                        field: FieldRef(f as u16),
                        kind,
                    })
                    .collect();
                for i in 0..n {
                    let prio = (next() % 10) as i32;
                    let matches = kinds.iter().map(|kind| match kind {
                        Exact => MatchValue::Exact(next() % 4),
                        Ternary => MatchValue::Ternary {
                            value: next() % 64,
                            mask: next() % 64,
                        },
                        Lpm => MatchValue::Lpm {
                            value: next() << 58,
                            prefix_len: (next() % 7) as u8,
                        },
                        Range => {
                            let lo = next() % 64;
                            MatchValue::Range {
                                lo,
                                hi: lo + next() % 16,
                            }
                        }
                    });
                    let entry = TableEntry::with_priority(matches.collect(), i % 2, prio);
                    t.entries.push(entry);
                }
                t.validate().unwrap();
                let e = MatchEngine::build(&t);
                let keys: Vec<Vec<u64>> = (0..500)
                    .map(|_| {
                        let key = kinds.iter().map(|kind| match kind {
                            Exact => next() % 5,
                            Lpm => next() << 58,
                            _ => next() % 64,
                        });
                        key.collect()
                    })
                    .collect();
                for vals in &keys {
                    let p = packet(vals);
                    let r = lk(&e, &t, &p);
                    let want = oracle_lookup(&t, &p);
                    assert_eq!((r.entry, r.action), want, "{kinds:?} n={n} key {vals:x?}");
                }
                // The compiled engine answers as `e` does, probes too.
                crate::compiled::tests::assert_engines_agree(&t, keys.into_iter());
            }
        }
    }
}
