//! The compiled datapath: a flat, index-addressed lowering of a deployed
//! program graph, and the [`Provider`] the executor's walk runs over
//! when the compiled engine is selected.
//!
//! [`CompiledPipeline`] lowers the program once: nodes live in a
//! contiguous arena addressed by dense `u32` slots, branch comparison
//! counts and placement cost scales are pre-resolved to `f64`,
//! action bodies are pre-boxed slices, and match keys are [`SmallKey`]s
//! hashed with FxHash and queried through borrowed `&[u64]` scratch.
//!
//! The accounting is the walk's, shared with the interpreter; what is
//! implemented here a second time, and checked against the graph view by
//! the differential suites, is how a node is reached, what a lookup
//! resolves to and what it is charged. Every baked term multiplies the
//! same operands in the same order as the per-visit derivation, and
//! lookup probe/resolution order is the interpreter's because both
//! engines are built from one way [`Layout`] per table, computed in one
//! place, rather than each deriving its own.

use crate::engine::{mask_and_value, stored_word, KeyScratch, Layout, LookupOutcome, Resolve};
use crate::exec::{GraphView, Provider, Step, Visit};
use crate::packet::Packet;
use crate::prefetch;
use crate::smallkey::{same_key, SmallKey};
use crate::specialize::SpecStats;
use fxhash::FxHashMap;
use pipeleon_cost::{CostParams, MatchCostModel, Placement};
use pipeleon_ir::{
    CacheRole, Condition, FieldRef, MatchValue, NextHops, NodeId, NodeKind, Primitive, Table,
};

/// Sentinel slot meaning "no node" (the sink, or a tombstoned id).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// The entry indices stored under one way key. Single-entry lists (the
/// overwhelmingly common case) are inline — no `Box` deref per hit.
#[derive(Debug, Clone)]
pub(crate) enum CEntries {
    One(usize),
    Many(Box<[usize]>),
}

impl CEntries {
    /// Lists entry `idx` after those already listed.
    fn push(&mut self, idx: usize) {
        *self = CEntries::Many(self.as_slice().iter().copied().chain([idx]).collect());
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        match self {
            CEntries::One(i) => std::slice::from_ref(i),
            CEntries::Many(b) => b,
        }
    }
}

/// What one [`FlatWay`] slot holds under its key. The overwhelmingly
/// common single-entry list is resolved inline — entry index, action and
/// priority copied out of `entry_meta` at build time — so a hit reads
/// nothing beyond the slot's own cache line. Lists of several entries
/// (duplicate keys), and indices too wide for the inline form, spill to
/// a boxed index list resolved through `entry_meta` like every other way
/// kind. `Empty` is a variant, not a reserved key value: every `u64`,
/// `0` and `u64::MAX` included, is a storable key.
#[derive(Debug, Clone)]
enum FlatVal {
    Empty,
    One { idx: u32, action: u32, prio: i32 },
    Many(Box<[usize]>),
}

/// One slot of a [`FlatWay`]: 32 bytes, 32-byte aligned, so two slots
/// share a cache line and none straddles two.
#[derive(Debug, Clone)]
#[repr(align(32))]
struct FlatSlot {
    key: u64,
    val: FlatVal,
}

/// FxHash's multiplier. Fx-hashing one `u64` word from the zero state is
/// this single multiply (`fx_of_one_word_is_one_multiply` pins that).
pub(crate) const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An open-addressed single-field way: a power-of-two slot array, the
/// home slot taken from the *top* bits of the Fx hash (the well-mixed end
/// of a multiplicative hash), collisions resolved by linear probing,
/// load kept at or below 7/8 so a probe run always ends at an `Empty`.
/// Built once from a [`Layout`] way, in entry order, and never mutated:
/// entry ops rebuild the whole engine, so there is no deletion and no
/// tombstone. The slot's address is a function of the key alone, which
/// is what lets the look-ahead stage prefetch it from a packet that has
/// not started executing.
#[derive(Debug, Clone)]
pub(crate) struct FlatWay {
    slots: Box<[FlatSlot]>,
    /// `64 - log2(slots.len())`; `slots.len() >= 2` keeps it below 64.
    shift: u32,
    /// Presence word: one bit per stored key, picked by the six hash
    /// bits below the home index. A clear bit proves a key absent
    /// without touching a slot. Ternary and LPM tables probe one
    /// few-entry way per mask pattern and nearly every such probe
    /// misses; answering those from the way header, on a branch that
    /// goes the same way each time, is what keeps this form no slower
    /// than a SIMD-tagged map there (a slot probe's exit depends on
    /// where the key homes, which no predictor can learn). Past a few
    /// dozen keys the word saturates and the test always passes.
    presence: u64,
}

impl FlatWay {
    /// Builds the way in one pass over its `(key, entry)` pairs, in
    /// entry order (a stored key's slot lists the entries after it), at
    /// its final capacity: the smallest power of two, at least 2, that
    /// keeps `pairs / capacity <= 7/8`.
    fn build(
        entries: impl ExactSizeIterator<Item = (u64, usize)>,
        entry_meta: &[(usize, i32)],
    ) -> Self {
        let cap = (entries.len() * 8).div_ceil(7).next_power_of_two().max(2);
        let mut way = Self {
            slots: vec![
                FlatSlot {
                    key: 0,
                    val: FlatVal::Empty
                };
                cap
            ]
            .into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
            presence: 0,
        };
        let mask = cap - 1;
        for (key, idx) in entries {
            way.presence |= way.presence_bit(key);
            let mut i = way.home(key);
            while !matches!(way.slots[i].val, FlatVal::Empty) && way.slots[i].key != key {
                i = (i + 1) & mask;
            }
            let (slot, (action, prio)) = (&mut way.slots[i], entry_meta[idx]);
            slot.key = key;
            slot.val = match (&slot.val, u32::try_from(idx), u32::try_from(action)) {
                (FlatVal::Empty, Ok(idx), Ok(action)) => FlatVal::One { idx, action, prio },
                (FlatVal::Empty, ..) => FlatVal::Many(Box::new([idx])),
                (FlatVal::One { idx: first, .. }, ..) => {
                    FlatVal::Many([*first as usize, idx].into())
                }
                (FlatVal::Many(list), ..) => {
                    FlatVal::Many(list.iter().copied().chain([idx]).collect())
                }
            };
        }
        way
    }

    /// The slot a key's probe run starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FX_SEED) >> self.shift) as usize
    }

    /// The presence-word bit a key maps to. (`shift >= 6` for any slot
    /// array that fits in memory.)
    #[inline]
    fn presence_bit(&self, key: u64) -> u64 {
        1 << ((key.wrapping_mul(FX_SEED) >> (self.shift - 6)) & 63)
    }

    /// The value stored under `key`, if any.
    #[inline]
    fn get(&self, key: u64) -> Option<&FlatVal> {
        if self.presence & self.presence_bit(key) == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let slot = &self.slots[i & mask];
            match slot.val {
                FlatVal::Empty => return None,
                _ if slot.key == key => return Some(&slot.val),
                _ => i += 1,
            }
        }
    }

    /// Every stored key, in slot order.
    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        let stored = self
            .slots
            .iter()
            .filter(|s| !matches!(s.val, FlatVal::Empty));
        stored.map(|s| s.key)
    }
}

/// The key map of one way. Single-field keys live in a [`FlatWay`] (no
/// slice length prefix, no [`SmallKey`] dispatch, one cache line per
/// hit); wider keys go through the scratch-composed slice into an
/// FxHash map.
#[derive(Debug, Clone)]
pub(crate) enum CWayMap {
    U64(FlatWay),
    Multi(FxHashMap<SmallKey, CEntries>),
}

/// One hash-table way of a [`CompiledEngine`]: a way of the table's
/// [`Layout`], keyed for lookup without a `&Table`.
#[derive(Debug, Clone)]
pub(crate) struct CWay {
    pub(crate) masks: Box<[u64]>,
    /// All-ones masks (exact ways): the composed key can be hashed
    /// directly, skipping the masked-copy step.
    pub(crate) full_mask: bool,
    pub(crate) map: CWayMap,
}

impl CWay {
    /// A single-field way's masked key for a raw field value.
    #[inline]
    fn masked(&self, value: u64) -> u64 {
        if self.full_mask {
            value
        } else {
            value & self.masks[0]
        }
    }

    /// Hints the cache with the slot a single-field way will probe for
    /// the raw field value `value` (nothing for multi-field ways, whose
    /// bucket address is not a function of one field).
    #[inline]
    fn prefetch(&self, value: u64) {
        let key = self.masked(value);
        match &self.map {
            CWayMap::U64(m) => prefetch::line(&m.slots[m.home(key)]),
            CWayMap::Multi(_) => {}
        }
    }

    /// Bytes of the slot array a probe of this way lands in (0 for
    /// multi-field ways, which the look-ahead stage does not serve).
    fn slot_bytes(&self) -> usize {
        match &self.map {
            CWayMap::U64(m) => std::mem::size_of_val(&*m.slots),
            CWayMap::Multi(_) => 0,
        }
    }
}

/// One key field of a ranked rule: a packet value `v` passes iff
/// `(v & mask) - lo <= span` in wrapping arithmetic, i.e. iff `v & mask`
/// lies in `lo..=lo + span`. An exact, LPM or ternary value is its mask
/// with `lo` its masked value and `span` 0; a range is the all-ones mask
/// with `span = hi - lo` (`Table::validate` refuses `lo > hi`).
#[derive(Debug, Clone, Copy)]
struct FieldTest {
    mask: u64,
    lo: u64,
    span: u64,
}

impl FieldTest {
    fn of(mv: &MatchValue) -> Self {
        match (*mv, mask_and_value(mv)) {
            (MatchValue::Range { lo, hi }, _) => Self {
                mask: u64::MAX,
                lo,
                span: hi - lo,
            },
            (_, Some((mask, value))) => Self {
                mask,
                lo: value & mask,
                span: 0,
            },
            (_, None) => unreachable!("only a range has no mask"),
        }
    }

    #[inline]
    fn admits(self, v: u64) -> bool {
        (v & self.mask).wrapping_sub(self.lo) <= self.span
    }
}

/// A priority table lowered to its rules in rank order: priority
/// descending, entry index ascending on ties. The first rule whose every
/// field passes is the answer the way sweep would resolve to, so a
/// lookup stops there. Probes are still charged per way (DESIGN §12).
#[derive(Debug, Clone)]
struct RankedRules {
    /// Per rule, one test per key field, rule after rule.
    tests: Box<[FieldTest]>,
    /// Per rule, in the same order: its entry index and action.
    rules: Box<[(usize, usize)]>,
}

impl RankedRules {
    /// Lowers a keyed priority table's layout, if its every way holds one
    /// rule or it has a scan list. With one rule a way, hashing saves
    /// nothing: the sweep pays a hash and the same compare per way, so
    /// this form never does more work than the ways it replaces. A range
    /// key puts every rule of its table on the scan list, which both
    /// forms scan; ranking those tables too leaves the sweep no scan list.
    fn of(layout: &Layout, table: &Table) -> Option<Self> {
        let priority = layout.resolve == Resolve::Priority && !table.keys.is_empty();
        let shared_way = layout.ways.iter().any(|w| w.entries.len() > 1);
        if !priority || (shared_way && layout.scan.is_empty()) {
            return None;
        }
        let mut order: Vec<usize> = Vec::with_capacity(table.entries.len());
        order.extend(layout.ways.iter().flat_map(|w| &w.entries));
        order.extend(&layout.scan);
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(layout.entry_meta[i].1), i));
        let mut tests = Vec::with_capacity(order.len() * table.keys.len());
        for &i in &order {
            tests.extend(table.entries[i].matches.iter().map(FieldTest::of));
        }
        Some(Self {
            tests: tests.into_boxed_slice(),
            rules: order.iter().map(|&i| (i, layout.entry_meta[i].0)).collect(),
        })
    }

    /// The entry index and action of the best-ranked rule `values`
    /// passes (one value per key field), if any.
    #[inline]
    fn first_match(&self, values: &[u64]) -> Option<(usize, usize)> {
        let at = match *values {
            [v] => self.tests.iter().position(|t| t.admits(v)),
            _ => self
                .tests
                .chunks_exact(values.len())
                .position(|rule| rule.iter().zip(values).all(|(t, &v)| t.admits(v))),
        };
        at.map(|i| self.rules[i])
    }
}

/// The compiled match engine for one table. Semantically identical to
/// [`MatchEngine::lookup`](crate::MatchEngine::lookup) (both are built
/// from the table's [`Layout`]), but needs no `&Table` at lookup time
/// and hashes inline [`SmallKey`]s with FxHash.
#[derive(Debug, Clone)]
pub(crate) struct CompiledEngine {
    key_fields: Box<[FieldRef]>,
    pub(crate) ways: Vec<CWay>,
    /// The rank-ordered form of a priority table with one rule a way or
    /// range rules; `ways` is then empty.
    ranked: Option<RankedRules>,
    /// What the layout's sweep probes: one per way, one for a non-empty
    /// scan list. The sweep of a priority table never stops early, so
    /// this is also every ranked lookup's probe count (at least 1 on a
    /// miss), whichever rule it stops at.
    layout_probes: usize,
    resolve: Resolve,
    pub(crate) default_action: usize,
    /// Entry index → (action, priority).
    entry_meta: Box<[(usize, i32)]>,
    pub(crate) has_keys: bool,
}

impl CompiledEngine {
    /// Builds the compiled engine from the table's [`Layout`], as the
    /// interpreter's engine is built: way order, entry-list order and
    /// resolution rules, hence probe counts and resolved entries, are
    /// the interpreter's by construction. A priority table with one rule
    /// a way, or with range rules, is lowered to its [`RankedRules`]
    /// instead, and no way is built for it.
    pub(crate) fn from_table(table: &Table) -> Self {
        let layout = Layout::of(table);
        let layout_probes = layout.ways.len() + usize::from(!layout.scan.is_empty());
        let ranked = RankedRules::of(&layout, table);
        let swept_ways = match ranked {
            Some(_) => &[][..],
            None => &layout.ways[..],
        };
        let entries = &table.entries;
        let mut key = Vec::new();
        let mut ways = Vec::with_capacity(swept_ways.len());
        for w in swept_ways {
            let map = if w.masks.len() == 1 {
                let keyed = w
                    .entries
                    .iter()
                    .map(|&i| (stored_word(&entries[i].matches[0]), i));
                CWayMap::U64(FlatWay::build(keyed, &layout.entry_meta))
            } else {
                let mut map = FxHashMap::<SmallKey, CEntries>::default();
                for &idx in &w.entries {
                    key.clear();
                    key.extend(entries[idx].matches.iter().map(stored_word));
                    map.entry(SmallKey::from_slice(&key))
                        .and_modify(|list| list.push(idx))
                        .or_insert(CEntries::One(idx));
                }
                CWayMap::Multi(map)
            };
            ways.push(CWay {
                masks: w.masks.as_slice().into(),
                full_mask: w.masks.iter().all(|&m| m == !0u64),
                map,
            });
        }
        Self {
            key_fields: table.keys.iter().map(|k| k.field).collect(),
            ways,
            ranked,
            layout_probes,
            resolve: layout.resolve,
            default_action: table.default_action,
            entry_meta: layout.entry_meta.into_boxed_slice(),
            has_keys: !table.keys.is_empty(),
        }
    }

    /// Composes the match key into `scratch.values` (empty for keyless
    /// tables, mirroring the interpreter's early return).
    #[inline]
    pub(crate) fn compose_key(&self, packet: &Packet, scratch: &mut KeyScratch) {
        scratch.values.clear();
        if self.has_keys {
            scratch
                .values
                .extend(self.key_fields.iter().map(|&f| packet.get(f)));
        }
    }

    /// Whether a general lookup is worth remembering per key: the key is
    /// one `u64` and the layout's sweep more than one probe (a single-way
    /// exact table's miss path already is one). Said of the layout, not
    /// of the form, so a ranked table gets the region its ways would.
    pub(crate) fn memoisable(&self) -> bool {
        self.key_fields.len() == 1 && self.layout_probes >= 2
    }

    /// Resolves an already-composed key (`scratch.values`); mirrors
    /// the interpreter's lookup exactly, allocation-free. Apart from
    /// [`Self::compose_key`] so the specialization guard can compare the
    /// composed key against the baked hot key first and fall through to
    /// this exact general path on a miss — and so hot outcomes can be
    /// baked from a raw key with no synthetic packet.
    pub(crate) fn lookup_composed(&self, scratch: &mut KeyScratch) -> LookupOutcome {
        if !self.has_keys {
            return LookupOutcome {
                entry: None,
                action: self.default_action,
                probes: 0,
            };
        }
        if let Some(ranked) = &self.ranked {
            let (entry, action) = match ranked.first_match(&scratch.values) {
                Some((idx, action)) => (Some(idx), action),
                None => (None, self.default_action),
            };
            return LookupOutcome {
                entry,
                action,
                probes: self.layout_probes.max(1),
            };
        }
        let mut probes = 0usize;
        let mut best: Option<Hit> = None;
        for way in &self.ways {
            probes += 1;
            // Masking with all-ones is the identity, so exact ways hash
            // the composed key in place; single-field ways hash the raw
            // u64 without going through a slice at all.
            let found: Option<&[usize]> = match &way.map {
                CWayMap::U64(m) => match m.get(way.masked(scratch.values[0])) {
                    Some(&FlatVal::One { idx, action, prio }) => {
                        // Resolved at build time: no `entry_meta` read.
                        self.consider(
                            &mut best,
                            Hit {
                                idx: idx as usize,
                                action: action as usize,
                                prio,
                            },
                        );
                        Some(&[])
                    }
                    Some(FlatVal::Many(list)) => Some(list),
                    Some(FlatVal::Empty) | None => None,
                },
                CWayMap::Multi(m) => {
                    let key: &[u64] = if way.full_mask {
                        scratch.values.as_slice()
                    } else {
                        scratch.masked.clear();
                        scratch.masked.extend(
                            scratch
                                .values
                                .iter()
                                .zip(way.masks.iter())
                                .map(|(v, m)| v & m),
                        );
                        scratch.masked.as_slice()
                    };
                    m.get(key).map(CEntries::as_slice)
                }
            };
            if let Some(entries) = found {
                for &idx in entries {
                    self.consider(&mut best, self.hit(idx));
                }
                if !matches!(self.resolve, Resolve::Priority) && best.is_some() {
                    break;
                }
            }
        }
        match best {
            Some(h) => LookupOutcome {
                entry: Some(h.idx),
                action: h.action,
                probes,
            },
            None => LookupOutcome {
                entry: None,
                action: self.default_action,
                probes: probes.max(1),
            },
        }
    }

    /// The candidate for entry `idx`, resolved through `entry_meta`.
    #[inline]
    fn hit(&self, idx: usize) -> Hit {
        let (action, prio) = self.entry_meta[idx];
        Hit { idx, action, prio }
    }

    /// Folds one way hit into `best` under the table's resolution rule:
    /// priority tables keep the highest priority (lowest index on ties),
    /// exact and LPM tables keep the first hit.
    #[inline]
    fn consider(&self, best: &mut Option<Hit>, h: Hit) {
        let better = match *best {
            None => true,
            Some(b) => self.resolve == Resolve::Priority && h.outranks(b),
        };
        if better {
            *best = Some(h);
        }
    }
}

/// A matched entry with what resolving it needs, carried by value so the
/// winner's action is on hand without a second `entry_meta` read.
#[derive(Debug, Clone, Copy)]
struct Hit {
    idx: usize,
    action: usize,
    prio: i32,
}

impl Hit {
    /// Priority order: higher priority wins, lower entry index on ties.
    #[inline]
    fn outranks(self, other: Hit) -> bool {
        self.prio > other.prio || (self.prio == other.prio && self.idx < other.idx)
    }
}

/// Successor slots of a compiled table node.
#[derive(Debug, Clone)]
pub(crate) enum CNext {
    /// Unconditional successor.
    Always(u32),
    /// Per-action successor (indexed by resolved action).
    ByAction(Box<[u32]>),
}

/// The inline cache of one specialized table: the profile window's
/// dominant composed key with its fully pre-resolved lookup outcome.
/// The outcome is baked by running [`CompiledEngine::lookup_composed`]
/// on the hot key at specialization time, so a guard hit returns — by
/// construction — exactly what the general path would have returned
/// (entry, action, *and* probe count, which feeds latency accounting).
#[derive(Debug, Clone)]
pub(crate) struct CTableSpec {
    /// The composed key values the guard compares against.
    pub(crate) hot_key: SmallKey,
    /// The pre-resolved outcome for `hot_key`.
    pub(crate) hot_outcome: LookupOutcome,
    /// This table's region of the walk's [`LookupMemo`], if its guard
    /// misses are remembered ([`CompiledEngine::memoisable`]).
    pub(crate) memo_region: Option<u32>,
}

/// Slots per [`LookupMemo`] region. 256 × 32 B = 8 KB a table keeps a
/// pipeline's regions in L1/L2 beside the packets (`datapath_skewed`
/// read the same rate at 256 and 1,024). A property of cache
/// hierarchies, like [`LOOKAHEAD_MIN_BYTES`], hence not a knob.
pub(crate) const MEMO_SLOTS: usize = 256;

/// A [`LookupOutcome`] in 16 bytes.
#[derive(Debug, Clone, Copy)]
struct MemoOutcome {
    entry: Option<u32>,
    action: u32,
    probes: u32,
}

/// One remembered answer of [`CompiledEngine::lookup_composed`]. 32
/// bytes, 32-byte aligned, like a [`FlatSlot`]. An unfilled slot is
/// `outcome: None`, not a reserved key value: every `u64` is a key.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct MemoSlot {
    key: u64,
    outcome: Option<MemoOutcome>,
}

/// The miss path of the hot-key guard, remembered (DESIGN §17): per
/// memoised table a direct-mapped region of [`MEMO_SLOTS`] slots, filled
/// from and answering for [`CompiledEngine::lookup_composed`], which is
/// pure in the composed key over an engine nothing mutates. Owned by
/// the walk, so per shard: the pipeline is shared and never written on
/// the packet path.
///
/// Valid for one specialised lowering: whoever installs one calls
/// [`LookupMemo::reset`]. Nothing else changes a memoised table's
/// engine — an entry op on a specialised table re-lowers the whole
/// pipeline, and `recompile_node` is only reached for unguarded tables.
///
/// The slots are allocated by the first guard miss that probes them, so
/// a walk that never executes a packet (a sharded NIC's control
/// replica) holds none.
#[derive(Debug, Default)]
pub(crate) struct LookupMemo {
    slots: Vec<MemoSlot>,
}

impl LookupMemo {
    /// Forgets every outcome and the slots holding them.
    pub(crate) fn reset(&mut self) {
        self.slots = Vec::new();
    }

    /// Slots currently allocated.
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slot of a region `key` homes to: the top bits of its Fx hash,
    /// as in a [`FlatWay`].
    #[inline]
    pub(crate) fn home(key: u64) -> usize {
        (key.wrapping_mul(FX_SEED) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// A guard miss of the table that owns `region` of the `regions` the
    /// installed lowering assigned: its slot's answer, or the general
    /// lookup's, remembered (the first probe after a reset allocates the
    /// slots). Out of line so the walk's
    /// code barely differs for pipelines that never get here: inlined
    /// into `Provider::lookup`, this arm cost `control_loop` (guards, no
    /// region) 3–8 % through code shape alone.
    #[inline(never)]
    fn lookup(
        &mut self,
        regions: u32,
        region: u32,
        engine: &CompiledEngine,
        scratch: &mut KeyScratch,
        spec: &mut SpecStats,
    ) -> LookupOutcome {
        if self.slots.is_empty() {
            let empty = MemoSlot {
                key: 0,
                outcome: None,
            };
            self.slots = vec![empty; regions as usize * MEMO_SLOTS];
        }
        let key = scratch.values[0];
        let slot = &mut self.slots[region as usize * MEMO_SLOTS + Self::home(key)];
        if let Some(outcome) = slot.get(key) {
            spec.memo_hits += 1;
            return outcome;
        }
        let outcome = engine.lookup_composed(scratch);
        slot.put(key, outcome);
        outcome
    }
}

impl MemoSlot {
    /// The outcome remembered for `key`, if this slot holds it.
    #[inline]
    fn get(&self, key: u64) -> Option<LookupOutcome> {
        let o = self.outcome.filter(|_| self.key == key)?;
        Some(LookupOutcome {
            entry: o.entry.map(|e| e as usize),
            action: o.action as usize,
            probes: o.probes as usize,
        })
    }

    /// Remembers `outcome` for `key`, evicting what the slot held. An
    /// outcome too wide for the slot (no real table's) empties it.
    #[inline]
    fn put(&mut self, key: u64, outcome: LookupOutcome) {
        let narrow = |v: usize| u32::try_from(v).ok();
        let fits = || {
            Some(MemoOutcome {
                entry: match outcome.entry {
                    Some(e) => Some(narrow(e)?),
                    None => None,
                },
                action: narrow(outcome.action)?,
                probes: narrow(outcome.probes)?,
            })
        };
        self.key = key;
        self.outcome = fits();
    }
}

/// A compiled table node.
#[derive(Debug, Clone)]
pub(crate) struct CTable {
    /// The FxHash match engine (unused for flow-cache nodes).
    pub(crate) engine: CompiledEngine,
    /// Action index → pre-boxed primitive body.
    pub(crate) actions: Vec<Box<[Primitive]>>,
    /// Pre-resolved charged probes under a `Fixed` match model
    /// (`None` under `PerDistinctPattern`).
    pub(crate) charged_fixed: Option<f64>,
    /// `PerDistinctPattern` probe cap (unused under `Fixed`).
    pub(crate) pattern_cap: usize,
    /// Successor slots.
    pub(crate) next: CNext,
    /// Whether this node is a [`CacheRole::FlowCache`] switch node.
    pub(crate) is_flow_cache: bool,
    /// Hot-key inline cache installed by the specialization pass
    /// (`None` in the verbatim lowering). Boxed: the common case pays
    /// one `Option` discriminant, not 5 extra words per table.
    pub(crate) spec: Option<Box<CTableSpec>>,
}

impl CTable {
    /// The match and action latency terms one visit resolving to
    /// `outcome` adds, in the order the walk adds them.
    #[inline]
    pub(crate) fn charges(
        &self,
        outcome: &LookupOutcome,
        params: &CostParams,
        scale: f64,
    ) -> [f64; 2] {
        // Under a Fixed match model the charged probes follow the
        // model's multiplier (pre-resolved), not the realized way count.
        let charged = match self.charged_fixed {
            Some(f) => f,
            None => (outcome.probes.min(self.pattern_cap)) as f64,
        };
        [
            charged * params.l_mat * scale,
            self.actions[outcome.action].len() as f64 * params.l_act * scale,
        ]
    }

    /// The successor slot after executing `action`.
    #[inline]
    pub(crate) fn next_slot(&self, action: usize) -> u32 {
        match &self.next {
            CNext::Always(s) => *s,
            CNext::ByAction(v) => v[action],
        }
    }
}

/// A compiled node's executable shape.
#[derive(Debug, Clone)]
pub(crate) enum CStep {
    /// A branch: pre-counted comparisons and both successor slots.
    Branch {
        /// The condition to evaluate against the packet slots.
        condition: Condition,
        /// `num_comparisons().max(1)` pre-converted to `f64`.
        comparisons: f64,
        /// Successor slot when true.
        on_true: u32,
        /// Successor slot when false.
        on_false: u32,
    },
    /// A (possibly flow-cache) table.
    Table(Box<CTable>),
}

/// One node of the compiled program arena.
#[derive(Debug, Clone)]
pub(crate) struct CNode {
    /// The original graph node id (profiles/traces speak `NodeId`).
    pub(crate) id: NodeId,
    /// Pre-resolved placement.
    pub(crate) place: Placement,
    /// Pre-resolved placement cost scale (1.0 or `cpu_scale`).
    pub(crate) scale: f64,
    /// Executable shape.
    pub(crate) step: CStep,
}

/// A flat, index-addressed lowering of one deployed program.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPipeline {
    /// Node arena in graph iteration order.
    pub(crate) nodes: Vec<CNode>,
    /// `NodeId` index → arena slot ([`NO_SLOT`] for tombstones).
    pub(crate) slot_of: Vec<u32>,
    /// Entry slot ([`NO_SLOT`] for an empty program).
    pub(crate) root: u32,
    /// Fingerprint of the applied specialization plan (`0` = verbatim
    /// lowering). An entry op on a specialized table re-lowers the whole
    /// pipeline (`Executor::recompile_table`), so it reads `0` again and
    /// the next specialize step re-plans; no engine changes under a
    /// guard that survives.
    pub(crate) spec_fingerprint: u64,
    /// [`LookupMemo`] regions the applied plan assigned (`0` in the
    /// verbatim lowering).
    pub(crate) memo_regions: u32,
    /// The ways worth prefetching for a packet that has not started
    /// executing; see [`CompiledPipeline::derive_lookahead`]. Empty for
    /// every program whose tables are cache-sized.
    lookahead: Vec<LookaheadWay>,
}

/// A way's slot array is worth a look-ahead hint from this many bytes
/// up: the point past which it no longer sits in a core's L2 next to the
/// packets, the arena and the program's other tables, so a probe is a
/// last-level or DRAM access the hint can overlap with earlier packets'
/// work. Below it a probe hits L1/L2 and the hint would cost about what
/// it saves. A property of cache hierarchies in general (L2s are
/// 0.25-4 MB), not of a deployment, hence a constant and not a knob.
const LOOKAHEAD_MIN_BYTES: usize = 512 << 10;

/// One look-ahead target: way `way` of the table at arena slot `slot`,
/// with the table's one key field alongside.
#[derive(Debug, Clone, Copy)]
struct LookaheadWay {
    slot: u32,
    way: u32,
    field: FieldRef,
}

impl CompiledPipeline {
    /// Lowers a validated graph against its cost parameters and
    /// placement (both of which are baked into the compiled arena and
    /// invalidate it when they change).
    pub(crate) fn build(view: &GraphView) -> Self {
        let graph = &view.graph;
        let mut slot_of = vec![NO_SLOT; graph.id_bound()];
        let ids: Vec<NodeId> = graph.iter_nodes().map(|n| n.id).collect();
        for (slot, id) in ids.iter().enumerate() {
            slot_of[id.index()] = slot as u32;
        }
        let nodes = ids
            .iter()
            .map(|&id| compile_node(view, &slot_of, id))
            .collect();
        let root = graph.root().map_or(NO_SLOT, |r| slot_of[r.index()]);
        let mut cp = Self {
            nodes,
            slot_of,
            root,
            spec_fingerprint: 0,
            memo_regions: 0,
            lookahead: Vec::new(),
        };
        cp.derive_lookahead();
        cp
    }

    /// Recomputes the look-ahead list from the arena as it stands; called
    /// whenever a way changes (lowering, a node recompile — a
    /// specialization plan adds guards and leaves every way as it was).
    ///
    /// A way is listed when (1) it is single-field, so the slot it
    /// probes is a function of one packet field; (2) its slot array is
    /// at least [`LOOKAHEAD_MIN_BYTES`]; (3) its table is not a
    /// flow-cache switch (those never run their match engine); and (4)
    /// no action of any table that can execute *before* it writes its
    /// key field, so the field read from a packet still waiting in the
    /// burst is the value the lookup will see. (4) is what makes the
    /// hint useful, not what makes it safe: a hint computed from a
    /// stale field prefetches the wrong line and changes nothing.
    fn derive_lookahead(&mut self) {
        let mut list = Vec::new();
        let mut upstream_writes: Option<Vec<Vec<FieldRef>>> = None;
        for (slot, node) in self.nodes.iter().enumerate() {
            let CStep::Table(ct) = &node.step else {
                continue;
            };
            if ct.is_flow_cache || ct.engine.key_fields.len() != 1 {
                continue;
            }
            let field = ct.engine.key_fields[0];
            for (w, way) in ct.engine.ways.iter().enumerate() {
                if way.slot_bytes() < LOOKAHEAD_MIN_BYTES {
                    continue;
                }
                // The graph walk is only paid by programs that have a
                // big way at all.
                let writes = upstream_writes.get_or_insert_with(|| self.upstream_writes());
                if !writes[slot].contains(&field) {
                    list.push(LookaheadWay {
                        slot: slot as u32,
                        way: w as u32,
                        field,
                    });
                }
            }
        }
        self.lookahead = list;
    }

    /// Per arena slot, the fields written by actions of the tables that
    /// can execute before it: a fixpoint of "what my predecessors saw,
    /// plus what they write" pushed along every successor edge. (A
    /// flow-cache hit replays covered tables' actions and then jumps to
    /// its exit; those tables also precede the exit on the miss path, so
    /// the edge walk already charges their writes to it.)
    fn upstream_writes(&self) -> Vec<Vec<FieldRef>> {
        let own: Vec<Vec<FieldRef>> = self
            .nodes
            .iter()
            .map(|n| match &n.step {
                CStep::Branch { .. } => Vec::new(),
                CStep::Table(ct) => ct
                    .actions
                    .iter()
                    .flat_map(|a| a.iter())
                    .filter_map(Primitive::written_field)
                    .collect(),
            })
            .collect();
        let mut before: Vec<Vec<FieldRef>> = vec![Vec::new(); self.nodes.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (slot, node) in self.nodes.iter().enumerate() {
                let branch;
                let succs: &[u32] = match &node.step {
                    CStep::Branch {
                        on_true, on_false, ..
                    } => {
                        branch = [*on_true, *on_false];
                        &branch
                    }
                    CStep::Table(ct) => match &ct.next {
                        CNext::Always(s) => std::slice::from_ref(s),
                        CNext::ByAction(v) => v,
                    },
                };
                let passed_on: Vec<FieldRef> =
                    before[slot].iter().chain(&own[slot]).copied().collect();
                for &succ in succs.iter().filter(|&&s| s != NO_SLOT) {
                    for f in &passed_on {
                        if !before[succ as usize].contains(f) {
                            before[succ as usize].push(*f);
                            changed = true;
                        }
                    }
                }
            }
        }
        before
    }

    /// The look-ahead stage: for every listed way, reads the key field
    /// from `packet` as it stands and hints the cache with the slot the
    /// lookup will probe. No architectural effect — the scalar walk that
    /// follows is unchanged and computes every result on its own.
    #[inline(always)]
    pub(crate) fn prefetch_lookups(&self, packet: &Packet) {
        for la in &self.lookahead {
            if let CStep::Table(ct) = &self.nodes[la.slot as usize].step {
                ct.engine.ways[la.way as usize].prefetch(packet.get(la.field));
            }
        }
    }

    /// The tables with a way on the look-ahead list, ascending.
    #[cfg(test)]
    pub(crate) fn lookahead_tables(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .lookahead
            .iter()
            .map(|la| self.nodes[la.slot as usize].id)
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Recompiles a single node in place (entry insert/remove, table
    /// replacement). Returns `false` if the node has no slot, in which
    /// case the caller must fall back to a full recompile.
    pub(crate) fn recompile_node(&mut self, view: &GraphView, id: NodeId) -> bool {
        let slot = self.slot_of.get(id.index()).copied().unwrap_or(NO_SLOT);
        if slot == NO_SLOT || view.graph.node(id).is_none() {
            return false;
        }
        self.nodes[slot as usize] = compile_node(view, &self.slot_of, id);
        self.derive_lookahead();
        true
    }

    /// The arena slot of a node id ([`NO_SLOT`] if absent).
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> u32 {
        self.slot_of.get(id.index()).copied().unwrap_or(NO_SLOT)
    }

    /// Whether the table at `id` carries a hot-key guard.
    pub(crate) fn node_is_specialized(&self, id: NodeId) -> bool {
        match self.nodes.get(self.slot(id) as usize).map(|n| &n.step) {
            Some(CStep::Table(ct)) => ct.spec.is_some(),
            _ => false,
        }
    }

    /// Number of tables carrying a hot-key guard.
    pub(crate) fn specialized_tables(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| self.node_is_specialized(n.id))
            .count() as u64
    }
}

/// The compiled engine's [`Provider`]: cursors are arena slots
/// ([`NO_SLOT`] and anything else past the arena is the sink), a table
/// is its node (for the baked scales) with its [`CTable`], and every
/// answer is something lowering or specialization already resolved.
impl Provider for CompiledPipeline {
    type Handle = u32;
    type Node<'a> = &'a CNode;
    type Table<'a> = (&'a CNode, &'a CTable);

    #[inline]
    fn root(&self) -> u32 {
        self.root
    }

    #[inline]
    fn visit(&self, at: u32) -> Option<Visit<'_, Self>> {
        let node = self.nodes.get(at as usize)?;
        Some(Visit {
            id: node.id,
            place: node.place,
            scale: node.scale,
            node,
        })
    }

    #[inline]
    fn step<'a>(&'a self, node: &'a CNode) -> Step<'a, Self> {
        match &node.step {
            CStep::Branch {
                condition,
                comparisons,
                on_true,
                on_false,
            } => Step::Branch {
                condition,
                comparisons: *comparisons,
                on_true: *on_true,
                on_false: *on_false,
            },
            CStep::Table(ct) if ct.is_flow_cache => Step::FlowCache {
                table: (node, &**ct),
                default_action: ct.engine.default_action,
            },
            CStep::Table(ct) => Step::Table((node, &**ct)),
        }
    }

    /// Behind a hot-key guard the composed key is compared with the baked
    /// hot key first: a hit returns the pre-resolved outcome (identical —
    /// entry, action, probes — to what the general path computes for
    /// that key), a miss falls through to the unmodified general lookup
    /// — through the [`LookupMemo`], so once per key while its slot
    /// lasts, if the table has a region.
    #[inline]
    fn lookup(
        &self,
        (_, ct): Self::Table<'_>,
        packet: &Packet,
        scratch: &mut KeyScratch,
        spec: &mut SpecStats,
        memo: &mut LookupMemo,
    ) -> LookupOutcome {
        ct.engine.compose_key(packet, scratch);
        if let Some(sp) = &ct.spec {
            if same_key(&scratch.values, sp.hot_key.as_slice()) {
                spec.guard_hits += 1;
                return sp.hot_outcome;
            }
            spec.guard_misses += 1;
            if let Some(region) = sp.memo_region {
                return memo.lookup(self.memo_regions, region, &ct.engine, scratch, spec);
            }
        }
        ct.engine.lookup_composed(scratch)
    }

    #[inline]
    fn charges(
        &self,
        (_, ct): Self::Table<'_>,
        outcome: &LookupOutcome,
        params: &CostParams,
        scale: f64,
    ) -> [f64; 2] {
        ct.charges(outcome, params, scale)
    }

    #[inline]
    fn action<'a>(&'a self, (_, ct): Self::Table<'a>, action: usize) -> &'a [Primitive] {
        &ct.actions[action]
    }

    #[inline]
    fn next(&self, (_, ct): Self::Table<'_>, action: usize) -> u32 {
        ct.next_slot(action)
    }

    #[inline]
    fn cache_key(&self, (_, ct): Self::Table<'_>, packet: &Packet, scratch: &mut KeyScratch) {
        ct.engine.compose_key(packet, scratch);
    }

    #[inline]
    fn replayed(&self, table: NodeId, action: usize) -> &[Primitive] {
        match self.nodes.get(self.slot(table) as usize).map(|n| &n.step) {
            Some(CStep::Table(t)) => &t.actions[action],
            _ => &[],
        }
    }
}

fn compile_node(view: &GraphView, slot_of: &[u32], id: NodeId) -> CNode {
    let (params, placement) = (&view.params, &view.placement);
    let node = view.graph.node(id).expect("live node");
    let place = placement
        .get(id.index())
        .copied()
        .unwrap_or(Placement::Asic);
    let scale = match place {
        Placement::Asic => 1.0,
        Placement::Cpu => params.cpu_scale,
    };
    let to_slot = |t: Option<NodeId>| {
        t.map_or(NO_SLOT, |n| {
            slot_of.get(n.index()).copied().unwrap_or(NO_SLOT)
        })
    };
    let step = match (&node.kind, &node.next) {
        (NodeKind::Branch(b), NextHops::Branch { on_true, on_false }) => CStep::Branch {
            condition: b.condition.clone(),
            comparisons: b.condition.num_comparisons().max(1) as f64,
            on_true: to_slot(*on_true),
            on_false: to_slot(*on_false),
        },
        (NodeKind::Table(t), next) => {
            let engine = CompiledEngine::from_table(t);
            let actions: Vec<Box<[Primitive]>> = t
                .actions
                .iter()
                .map(|a| a.primitives.clone().into_boxed_slice())
                .collect();
            let (charged_fixed, pattern_cap) = match params.match_model {
                MatchCostModel::Fixed { .. } => (Some(params.memory_accesses(t)), usize::MAX),
                MatchCostModel::PerDistinctPattern { cap } => (None, cap),
            };
            let cnext = match next {
                NextHops::Always(tn) => CNext::Always(to_slot(*tn)),
                NextHops::ByAction(v) => CNext::ByAction(v.iter().map(|t| to_slot(*t)).collect()),
                NextHops::Branch { .. } => unreachable!("table with branch hops"),
            };
            CStep::Table(Box::new(CTable {
                engine,
                actions,
                charged_fixed,
                pattern_cap,
                next: cnext,
                is_flow_cache: t.cache_role == CacheRole::FlowCache,
                spec: None,
            }))
        }
        _ => unreachable!("validated graph: branch node with non-branch hops"),
    };
    CNode {
        id,
        place,
        scale,
        step,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use pipeleon_ir::{Action, MatchKey, MatchKind, TableEntry};

    fn packet(vals: &[u64]) -> Packet {
        Packet::with_slots(vals.to_vec())
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

    /// The compiled engine agrees with the interpreter engine on entry,
    /// action, and probe count for mixed ternary entries.
    #[test]
    fn compiled_engine_matches_interpreter_engine() {
        let mut entries = Vec::new();
        let mut x: u64 = 0xDEAD;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..40 {
            let v = next() % 32;
            let m = next() % 32;
            entries.push(TableEntry::with_priority(
                vec![MatchValue::Ternary { value: v, mask: m }],
                (i % 2) as usize,
                (next() % 8) as i32,
            ));
        }
        let t = table_with(MatchKind::Ternary, entries);
        assert_engines_agree(&t, (0..400).map(|_| vec![next() % 32]));
    }

    /// `t`'s compiled engine answers every probe as the interpreter's
    /// does: entry, action and probe count.
    pub(crate) fn assert_engines_agree(t: &Table, probes: impl Iterator<Item = Vec<u64>>) {
        let me = MatchEngine::build(t);
        let ce = CompiledEngine::from_table(t);
        let (mut s1, mut s2) = (KeyScratch::new(), KeyScratch::new());
        for vals in probes {
            let p = packet(&vals);
            ce.compose_key(&p, &mut s2);
            let want = me.lookup(t, &p, &mut s1);
            assert_eq!(ce.lookup_composed(&mut s2), want, "key {vals:x?}");
            assert_eq!(s1.values(), s2.values());
        }
    }

    /// A table is ranked exactly when it resolves by priority and every
    /// way of its layout holds one rule or it has range rules; no way is
    /// built for it, and it keeps the layout's probe count.
    #[test]
    fn ranked_form_is_one_rule_per_way_priority_tables_only() {
        let one_per_mask: Vec<TableEntry> = (0..16u64)
            .map(|m| {
                let (value, mask) = ((m + 1) << (20 + m), 0xFF << (20 + m));
                TableEntry::with_priority(vec![MatchValue::Ternary { value, mask }], 1, m as i32)
            })
            .collect();
        let t = table_with(MatchKind::Ternary, one_per_mask.clone());
        let ce = CompiledEngine::from_table(&t);
        assert!(ce.ranked.is_some() && ce.ways.is_empty());
        assert_eq!(ce.layout_probes, 16);
        assert!(ce.memoisable());

        // A key installed twice puts two rules in one way.
        let mut twice = one_per_mask;
        twice.push(twice[3].clone());
        let ce = CompiledEngine::from_table(&table_with(MatchKind::Ternary, twice));
        assert!(ce.ranked.is_none());
        assert_eq!((ce.ways.len(), ce.layout_probes), (16, 16));

        // Range rules are all on the scan list, the same range twice too.
        let ranges = vec![
            TableEntry::with_priority(vec![MatchValue::Range { lo: 10, hi: 20 }], 1, 1),
            TableEntry::with_priority(vec![MatchValue::Range { lo: 15, hi: 30 }], 1, 1),
            TableEntry::with_priority(vec![MatchValue::Range { lo: 15, hi: 30 }], 0, 1),
        ];
        let ce = CompiledEngine::from_table(&table_with(MatchKind::Range, ranges));
        assert!(ce.ranked.is_some());
        assert_eq!(ce.layout_probes, 1);
        assert!(!ce.memoisable());

        // Exact and LPM tables stop at their first hit already.
        let exact = vec![TableEntry::new(vec![MatchValue::Exact(4)], 1)];
        let lpm = vec![TableEntry::new(
            vec![MatchValue::Lpm {
                value: 1 << 63,
                prefix_len: 1,
            }],
            1,
        )];
        for (kind, entries) in [(MatchKind::Exact, exact), (MatchKind::Lpm, lpm)] {
            let ce = CompiledEngine::from_table(&table_with(kind, entries));
            assert!(ce.ranked.is_none() && ce.ways.len() == 1, "{kind:?}");
        }
    }

    /// Ranked lookups against the interpreter on one-rule-per-way tables
    /// of every key shape: ternary (ties, a mask-0 catch-all), ranges
    /// beside ternary masks, and four keys (exact, ternary, LPM, range).
    #[test]
    fn ranked_lookups_match_the_interpreter_engine() {
        let mut x: u64 = 0xBEEF;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let kinds = [
            vec![MatchKind::Ternary],
            vec![MatchKind::Ternary, MatchKind::Range],
            vec![
                MatchKind::Exact,
                MatchKind::Ternary,
                MatchKind::Lpm,
                MatchKind::Range,
            ],
        ];
        for (shape, kinds) in kinds.iter().enumerate() {
            for round in 0..8 {
                let mut t = table_with(MatchKind::Ternary, Vec::new());
                t.keys = kinds
                    .iter()
                    .enumerate()
                    .map(|(f, &kind)| MatchKey {
                        field: FieldRef(f as u16),
                        kind,
                    })
                    .collect();
                // Distinct ternary masks: one rule a way even with no
                // range key to put every rule on the scan list.
                let mut masks: Vec<u64> = (1..64).collect();
                for i in 0..2 + round * 3 {
                    let mask = masks.swap_remove(next() as usize % masks.len());
                    let prio = (next() % 3) as i32;
                    let matches = kinds.iter().map(|kind| match kind {
                        MatchKind::Exact => MatchValue::Exact(next() % 4),
                        MatchKind::Ternary => MatchValue::Ternary {
                            value: next() % 64,
                            mask: if i == 0 { 0 } else { mask },
                        },
                        MatchKind::Lpm => MatchValue::Lpm {
                            value: (next() % 4) << 62,
                            prefix_len: (next() % 3) as u8,
                        },
                        MatchKind::Range => {
                            let lo = next() % 64;
                            MatchValue::Range {
                                lo,
                                hi: lo + next() % 32,
                            }
                        }
                    });
                    t.entries
                        .push(TableEntry::with_priority(matches.collect(), 1, prio));
                }
                t.validate().unwrap();
                assert!(CompiledEngine::from_table(&t).ranked.is_some(), "{shape}");
                let probes = (0..300).map(|_| {
                    let mut vals: Vec<u64> = kinds.iter().map(|_| next() % 64).collect();
                    if let Some(i) = kinds.iter().position(|&k| k == MatchKind::Lpm) {
                        vals[i] = ((next() % 4) << 62) | (next() % 8);
                    }
                    if let Some(i) = kinds.iter().position(|&k| k == MatchKind::Exact) {
                        vals[i] %= 5;
                    }
                    vals
                });
                assert_engines_agree(&t, probes);
            }
        }
    }

    #[test]
    fn fx_of_one_word_is_one_multiply() {
        for k in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(k.wrapping_mul(FX_SEED), fxhash::hash64(&k));
        }
    }

    #[test]
    fn flat_slot_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<FlatSlot>(), 32);
        assert_eq!(std::mem::align_of::<FlatSlot>(), 32);
    }

    /// Builds a way over `keys` (key `k` → entry list `[i]`, or `[i, i+1]`
    /// for every third key) and checks every key, and a few absent ones.
    fn check_flat(keys: &[u64]) {
        let meta: Vec<(usize, i32)> = (0..keys.len() + 1).map(|i| (i % 5, i as i32)).collect();
        let lists: Vec<Vec<usize>> = (0..keys.len())
            .map(|i| if i % 3 == 2 { vec![i, i + 1] } else { vec![i] })
            .collect();
        // Every key's first entry, then the second ones: a list is
        // completed after other keys have been stored.
        let pairs: Vec<(u64, usize)> = (0..2)
            .flat_map(|j| {
                let listed = keys.iter().zip(&lists);
                listed.filter_map(move |(&k, l)| Some((k, *l.get(j)?)))
            })
            .collect();
        let way = FlatWay::build(pairs.iter().copied(), &meta);
        assert!(way.slots.len().is_power_of_two() && way.slots.len() >= 2);
        assert!(
            pairs.len() * 8 <= way.slots.len() * 7,
            "load above 7/8: {} entries in {} slots",
            pairs.len(),
            way.slots.len()
        );
        for (i, &k) in keys.iter().enumerate() {
            match way.get(k) {
                Some(&FlatVal::One { idx, action, prio }) => {
                    assert_eq!(lists[i], [idx as usize]);
                    assert_eq!((action as usize, prio), meta[i]);
                }
                Some(FlatVal::Many(l)) => assert_eq!(&**l, lists[i].as_slice()),
                other => panic!("key {k:#x} not found: {other:?}"),
            }
        }
        for absent in [0u64, 1, u64::MAX, u64::MAX - 1, 0x1234_5678_9ABC] {
            if !keys.contains(&absent) {
                assert!(way.get(absent).is_none(), "phantom hit for {absent:#x}");
            }
        }
        let mut seen: Vec<u64> = way.keys().collect();
        seen.sort_unstable();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    /// No key value is reserved: `0` and `u64::MAX` store and miss like
    /// any other, alone and together, in the smallest (2-slot) way.
    #[test]
    fn flat_way_has_no_in_band_sentinel() {
        check_flat(&[]);
        check_flat(&[0]);
        check_flat(&[u64::MAX]);
        check_flat(&[0, u64::MAX]);
        check_flat(&[u64::MAX, 0, 1, u64::MAX - 1]);
    }

    /// Every key homes to slot 0 of its way (multiples of 2^k times the
    /// multiplier's inverse hash into the low bits only), so the whole
    /// set is one probe run that wraps; and 7·2^k keys fill a way to
    /// exactly its 7/8 load limit.
    #[test]
    fn flat_way_survives_one_probe_run_and_the_load_limit() {
        // inv * FX_SEED == 1 (mod 2^64): key i*inv hashes to i, whose
        // top bits are zero for small i — all home to slot 0.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(FX_SEED), 1);
        let clustered: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(inv)).collect();
        check_flat(&clustered);
        for n in [7usize, 14, 28, 56, 7 * 64, 7 * 1024] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            check_flat(&keys);
            let way = FlatWay::build(keys.iter().map(|&k| (k, 0)), &[(0, 0)]);
            assert_eq!(way.slots.len() * 7, n * 8, "exactly at the limit");
        }
    }

    /// Lowering assigns dense slots and resolves the root.
    #[test]
    fn build_assigns_dense_slots() {
        use pipeleon_ir::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let x = b.field("x");
        let t1 = b.table("t1").key(x, MatchKind::Exact).finish();
        b.set_next(t1, None);
        let g = b.seal(t1).unwrap();
        let params = CostParams::bluefield2();
        let cp = CompiledPipeline::build(&GraphView::new(g.clone(), params));
        assert_eq!(cp.nodes.len(), g.num_nodes());
        assert_ne!(cp.root, NO_SLOT);
        assert_eq!(cp.nodes[cp.slot(t1) as usize].id, t1);
    }
}
