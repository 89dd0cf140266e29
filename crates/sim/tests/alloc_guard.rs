//! Allocation-regression guard for the datapath.
//!
//! The executor's contract is *zero steady-state heap allocations per
//! packet*, under either engine: after the pipeline is compiled and
//! caches/scratch are warm, processing a packet must not touch the
//! allocator — not for match keys, not for masked-key scratch, not for
//! action bodies, not for flow-cache hits. This test installs a counting
//! global allocator and pins that contract; any future per-packet
//! `Vec`/`Box`/`String` sneaking into the hot path fails here with an
//! exact allocation count.
//!
//! The batch path's one allocation is the report `Vec` it returns; the
//! look-ahead stage it runs over programs with DRAM-sized tables adds
//! none. A steady-state `measure` window — the streamed accounting and
//! its p99 selection, on the single NIC and through a one-worker run-loop —
//! allocates nothing either, with instrumentation off or on, nor on a
//! specialised pipeline whose guard misses go through the lookup memo
//! (allocated by the first guard miss after the plan is applied); an
//! instrumented cycle's
//! `take_profile` allocates what it hands away. Off the packet path, a
//! compiled deploy (lowering, an entry insert) makes no allocation per
//! entry: a 16× bigger table adds only `Vec` growth steps; a ternary
//! table of one rule per mask is pinned too, lowered to ranked rules.
//!
//! Deliberately a single `#[test]` in its own integration-test binary:
//! the allocation counter is process-global, so concurrently running
//! tests would pollute the measurement.

use pipeleon_cost::CostParams;
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_sim::{ControlOp, EngineMode, Executor, NicBackend, Packet, ShardedNic, SmartNic};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Exact + LPM + multi-way ternary chain: every lookup shape the compiled
/// engine supports. (The sim crate cannot depend on the workloads
/// synthesizer — that would be a dependency cycle — so the program is
/// built inline.)
fn mixed_program() -> ProgramGraph {
    let mut b = ProgramBuilder::new();
    let a = b.field("a");
    let c = b.field("c");
    let d = b.field("d");
    let out = b.field("out");
    let mut exact = b
        .table("exact")
        .key(a, MatchKind::Exact)
        .action("mark", vec![Primitive::set(out, 1)])
        .action_nop("pass")
        .default_action(1);
    for k in 0..16u64 {
        exact = exact.entry(TableEntry::new(vec![MatchValue::Exact(k)], 0));
    }
    let exact = exact.finish();
    let mut lpm = b
        .table("lpm")
        .key(c, MatchKind::Lpm)
        .action("mark", vec![Primitive::set(out, 2)])
        .action_nop("pass")
        .default_action(1);
    for p in [8u8, 4, 0] {
        lpm = lpm.entry(TableEntry::new(
            vec![MatchValue::Lpm {
                value: 0,
                prefix_len: p,
            }],
            0,
        ));
    }
    let lpm = lpm.finish();
    let tern = b
        .table("ternary")
        .key(d, MatchKind::Ternary)
        .action("mark", vec![Primitive::set(out, 3)])
        .action_nop("pass")
        .default_action(1)
        .entry(TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 0,
                mask: 0x7,
            }],
            0,
            2,
        ))
        .entry(TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 1,
                mask: 0x1,
            }],
            0,
            1,
        ))
        .finish();
    let _ = (lpm, tern);
    b.seal(exact).unwrap()
}

/// One exact table with an entry for every key in `0..entries`.
fn exact_table_program(entries: u64) -> ProgramGraph {
    let mut b = ProgramBuilder::new();
    let a = b.field("a");
    let out = b.field("out");
    let mut big = b
        .table("big")
        .key(a, MatchKind::Exact)
        .action("mark", vec![Primitive::set(out, 1)])
        .action_nop("pass")
        .default_action(1);
    for k in 0..entries {
        big = big.entry(TableEntry::new(vec![MatchValue::Exact(k)], 0));
    }
    let big = big.finish();
    b.seal(big).unwrap()
}

/// Flow-cache program: cache -> [hit: sink, miss: heavy -> sink].
fn cached_program() -> ProgramGraph {
    let mut b = ProgramBuilder::new();
    let x = b.field("x");
    let y = b.field("y");
    let heavy = b
        .table("heavy")
        .key(x, MatchKind::Ternary)
        .action("mark", vec![Primitive::set(y, 1)])
        .default_action(0)
        .entry(TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 0,
                mask: 0xF,
            }],
            0,
            1,
        ))
        .finish();
    b.set_next(heavy, None);
    let cache = b
        .table("cache")
        .key(x, MatchKind::Exact)
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(64)
        .by_action(vec![None, Some(heavy)])
        .finish();
    b.seal(cache).unwrap()
}

/// What one instrumented `measure` + `take_profile` cycle may allocate:
/// the maps of the profile it returns, of the copy the NIC retains for
/// `specialize`, and the sketch map — all in the `take_profile` half.
/// Measured 5 on the single NIC and 8 through a one-worker run-loop
/// (whose merge builds one more profile). At the parent commit the same
/// cycle allocated 34+5 and 34+12: `take_profile` gave away the
/// distinct-key sets, the live profile's maps and the sketch list, and
/// the next window regrew them all from empty.
const CYCLE_ALLOCS: u64 = 8;

#[test]
fn compiled_steady_state_is_allocation_free() {
    let params = CostParams::bluefield2();

    // --- Mixed match-kind chain -------------------------------------
    let mut ex = Executor::new(mixed_program(), params.clone(), EngineMode::Compiled).unwrap();
    let mut packets: Vec<Packet> = (0..256u64)
        .map(|i| Packet::with_slots(vec![i % 32, i % 11, (i * 3) % 8, 0]))
        .collect();
    // Warm-up: first packet compiles the pipeline and grows scratch.
    for p in packets.iter_mut() {
        ex.process(p);
    }
    let compiled_allocs = count_allocs(|| {
        for p in packets.iter_mut() {
            ex.process(p);
        }
    });
    assert_eq!(
        compiled_allocs,
        0,
        "compiled engine allocated {compiled_allocs} times over {} steady-state packets",
        packets.len()
    );

    // --- Flow-cache hits (probe + LRU bump + action replay) ----------
    let mut ex = Executor::new(cached_program(), params.clone(), EngineMode::Compiled).unwrap();
    let mut packets: Vec<Packet> = (0..256u64)
        .map(|i| Packet::with_slots(vec![i % 48, 0]))
        .collect();
    // Warm-up installs all 48 flows (capacity 64), so the measured pass
    // is pure hit-path: probe, replay, recency update.
    for p in packets.iter_mut() {
        ex.process(p);
    }
    let hit_allocs = count_allocs(|| {
        for p in packets.iter_mut() {
            ex.process(p);
        }
    });
    assert_eq!(
        hit_allocs,
        0,
        "flow-cache hit path allocated {hit_allocs} times over {} packets",
        packets.len()
    );

    // --- State at scale: the look-ahead stage --------------------------
    // A 65,536-entry exact table is past the look-ahead size gate, so
    // `process_batch` hints its slots a few packets ahead. The stage is
    // a field read, a multiply and a prefetch: a burst still allocates
    // exactly its report `Vec` and nothing else.
    let mut ex = Executor::new(
        exact_table_program(65_536),
        params.clone(),
        EngineMode::Compiled,
    )
    .unwrap();
    let mut packets: Vec<Packet> = (0..256u64)
        .map(|i| Packet::with_slots(vec![(i * 7919) % 70_000, 0]))
        .collect();
    ex.process_batch(&mut packets);
    const BURSTS: u64 = 16;
    let batch_allocs = count_allocs(|| {
        for _ in 0..BURSTS {
            let reports = ex.process_batch(&mut packets);
            assert_eq!(reports.len(), packets.len());
        }
    });
    assert_eq!(
        batch_allocs, BURSTS,
        "process_batch over a look-ahead program allocated {batch_allocs} times in {BURSTS} \
         bursts; the report Vec is the one allocation a burst makes"
    );

    // --- Measurement windows ------------------------------------------
    // `measure` consumes its packets, so the windows are cloned outside
    // the counted region. The window accumulators live on the NIC and
    // its shards and are sized by the warm-up windows; the p99 selection is
    // in place.
    const WINDOW: usize = 4096;
    let window: Vec<Packet> = (0..WINDOW as u64)
        .map(|i| Packet::with_slots(vec![i % 32, i % 11, (i * 3) % 8, 0]))
        .collect();
    let mut single = SmartNic::new(mixed_program(), params.clone()).unwrap();
    let mut sharded = ShardedNic::new(mixed_program(), params.clone(), 1).unwrap();
    for _ in 0..2 {
        single.measure(window.clone());
        sharded.measure(window.clone());
    }
    let mut work = [window.clone(), window.clone()].into_iter();
    let mut stats = Vec::with_capacity(6);
    let single_allocs = count_allocs(|| stats.push(single.measure(work.next().unwrap())));
    let sharded_allocs = count_allocs(|| stats.push(sharded.measure(work.next().unwrap())));
    assert_eq!(stats[0].packets, WINDOW as u64);
    assert_eq!(stats[1].packets, WINDOW as u64);
    assert_eq!(
        single_allocs, 0,
        "a steady-state SmartNic::measure window allocated {single_allocs} times"
    );
    assert_eq!(
        sharded_allocs, 0,
        "a steady-state one-worker run-loop measure window allocated {sharded_allocs} times"
    );

    // --- Specialised pipeline, cold keys: the lookup memo ----------------
    // A profile window dominated by one flow earns every table a guard;
    // the LPM and ternary tables (several ways each) also get a memo
    // region, sized by the first guard miss (the warm-up windows below).
    // Traffic that misses the guards then probes, fills and evicts memo
    // slots — all in place.
    let skewed = |hot_of_8: u64| -> Vec<Packet> {
        let pkt = |i: u64| match i % 8 < hot_of_8 {
            true => Packet::with_slots(vec![1, 5, 3, 0]),
            false => Packet::with_slots(vec![i % 32, i % 1021, (i * 13) % 1013, 0]),
        };
        (0..WINDOW as u64).map(pkt).collect()
    };
    let (profile_window, cold) = (skewed(7), skewed(1));
    let mut guarded = SmartNic::new(mixed_program(), params.clone()).unwrap();
    let mut guarded_rl = ShardedNic::new(mixed_program(), params.clone(), 1).unwrap();
    guarded.set_instrumentation(true, 1);
    guarded_rl.set_instrumentation(true, 1);
    guarded.measure(profile_window.clone());
    guarded_rl.measure(profile_window);
    assert!(guarded.specialize() && guarded_rl.specialize());
    guarded.set_instrumentation(false, 1);
    guarded_rl.set_instrumentation(false, 1);
    for _ in 0..2 {
        guarded.measure(cold.clone());
        guarded_rl.measure(cold.clone());
    }
    let before = (guarded.spec_stats(), guarded_rl.spec_stats());
    let mut work = [cold.clone(), cold].into_iter();
    let single_allocs = count_allocs(|| stats.push(guarded.measure(work.next().unwrap())));
    let sharded_allocs = count_allocs(|| stats.push(guarded_rl.measure(work.next().unwrap())));
    for (before, after) in [
        (before.0, guarded.spec_stats()),
        (before.1, guarded_rl.spec_stats()),
    ] {
        let hits = after.memo_hits - before.memo_hits;
        let misses = after.guard_misses - before.guard_misses;
        assert!(
            hits > 0 && hits < misses,
            "cold keys must hit and miss the memo: {hits} hits of {misses} guard misses"
        );
    }
    assert_eq!(
        (single_allocs, sharded_allocs),
        (0, 0),
        "a steady-state measure window over memoised guard misses allocated"
    );

    // --- Instrumented cycles: measure + take_profile --------------------
    // What the controller runs: 1-in-64 sampling, a window, a profile
    // take. Every packet notes its key at every table (~1,000 distinct
    // keys a table here), one in 64 updates counters, histograms and
    // hot-key sketches. After two warm-up cycles the trackers, the live
    // profile's maps and the sketch list all hold their capacity, so the
    // `measure` half allocates nothing; `take_profile` allocates only
    // what it hands away — the profile's own maps, the copy retained for
    // `specialize`, the sketch map.
    let watched: Vec<Packet> = (0..WINDOW as u64)
        .map(|i| Packet::with_slots(vec![i % 1021, (i * 7) % 1019, (i * 13) % 1013, 0]))
        .collect();
    single.set_instrumentation(true, 64);
    sharded.set_instrumentation(true, 64);
    for _ in 0..2 {
        single.measure(watched.clone());
        single.take_profile();
        sharded.measure(watched.clone());
        sharded.take_profile();
    }
    let mut work = [watched.clone(), watched.clone()].into_iter();
    let single_measure = count_allocs(|| stats.push(single.measure(work.next().unwrap())));
    let mut profiles = Vec::with_capacity(2);
    let single_take = count_allocs(|| profiles.push(single.take_profile()));
    let sharded_measure = count_allocs(|| stats.push(sharded.measure(work.next().unwrap())));
    let sharded_take = count_allocs(|| profiles.push(sharded.take_profile()));
    eprintln!(
        "instrumented cycle allocations: single {single_measure}+{single_take}, \
         one-worker run-loop {sharded_measure}+{sharded_take}"
    );
    for p in &profiles {
        assert_eq!(p.distinct_keys.len(), 3);
        assert!(p.distinct_keys.values().all(|&n| n > 1_000), "{p:?}");
    }
    assert_eq!(
        (single_measure, sharded_measure),
        (0, 0),
        "a steady-state instrumented measure window allocated"
    );
    assert!(
        single_take <= CYCLE_ALLOCS && sharded_take <= CYCLE_ALLOCS,
        "take_profile allocated {single_take} (single) / {sharded_take} (run-loop), \
         over the {CYCLE_ALLOCS} its returned maps account for"
    );

    // --- A deploy, built once -------------------------------------------
    // A compiled NIC on one exact table: `new`, the first burst (which
    // lowers the program), one entry insert (which re-lowers the table)
    // and the next burst. No interpreter engine is built, and the flat
    // way is filled straight from the table's layout: the two table
    // sizes differ by the growth steps of the layout's `Vec`s, not by
    // an allocation per entry. (At the parent commit every build made an
    // interpreter engine, a boxed key and an entry list per entry, and
    // the compiled one converted one more: 4,096 and 65,536 entries
    // differed by over 400,000 allocations.) The first burst also
    // sizes the walk cache: its tags and its records, two allocations
    // made once.
    let deploy_allocs = |entries: u64| {
        let mut parts = Some((
            exact_table_program(entries),
            params.clone(),
            TableEntry::new(vec![MatchValue::Exact(entries)], 0),
        ));
        let mut burst: Vec<Packet> = (0..256u64)
            .map(|i| Packet::with_slots(vec![i * 7919 % (entries + 1), 0]))
            .collect();
        count_allocs(|| {
            let (graph, params, entry) = parts.take().unwrap();
            let node = graph.root().unwrap();
            let mut nic = SmartNic::new(graph, params).unwrap();
            nic.process_batch(&mut burst);
            nic.apply(ControlOp::InsertEntry { node, entry }).unwrap();
            nic.process_batch(&mut burst);
        })
    };
    let (small, big) = (deploy_allocs(4_096), deploy_allocs(65_536));
    eprintln!("deploy allocations: {small} at 4,096 entries, {big} at 65,536");
    assert_eq!(
        (small, big),
        (69, 87),
        "a compiled deploy's allocations moved"
    );
    assert!(
        big - small <= 32,
        "a compiled deploy allocates per entry: {small} at 4,096 entries, {big} at 65,536"
    );

    // The same for one ternary table with a rule under each of 16 masks
    // (`datapath_uniform`'s classifier shape), which the compiled engine
    // checks in rank order: no flat way is built for it, only the
    // layout, the rule tests and the rank-ordered rule list (172
    // allocations when it was lowered to 16, then 17, flat ways).
    let ranked_allocs = {
        let mut b = ProgramBuilder::new();
        let a = b.field("a");
        let mut t = b
            .table("classify")
            .key(a, MatchKind::Ternary)
            .action_nop("mark")
            .action_nop("miss")
            .default_action(1);
        for m in 0..16u64 {
            let (value, mask) = ((m + 1) << (20 + m), 0xFF << (20 + m));
            let rule = vec![MatchValue::Ternary { value, mask }];
            t = t.entry(TableEntry::with_priority(rule, 0, m as i32));
        }
        let t = t.finish();
        let mut parts = Some((b.seal(t).unwrap(), params.clone()));
        let fresh = vec![MatchValue::Ternary {
            value: 0x5,
            mask: 0xF,
        }];
        let mut fresh = Some(TableEntry::with_priority(fresh, 0, 99));
        let mut burst: Vec<Packet> = (0..256u64)
            .map(|i| Packet::with_slots(vec![i << 16]))
            .collect();
        count_allocs(|| {
            let (graph, params) = parts.take().unwrap();
            let node = graph.root().unwrap();
            let mut nic = SmartNic::new(graph, params).unwrap();
            nic.process_batch(&mut burst);
            let entry = fresh.take().unwrap();
            nic.apply(ControlOp::InsertEntry { node, entry }).unwrap();
            nic.process_batch(&mut burst);
        })
    };
    eprintln!("ranked deploy allocations: {ranked_allocs}");
    assert_eq!(
        ranked_allocs, 111,
        "a compiled deploy of a rank-ordered table's allocations moved"
    );

    // --- The interpreter ------------------------------------------------
    // The same walk over the graph view: action bodies are borrowed from
    // the graph and flow-cache keys composed into the shared scratch, so
    // it allocates nothing either. (At the parent commit, with its own
    // walk that cloned each action body and keyed lookups by `Vec<u64>`,
    // these 256 packets allocated 544 times.)
    let mut ex = Executor::new(mixed_program(), params, EngineMode::Interpreter).unwrap();
    let mut packets: Vec<Packet> = (0..256u64)
        .map(|i| Packet::with_slots(vec![i % 32, i % 11, (i * 3) % 8, 0]))
        .collect();
    for p in packets.iter_mut() {
        ex.process(p);
    }
    let interp_allocs = count_allocs(|| {
        for p in packets.iter_mut() {
            ex.process(p);
        }
    });
    assert_eq!(
        interp_allocs,
        0,
        "interpreter allocated {interp_allocs} times over {} steady-state packets",
        packets.len()
    );
}
