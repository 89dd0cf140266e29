//! Model-checked verification of the lock-free datapath.
//!
//! Build with `RUSTFLAGS="--cfg pipeleon_check"`; in ordinary builds
//! this file compiles to nothing. Under the cfg, [`pipeleon_sim::ring`]
//! and the generation chain import their atomics/cells through the
//! `crate::sync` facade, which resolves to `pipeleon-check`'s tracked
//! shims — so these tests explore interleavings of the *actual datapath
//! sources*, not a parallel model that could drift.
//!
//! Two suites:
//!
//! 1. **Protocol proofs** — the DESIGN.md §15 prose claims, checked over
//!    every schedule within the preemption bound: the SPSC ring loses,
//!    duplicates and reorders nothing, never reads an uninitialized or
//!    in-flight slot (including across wraparound and under burst ops),
//!    and drops exactly the unpopped items; the generation chain adopts
//!    forward-only, never reclaims a reachable node, and every adopter
//!    sees the full pending span its `latest` read promised.
//! 2. **Mutant kills** — every seeded weakening of the ring's memory
//!    orderings ([`ring::RingOrderings`]) must produce a counterexample.
//!    If the checker cannot kill a mutant, the protocol proofs above are
//!    vacuous; this suite is what makes them falsifiable.

#![cfg(pipeleon_check)]

use pipeleon_check as check;
use pipeleon_sim::generation::GenChain;
use pipeleon_sim::ring::{self, RingOrderings};
use pipeleon_sim::ControlOp;

use check::sync::atomic::{AtomicU64, Ordering};
use check::{model, model_expect_failure, Config};
use pipeleon_ir::{MatchValue, NodeId, TableEntry};
use std::sync::atomic::AtomicUsize as StdAtomicUsize;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::Arc;

/// The interleaving floor the acceptance criteria demand from each
/// headline ring/GenChain proof: the configuration must drive the
/// checker through at least this many *distinct* schedules.
const MIN_INTERLEAVINGS: u64 = 10_000;

fn patch(v: u64) -> ControlOp {
    ControlOp::InsertEntry {
        node: NodeId(0),
        entry: TableEntry::new(vec![MatchValue::Exact(v)], 0),
    }
}

// ---------------------------------------------------------------------
// Suite 1: protocol proofs.
// ---------------------------------------------------------------------

/// The headline SPSC proof: capacity-2 ring, eight items pushed through
/// it (so the buffer wraps four times and both retry paths trigger), a real
/// producer thread against the root-thread consumer. Every schedule must
/// deliver all items exactly once, in order, with no race / uninit /
/// use-after-free diagnostics from the tracked cells.
#[test]
fn ring_delivers_every_item_exactly_once_in_order() {
    let report = model!(Config::exhaustive(3), || {
        const ITEMS: u64 = 8;
        let (mut p, mut c) = ring::spsc::<u64>(2);
        let t = check::thread::spawn(move || {
            let mut next = 0u64;
            while next < ITEMS {
                match p.push(next) {
                    Ok(()) => next += 1,
                    Err(_) => check::thread::yield_now(),
                }
            }
        });
        let mut expect = 0u64;
        while expect < ITEMS {
            match c.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "lost/duplicated/reordered item");
                    expect += 1;
                }
                None => check::thread::yield_now(),
            }
        }
        t.join().unwrap();
        assert_eq!(c.pop(), None, "extra item materialized");
    });
    assert!(report.complete, "exploration must exhaust the bound");
    assert!(
        report.executions >= MIN_INTERLEAVINGS,
        "expected >= {MIN_INTERLEAVINGS} distinct interleavings, got {}",
        report.executions
    );
}

/// Burst variant of the same proof: the producer publishes runs with a
/// single Release store and the consumer drains with `pop_burst`. The
/// one-publication-covers-the-run claim is exactly what a torn burst
/// would violate.
#[test]
fn ring_burst_ops_preserve_fifo_under_all_schedules() {
    let report = model!(Config::exhaustive(4), || {
        const ITEMS: u64 = 8;
        let (mut p, mut c) = ring::spsc::<u64>(2);
        let t = check::thread::spawn(move || {
            let mut src = (0..ITEMS).peekable();
            while src.peek().is_some() {
                if p.push_burst(&mut src) == 0 {
                    check::thread::yield_now();
                }
            }
        });
        let mut got = Vec::new();
        let mut burst = Vec::with_capacity(4);
        while (got.len() as u64) < ITEMS {
            if c.pop_burst(&mut burst, 4) == 0 {
                check::thread::yield_now();
                continue;
            }
            got.append(&mut burst);
        }
        assert_eq!(got, (0..ITEMS).collect::<Vec<_>>(), "burst tore the FIFO");
        t.join().unwrap();
    });
    assert!(report.complete);
    assert!(
        report.executions >= MIN_INTERLEAVINGS,
        "expected >= {MIN_INTERLEAVINGS} distinct interleavings, got {}",
        report.executions
    );
}

/// Drop correctness across wraparound: push five payloads through a
/// capacity-2 ring, pop only three, then drop both endpoints. Exactly
/// the two unpopped payloads must be dropped by the ring (each exactly
/// once — a double drop would double-count), and the three popped ones
/// by the consumer, under every schedule.
#[test]
fn ring_drops_exactly_the_unpopped_items_across_wraparound() {
    struct Counted(&'static StdAtomicUsize);
    impl Drop for Counted {
        fn drop(&mut self) {
            // Untracked std atomic on purpose: drop bookkeeping is test
            // instrumentation, not protocol state under check.
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }
    static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);

    let report = model!(Config::exhaustive(2), || {
        DROPS.store(0, StdOrdering::SeqCst);
        const ITEMS: usize = 5;
        const POPPED: usize = 3;
        let (mut p, mut c) = ring::spsc::<Counted>(2);
        let t = check::thread::spawn(move || {
            let mut next = 0;
            while next < ITEMS {
                match p.push(Counted(&DROPS)) {
                    Ok(()) => next += 1,
                    Err(v) => {
                        // Returned item must not be dropped by the ring;
                        // forget it so the count stays attributable.
                        std::mem::forget(v);
                        check::thread::yield_now();
                    }
                }
            }
        });
        let mut got = 0;
        while got < POPPED {
            match c.pop() {
                Some(v) => {
                    drop(v);
                    got += 1;
                }
                None => check::thread::yield_now(),
            }
        }
        t.join().unwrap();
        // The producer half (and its two leftover in-flight items'
        // ownership) transferred into the ring; the producer thread has
        // exited, so only the popped payloads are dropped so far.
        assert_eq!(DROPS.load(StdOrdering::SeqCst), POPPED);
        drop(c);
        assert_eq!(
            DROPS.load(StdOrdering::SeqCst),
            ITEMS,
            "ring dropped the wrong number of leftovers"
        );
    });
    assert!(report.complete);
}

/// GenChain publisher/adopter visibility: whatever `latest` id the
/// adopter observes, the chain must already hold the *entire* pending
/// span up to it — dense ids, publication order, correct payloads. This
/// is the §15 claim that the Release store of `latest` publishes the
/// `push_back` behind it.
#[test]
fn genchain_adopter_sees_the_full_span_its_latest_read_promised() {
    let report = model!(Config::exhaustive(5), || {
        const GENS: u64 = 4;
        let chain = Arc::new(GenChain::<()>::new());
        let c2 = Arc::clone(&chain);
        let t = check::thread::spawn(move || {
            for v in 1..=GENS {
                assert_eq!(c2.publish(patch(v), None), v, "ids must be dense");
            }
        });
        // Forward-only adoption loop racing the publisher.
        let mut seen = 0u64;
        while seen < GENS {
            let latest = chain.latest();
            assert!(latest >= seen, "latest went backwards");
            if latest == seen {
                check::thread::yield_now();
                continue;
            }
            let span = chain.pending(seen, latest);
            assert_eq!(
                span.len() as u64,
                latest - seen,
                "pending span is missing publications the latest read promised"
            );
            for (i, node) in span.iter().enumerate() {
                assert_eq!(node.id, seen + 1 + i as u64, "span out of order");
                match &node.op {
                    ControlOp::InsertEntry { entry, .. } => {
                        assert_eq!(entry.matches[0], MatchValue::Exact(node.id));
                    }
                    _ => panic!("unexpected publication payload"),
                }
            }
            seen = latest;
        }
        t.join().unwrap();
    });
    assert!(report.complete);
    assert!(
        report.executions >= MIN_INTERLEAVINGS,
        "expected >= {MIN_INTERLEAVINGS} distinct interleavings, got {}",
        report.executions
    );
}

/// GenChain reclaim safety — the dispatcher-side protocol from
/// `sharded.rs`: the publisher reclaims up to the minimum adopted
/// watermark (Acquire) that the adopter publishes with Release after
/// walking its span. Under no schedule may a node disappear between an
/// adopter's `latest` read and its `pending` walk, and adoption must
/// stay monotone.
#[test]
fn genchain_never_reclaims_a_reachable_node() {
    let report = model!(Config::exhaustive(4), || {
        const GENS: u64 = 3;
        let chain = Arc::new(GenChain::<()>::new());
        let adopted = Arc::new(AtomicU64::new(0));
        let (c2, a2) = (Arc::clone(&chain), Arc::clone(&adopted));
        let t = check::thread::spawn(move || {
            let mut seen = 0u64;
            while seen < GENS {
                let latest = c2.latest();
                if latest == seen {
                    check::thread::yield_now();
                    continue;
                }
                let span = c2.pending(seen, latest);
                // Reclaim must never have outrun our published
                // watermark: every node in (seen, latest] is reachable.
                assert_eq!(
                    span.len() as u64,
                    latest - seen,
                    "a reachable node was reclaimed"
                );
                seen = latest;
                // ORDERING: Release — publishes the span walk above to
                // the publisher's Acquire min-scan (same edge as the
                // `adopted` watermark in sharded.rs).
                a2.store(seen, Ordering::Release);
            }
        });
        for v in 1..=GENS {
            chain.publish(patch(v), None);
            // Dispatcher-side opportunistic reclaim, as in `publish` +
            // `reclaim_adopted`: drop everything at or below the
            // minimum adopted watermark.
            // ORDERING: Acquire — pairs with the adopter's Release.
            let min = adopted.load(Ordering::Acquire);
            chain.reclaim(min);
        }
        t.join().unwrap();
        // Quiescent: adopter is done, so a final reclaim empties the
        // chain completely.
        chain.reclaim(adopted.load(Ordering::Acquire));
        assert_eq!(chain.len(), 0, "fully adopted chain must drain");
    });
    assert!(report.complete);
    assert!(
        report.executions >= MIN_INTERLEAVINGS,
        "expected >= {MIN_INTERLEAVINGS} distinct interleavings, got {}",
        report.executions
    );
}

/// The pipeline-only swap on the chain — what `ShardedNic::apply`
/// publishes for `Specialize`/`Despecialize`: an op with the lowering
/// the control replica built riding along, between two entry patches.
/// Under every schedule of publisher (with its opportunistic reclaim)
/// against adopter (with its watermark), the adopter meets the swap
/// exactly once, in order, with its lowering attached, and the swap node
/// is never reclaimed while it is still reachable.
#[test]
fn genchain_pipeline_swap_arrives_in_order_with_its_lowering() {
    // What rides the swap stands in for the lowering: the chain never
    // looks inside it.
    const LOWERED: u64 = 0x10_4e_7ed;
    const SWAP: u64 = 2;
    const GENS: u64 = 3;
    let report = model!(Config::exhaustive(4), || {
        let chain = Arc::new(GenChain::<u64>::new());
        let adopted = Arc::new(AtomicU64::new(0));
        let (c2, a2) = (Arc::clone(&chain), Arc::clone(&adopted));
        let t = check::thread::spawn(move || {
            let (mut seen, mut swaps) = (0u64, 0u32);
            while seen < GENS {
                let latest = c2.latest();
                if latest == seen {
                    check::thread::yield_now();
                    continue;
                }
                let span = c2.pending(seen, latest);
                assert_eq!(
                    span.len() as u64,
                    latest - seen,
                    "a reachable node was reclaimed"
                );
                for (i, node) in span.iter().enumerate() {
                    assert_eq!(node.id, seen + 1 + i as u64, "span out of order");
                    match &node.op {
                        ControlOp::Specialize => {
                            assert_eq!(node.id, SWAP, "the swap moved");
                            assert_eq!(node.lowered, Some(LOWERED), "the swap lost its lowering");
                            swaps += 1;
                        }
                        ControlOp::InsertEntry { entry, .. } => {
                            assert_eq!(entry.matches[0], MatchValue::Exact(node.id));
                            assert!(node.lowered.is_none(), "a patch carries no lowering");
                        }
                        other => panic!("unexpected publication payload {other:?}"),
                    }
                }
                seen = latest;
                // ORDERING: Release — publishes the span walk above to
                // the publisher's Acquire min-scan (same edge as the
                // `adopted` watermark in sharded.rs).
                a2.store(seen, Ordering::Release);
            }
            assert_eq!(swaps, 1, "the swap must be adopted exactly once");
        });
        for v in 1..=GENS {
            if v == SWAP {
                chain.publish(ControlOp::Specialize, Some(LOWERED));
            } else {
                chain.publish(patch(v), None);
            }
            // ORDERING: Acquire — pairs with the adopter's Release.
            chain.reclaim(adopted.load(Ordering::Acquire));
        }
        t.join().unwrap();
        chain.reclaim(adopted.load(Ordering::Acquire));
        assert!(chain.is_empty(), "fully adopted chain must drain");
    });
    assert!(report.complete);
}

/// The dispatcher→worker completion hand-off from `sharded.rs`, in
/// miniature: the worker drains the ring, bumps `processed` with a
/// Release fetch_add after finishing the batch, and the dispatcher's
/// Acquire load of `processed == enqueued` must make every item's
/// side-effects visible (here: the sum the worker accumulated into a
/// tracked cell).
#[test]
fn sharded_completion_handoff_publishes_worker_effects() {
    use check::cell::CheckCell;
    let report = model!(Config::exhaustive(2), || {
        const ITEMS: u64 = 3;
        let (mut p, mut c) = ring::spsc::<u64>(2);
        let processed = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(CheckCell::new(0u64));
        let (pr2, s2) = (Arc::clone(&processed), Arc::clone(&sum));
        let worker = check::thread::spawn(move || {
            let mut done = 0u64;
            while done < ITEMS {
                match c.pop() {
                    Some(v) => {
                        s2.with_mut(|p| unsafe { *p += v });
                        done += 1;
                        // ORDERING: Release — publishes the slot work
                        // above, exactly like drain_burst's fetch_add.
                        pr2.fetch_add(1, Ordering::Release);
                    }
                    None => check::thread::yield_now(),
                }
            }
        });
        let mut src = (1..=ITEMS).peekable();
        while src.peek().is_some() {
            if p.push_burst(&mut src) == 0 {
                check::thread::yield_now();
            }
        }
        // wait_idle: spin on the Acquire-loaded completion count.
        // ORDERING: Acquire — pairs with the worker's Release fetch_add.
        while processed.load(Ordering::Acquire) != ITEMS {
            check::thread::yield_now();
        }
        // The Acquire edge makes the worker's cell writes visible; a
        // missing edge would be flagged as a data race right here.
        let total = sum.with(|p| unsafe { *p });
        assert_eq!(total, (1..=ITEMS).sum::<u64>());
        worker.join().unwrap();
    });
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// Suite 2: mutant kills. Each seeded weakening of the ring's protocol
// must be caught — same workload shape as the proofs above, so a pass
// here means the proofs actually exercise every edge they claim.
// ---------------------------------------------------------------------

/// Drives `items` values through a capacity-2 mutant ring; the workload
/// every ordering mutant is expected to fail under.
fn mutant_workload(ord: RingOrderings, items: u64) -> impl Fn() + Send + Sync + 'static {
    move || {
        let (mut p, mut c) = ring::spsc_with_orderings::<u64>(2, ord);
        let t = check::thread::spawn(move || {
            let mut next = 0u64;
            while next < items {
                match p.push(next) {
                    Ok(()) => next += 1,
                    Err(_) => check::thread::yield_now(),
                }
            }
        });
        let mut expect = 0u64;
        while expect < items {
            match c.pop() {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                None => check::thread::yield_now(),
            }
        }
        t.join().unwrap();
    }
}

/// Mutant 1: the producer publishes `tail` with `Relaxed` — the slot
/// write is no longer ordered before the consumer's read.
#[test]
fn mutant_tail_store_relaxed_is_killed() {
    let ord = RingOrderings {
        tail_store: Ordering::Relaxed,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "data race");
}

/// Mutant 2: the consumer refreshes `tail` with `Relaxed` — it may act
/// on a tail value without acquiring the writes behind it.
#[test]
fn mutant_tail_load_relaxed_is_killed() {
    let ord = RingOrderings {
        tail_load: Ordering::Relaxed,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "data race");
}

/// Mutant 3: the consumer publishes `head` with `Relaxed` — the slot
/// read is no longer ordered before the producer's overwrite, which
/// needs wraparound to bite (hence 4 items through capacity 2).
#[test]
fn mutant_head_store_relaxed_is_killed() {
    let ord = RingOrderings {
        head_store: Ordering::Relaxed,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "data race");
}

/// Mutant 4: the producer refreshes `head` with `Relaxed` — it may
/// reuse a slot without acquiring the consumer's read of it.
#[test]
fn mutant_head_load_relaxed_is_killed() {
    let ord = RingOrderings {
        head_load: Ordering::Relaxed,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "data race");
}

/// Mutant 5: publish-before-write — the consumer can observe the bumped
/// tail and read a slot the producer has not written yet. Depending on
/// where the schedule interleaves, this surfaces as an uninitialized
/// read (first lap) or a cell race; both carry the word "cell".
#[test]
fn mutant_publish_before_write_is_killed() {
    let ord = RingOrderings {
        publish_before_write: true,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "cell");
}

/// Mutant 6: advance-before-read — the consumer frees the slot before
/// reading it, so the producer can overwrite it mid-read on wraparound.
#[test]
fn mutant_advance_before_read_is_killed() {
    let ord = RingOrderings {
        advance_before_read: true,
        ..RingOrderings::default()
    };
    model_expect_failure!(Config::exhaustive(2), mutant_workload(ord, 4), "data race");
}

/// Mutant 7 (logic, not ordering): a reclaim watermark read with the
/// adopter's publication *skipped* — reclaiming at `latest` while an
/// adopter is still walking — must break the reachable-span invariant.
#[test]
fn mutant_eager_reclaim_is_killed() {
    model_expect_failure!(
        Config::exhaustive(2),
        || {
            const GENS: u64 = 2;
            let chain = Arc::new(GenChain::<()>::new());
            let c2 = Arc::clone(&chain);
            let t = check::thread::spawn(move || {
                let mut seen = 0u64;
                while seen < GENS {
                    let latest = c2.latest();
                    if latest == seen {
                        check::thread::yield_now();
                        continue;
                    }
                    let span = c2.pending(seen, latest);
                    assert_eq!(
                        span.len() as u64,
                        latest - seen,
                        "a reachable node was reclaimed"
                    );
                    seen = latest;
                }
            });
            for v in 1..=GENS {
                let id = chain.publish(patch(v), None);
                // BUG under test: reclaim at the just-published id
                // instead of the minimum adopted watermark.
                chain.reclaim(id);
            }
            t.join().unwrap();
        },
        "a reachable node was reclaimed"
    );
}

/// Sanity anchor for the mutant suite: the very same workload with the
/// *correct* orderings passes, so the kills above are attributable to
/// the seeded weakening and nothing else.
#[test]
fn mutant_workload_with_correct_orderings_passes() {
    let report = model!(
        Config::exhaustive(2),
        mutant_workload(RingOrderings::default(), 4)
    );
    assert!(report.complete);
}
