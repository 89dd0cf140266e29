//! `control_loop`: the controller re-optimising a live datapath.
//!
//! In-process, closed loop. `Controller<SimTarget<SmartNic>>`
//! (`SimTarget::live`, `ControllerConfig::default()`, instrumentation
//! 1-in-64) on `LoadBalancer::build()`, driven by Fig. 11a's stimulus. A
//! rep is one *phase*: eight `insert_entry` on the LB tables, four times
//! (`measure` of 4,096 packets, then `tick()`), then `remove_entry` of
//! the same eight, so table sizes stay constant. Phases alternate the
//! ACL drop rates `[0.05, 0.10]` and `[0.60, 0.05]`, so every phase
//! boundary is a profile change the controller must answer. This is the
//! only workload where search, verification, the cost model, the
//! controller, deploys and flow caches work, and where the data plane is
//! written while it is read.
//!
//! What a step costs depends on what the controller decided, and that
//! depends on everything it saw before, so no two phases of a run do
//! the same work. The run therefore repeats one *episode*: [`RUNS`]
//! controllers, each started from the original program and offered
//! [`RUN_PHASES`] phases of its own seeded traffic. Every episode starts
//! from the same states and sees the same packets, so step `k` of phase
//! `p` does identical work in every episode — each visit is checked
//! against the first: same decisions, same accounted latency to the bit
//! — and its visits differ only by what the host did to them.
//!
//! An episode is several short runs of the controller rather than one
//! long one because a controller's run has a character of its own: how
//! often it re-optimises differs from traffic stream to traffic stream
//! by 4-6 % and does not average out as the run gets longer (the share
//! of ticks that search, over ten seeds: spread 5.5 % after 8 phases,
//! 3.9 % after 48). Four independent runs halve that.
//!
//! The timed calls are long (a tick that searches takes 10 ms) and an
//! item gets eight visits in a run, too few for a quantile of their own
//! times to find a quiet one on a busy host. So every timed call here
//! is bracketed by two readings of the host-speed probe
//! ([`crate::hostprobe`]), and the estimator reads an item's quiet time
//! off the visits the probe found calm.

use super::between_ns;
use crate::harness::{Laps, Metrics, Rep, Sample, Samples, Sizes, Workload};
use crate::hostprobe::probe_ns;
use crate::stats;
use crate::trace::{Span, Tracer};
use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{CacheRole, MatchValue, NodeId, ProgramGraph, TableEntry};
use pipeleon_runtime::{graph_fingerprint, Controller, ControllerConfig, SimTarget, Target};
use pipeleon_sim::{Packet, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use pipeleon_workloads::traffic::FlowGen;
use std::time::Instant;

const FLOWS: usize = 700;
/// Packets per measured window.
pub const WINDOW: usize = 4096;
/// Windows (each followed by a tick) per phase.
pub const WINDOWS_PER_PHASE: usize = 4;
/// Entries inserted at the start of a phase and removed at its end.
pub const ENTRY_OPS: usize = 8;
const REGIMES: [[f64; 2]; 2] = [[0.05, 0.10], [0.60, 0.05]];
/// Controller runs per episode, each on its own traffic streams.
pub const RUNS: usize = 4;
/// Phases per controller run.
pub const RUN_PHASES: usize = 8;
/// Phases per episode.
pub const PHASES: usize = RUNS * RUN_PHASES;
/// Phases a set-up runs before it hands the controller over.
const WARM_PHASES: usize = 24;
/// Timed steps per phase: the insert group, four windows, four ticks,
/// the remove group. Item = phase × `STEPS` + step.
const STEPS: u32 = 10;
const STEP_INSERTS: u32 = 0;
/// `+ window`.
const STEP_MEASURE: u32 = 1;
/// `+ window`.
const STEP_TICK: u32 = 5;
const STEP_REMOVES: u32 = 9;
/// Kinds of timed call, for the estimator: a busy host slows a search
/// far more than a table write.
const KIND_ENTRY_OPS: u8 = 0;
const KIND_MEASURE: u8 = 1;
const KIND_TICK: u8 = 2;

/// Folds one more observed value into a phase's signature.
fn fold(sig: u64, v: u64) -> u64 {
    (sig ^ v)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// A reading of the host-speed probe, if this phase is timed.
fn reading(probing: bool) -> u64 {
    if probing {
        probe_ns()
    } else {
        0
    }
}

/// A controller on the original program and the two regimes' traffic
/// streams for controller run `run` of the episode.
fn fresh(
    lb: &LoadBalancer,
    params: &CostParams,
    seed: u64,
    run: u64,
) -> (Controller<SimTarget<SmartNic>>, [FlowGen; 2]) {
    let stream = seed.wrapping_add(1000 * run);
    let gens = [0usize, 1].map(|r| lb.traffic(&REGIMES[r], FLOWS, stream.wrapping_add(r as u64)));
    let mut managed = SmartNic::new(lb.graph.clone(), params.clone()).expect("LB deploys");
    managed.set_instrumentation(true, 64);
    let controller = Controller::new(
        SimTarget::live(managed),
        lb.graph.clone(),
        Optimizer::new(CostModel::new(params.clone())),
        ControllerConfig::default(),
    )
    .expect("controller starts");
    (controller, gens)
}

/// State of one set-up.
pub struct ControlLoop {
    lb: LoadBalancer,
    params: CostParams,
    seed: u64,
    /// Phases per episode and per controller run (fewer at smoke size).
    phases: u64,
    run_phases: u64,
    controller: Controller<SimTarget<SmartNic>>,
    /// Per regime, the seeded traffic stream.
    gens: [FlowGen; 2],
    /// Per phase of the episode, the signature of what the controller
    /// decided and the datapath accounted the first time it ran.
    first: Vec<Option<u64>>,
    /// The first window of each regime, kept for the checks and probes.
    sample: Vec<Packet>,
    offered: u64,
    processed: u64,
    // Per-call times and counts for the traced run's controller metrics.
    tick_quiet_ns: Vec<f64>,
    tick_reopt_ns: Vec<f64>,
    entry_op_ns: Vec<f64>,
    reoptimizations: u64,
    deploys: u64,
}

impl ControlLoop {
    /// One phase. `at` is its position in the episode when it is timed;
    /// the set-up's warm-up phases pass `None` and are not recorded.
    fn phase(
        &mut self,
        rep: u64,
        tr: &mut Tracer,
        mut timed: Option<(u32, &mut Samples)>,
        mut laps: Option<&mut Laps>,
    ) -> Rep {
        let mut out = Rep::default();
        let regime = (rep % 2) as usize;
        let lb_tables: [NodeId; 2] = [self.lb.lb[0], self.lb.lb[1]];
        let mut sig = 0u64;
        let probing = timed.is_some();
        // Every timed call sits between two readings of the host-speed
        // probe; the op is the phase's control-plane calls, so those are
        // filed under both.
        let mut push = |step: u32, kind: u8, packets: u64, ns: u64, probe_before: u64| {
            if let Some((at, s)) = timed.as_mut() {
                let sample = Sample {
                    item: *at * STEPS + step,
                    kind,
                    packets: packets as u32,
                    ns,
                    probe_ns: probe_before.max(probe_ns()),
                };
                s.rate.push(sample);
                if kind != KIND_MEASURE {
                    s.op.push(sample);
                }
            }
            if let Some(l) = laps.as_deref_mut() {
                l.lap();
            }
        };

        let before = reading(probing);
        let mut group_ns = 0u64;
        for k in 0..ENTRY_OPS {
            let entry = TableEntry::new(vec![MatchValue::Exact(1 << 20 | k as u64)], 0);
            let t0 = Instant::now();
            self.controller
                .insert_entry(lb_tables[k % 2], entry)
                .expect("insert on an LB table");
            let t1 = Instant::now();
            tr.record("runtime.controller.insert_entry", rep, 1, t0, t1);
            group_ns += between_ns(t0, t1);
            self.entry_op_ns.push(between_ns(t0, t1) as f64);
        }
        push(STEP_INSERTS, KIND_ENTRY_OPS, 0, group_ns, before);

        for window in 0..WINDOWS_PER_PHASE as u32 {
            let work = self.gens[regime].batch(WINDOW);
            let offered = work.len() as u64;
            let before = reading(probing);
            let t0 = Instant::now();
            let stats = self.controller.target.nic.measure(work);
            let t1 = Instant::now();
            tr.record("sim.nic.measure", rep, stats.packets, t0, t1);
            push(
                STEP_MEASURE + window,
                KIND_MEASURE,
                offered,
                between_ns(t0, t1),
                before,
            );
            out.packets += offered;
            self.offered += offered;
            self.processed += stats.packets;
            out.failed += offered - stats.packets.min(offered);
            out.model_latency_sum_ns += stats.mean_latency_ns * stats.packets as f64;
            sig = fold(sig, stats.mean_latency_ns.to_bits());
            sig = fold(sig, stats.dropped);

            let before = reading(probing);
            let t0 = Instant::now();
            let report = self.controller.tick().expect("tick");
            let t1 = Instant::now();
            tr.record("runtime.controller.tick", rep, 1, t0, t1);
            let ns = between_ns(t0, t1);
            push(STEP_TICK + window, KIND_TICK, 0, ns, before);
            sig = fold(
                sig,
                u64::from(report.reoptimized) << 1 | u64::from(report.deployed),
            );
            if report.reoptimized {
                self.tick_reopt_ns.push(ns as f64);
            } else {
                self.tick_quiet_ns.push(ns as f64);
            }
            self.reoptimizations += u64::from(report.reoptimized);
            self.deploys += u64::from(report.deployed);
        }

        let before = reading(probing);
        let mut group_ns = 0u64;
        for k in 0..ENTRY_OPS {
            let t0 = Instant::now();
            self.controller
                .remove_entry(lb_tables[k % 2], 0)
                .expect("remove from an LB table");
            let t1 = Instant::now();
            tr.record("runtime.controller.remove_entry", rep, 1, t0, t1);
            group_ns += between_ns(t0, t1);
            self.entry_op_ns.push(between_ns(t0, t1) as f64);
        }
        push(STEP_REMOVES, KIND_ENTRY_OPS, 0, group_ns, before);

        // The op: all control-plane time of the phase.
        out.ops = 1;
        if let Some((at, _)) = timed {
            // An episode repeats the first one, decision for decision.
            match self.first[at as usize] {
                None => self.first[at as usize] = Some(sig),
                Some(first) if first == sig => {}
                Some(_) => out.failed += out.packets,
            }
        }
        out
    }

    fn reset_counters(&mut self) {
        self.offered = 0;
        self.processed = 0;
        self.tick_quiet_ns.clear();
        self.tick_reopt_ns.clear();
        self.entry_op_ns.clear();
        self.reoptimizations = 0;
        self.deploys = 0;
    }
}

impl Workload for ControlLoop {
    const REPS_PER_SECOND: u64 = 12;

    fn cycle(smoke: bool) -> u64 {
        if smoke {
            2
        } else {
            PHASES as u64
        }
    }

    fn setup(seed: u64, sizes: Sizes, _epoch: Instant, laps: &mut Laps) -> Self {
        let warm_phases = if sizes.smoke { 2 } else { WARM_PHASES };
        let lb = LoadBalancer::build();
        let params = CostParams::bluefield2();
        let (controller, mut gens) = fresh(&lb, &params, seed, 0);
        let sample: Vec<Packet> = gens.iter_mut().flat_map(|g| g.batch(WINDOW)).collect();
        laps.lap();
        let mut this = ControlLoop {
            lb,
            params,
            seed,
            phases: sizes.cycle,
            run_phases: if sizes.smoke { 1 } else { RUN_PHASES as u64 },
            controller,
            gens,
            first: vec![None; sizes.cycle as usize],
            sample,
            offered: 0,
            processed: 0,
            tick_quiet_ns: Vec::new(),
            tick_reopt_ns: Vec::new(),
            entry_op_ns: Vec::new(),
            reoptimizations: 0,
            deploys: 0,
        };
        let mut off = Tracer::new(Instant::now(), 0, false);
        for p in 0..warm_phases as u64 {
            this.phase(p, &mut off, None, Some(laps));
        }
        this.reset_counters();
        this
    }

    fn rep(&mut self, rep: u64, tr: &mut Tracer, samples: &mut Samples) -> Rep {
        let at = rep % self.phases;
        let (run, phase_of_run) = (at / self.run_phases, at % self.run_phases);
        if phase_of_run == 0 {
            // A new controller run: the controller and its traffic start
            // over, outside every timer.
            (self.controller, self.gens) = fresh(&self.lb, &self.params, self.seed, run);
        }
        self.phase(at, tr, Some((at as u32, samples)), None)
    }

    fn check(&mut self) -> u64 {
        let mut wrong = self.offered - self.processed.min(self.offered);
        // What runs on the target is what the controller believes runs.
        let on_target = self.controller.target.fingerprint();
        if on_target != Some(graph_fingerprint(self.controller.last_known_good())) {
            wrong += 1;
        }
        // The deployed layout forwards a probe set exactly like the
        // original program.
        let mut a = SmartNic::new(self.controller.original().clone(), self.params.clone())
            .expect("original deploys");
        let mut b = SmartNic::new(
            self.controller.target.nic.graph().clone(),
            self.params.clone(),
        )
        .expect("deployed layout deploys");
        let n_fields = self.controller.original().fields.len();
        for p in &self.sample {
            let (mut pa, mut pb) = (p.clone(), p.clone());
            let (ra, rb) = (a.process_one(&mut pa), b.process_one(&mut pb));
            let same = ra.dropped == rb.dropped
                && pa.egress_port == pb.egress_port
                && (ra.dropped || pa.slots()[..n_fields] == pb.slots()[..n_fields]);
            wrong += u64::from(!same);
        }
        wrong
    }

    fn probe_input(&self) -> (ProgramGraph, Vec<Packet>, CostParams) {
        (
            self.lb.graph.clone(),
            self.sample.clone(),
            self.params.clone(),
        )
    }

    fn layers(&mut self, m: &mut Metrics) {
        let h = self.controller.health().clone();
        let us = |ns: &[f64]| stats::median(ns) / 1e3;
        m.timed(
            "runtime.controller.tick_quiet_us",
            us(&self.tick_quiet_ns),
            "us",
        );
        m.timed(
            "runtime.controller.tick_reopt_us",
            us(&self.tick_reopt_ns),
            "us",
        );
        m.timed(
            "runtime.controller.entry_op_us",
            us(&self.entry_op_ns),
            "us",
        );
        for (name, count) in [
            ("reoptimizations", self.reoptimizations),
            ("deploys", self.deploys),
            ("rollbacks", h.rollbacks),
            ("plan_rejections", h.plan_rejections),
            ("specializations", h.specializations),
            ("despecializations", h.despecializations),
        ] {
            m.exact(&format!("runtime.controller.{name}"), count as f64, "count");
        }
        // Flow caches the deployed layout carries, and how full they are.
        let caches: Vec<NodeId> = self
            .controller
            .target
            .nic
            .graph()
            .tables()
            .filter(|(_, t)| t.cache_role == CacheRole::FlowCache)
            .map(|(n, _)| n.id)
            .collect();
        let occupancy: usize = caches
            .iter()
            .map(|&c| self.controller.target.nic.executor_mut().cache_len(c))
            .sum();
        m.exact("sim.cache.occupancy", occupancy as f64, "count");
        // Hit share over one more window, read from the datapath's own
        // (sampled) profile.
        let nic = &mut self.controller.target.nic;
        nic.take_profile();
        nic.measure(self.sample[..WINDOW].to_vec());
        let profile = nic.take_profile();
        let (mut hits, mut lookups) = (0u64, 0u64);
        for c in &caches {
            if let Some(s) = profile.cache_stats.get(c) {
                hits += s.hits;
                lookups += s.hits + s.misses;
            }
        }
        m.exact(
            "sim.cache.hit_share",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "share",
        );
    }

    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
}
