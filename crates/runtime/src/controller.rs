//! The runtime controller and entry-management API mapping.
//!
//! [`Controller::tick`] is one profiling window (§5.3.1 uses five-second
//! windows): collect counters from the target, translate them back to the
//! original program's space, detect drift, re-run the top-k search, and
//! deploy the new layout when it pays. [`Controller::insert_entry`] /
//! [`Controller::remove_entry`] implement the original-program
//! control-plane API on top of the optimized layout (§2.3).
//!
//! Reconfiguration is *transactional*: a candidate deploy is validated,
//! applied with bounded retry + exponential backoff, and verified against
//! the target's readback [`fingerprint`](crate::Target::fingerprint); on
//! failure the controller rolls back to the last-known-good layout (or
//! pins the original program), and after `DEGRADE_AFTER` consecutive
//! failures a circuit breaker opens: the controller enters *degraded*
//! mode — original program pinned, re-optimization suspended — until
//! `COOLDOWN_TICKS` healthy windows pass. Entry operations are atomic: a
//! failure mid-fan-out rolls the original-table mutation back and
//! restores the deployed state, so the source of truth and the target
//! never diverge.

use pipeleon::apply::{apply_plan, AppliedPlan, EntrySite};
use pipeleon::config::ResourceLimits;
use pipeleon::opts::{merge, EvalCtx};
use pipeleon::plan::GlobalPlan;
use pipeleon::search::{IncrementalState, Optimizer};
use pipeleon_cost::RuntimeProfile;
use pipeleon_ir::json::fingerprint;
use pipeleon_ir::{NodeId, ProgramGraph, TableEntry};
use pipeleon_obs::{EventJournal, EventKind, MetricsRegistry};
use pipeleon_sim::{ControlOp, SpecStats};
use std::collections::HashMap;
use std::time::Duration;

use crate::change::profile_distance;
use crate::error::RuntimeError;
use crate::target::Target;

/// What a deployment sets about the controller: the target's resource
/// budget and whether the datapath is specialized.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Resource limits handed to the optimizer.
    pub limits: ResourceLimits,
    /// Run a profile-guided specialization step after each window's
    /// optimize/deploy work: the target's compiled datapath gains
    /// bit-exact fast paths (hot-key guards) for the observed traffic,
    /// and sheds them again on drift or guard-miss pressure.
    pub specialize: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            limits: ResourceLimits::unlimited(),
            specialize: true,
        }
    }
}

/// Profile distance (see [`profile_distance`]) at or above which a window
/// triggers a re-optimization and sheds a specialized pipeline.
const CHANGE_THRESHOLD: f64 = 0.05;

/// Deploy retries after the first attempt of a transaction fails.
const MAX_DEPLOY_RETRIES: u32 = 2;

/// Backoff before the first deploy retry; it doubles per retry.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// Consecutive failed deploy transactions before the circuit breaker
/// opens (degraded mode: original pinned, no re-optimization).
const DEGRADE_AFTER: u32 = 3;

/// Healthy ticks required to close the breaker again.
const COOLDOWN_TICKS: u32 = 4;

/// Events the controller's ring-buffer journal retains (older events are
/// evicted and counted, never reallocated).
const JOURNAL_CAPACITY: usize = 1024;

/// Guard-miss fraction of a window's guarded lookups above which the
/// specialized pipeline is considered stale and reverted.
const SPEC_GUARD_MISS_DESPEC: f64 = 0.35;

/// Health of the reconfiguration loop (the circuit-breaker state),
/// reported in every [`TickReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Consecutive failed deploy transactions (reset by any success).
    pub consecutive_deploy_failures: u32,
    /// Total deploy retries performed (beyond first attempts).
    pub deploy_retries: u64,
    /// Total rollbacks to the last-known-good (or original) layout.
    pub rollbacks: u64,
    /// Profiling windows that came back empty (telemetry loss).
    pub profile_losses: u64,
    /// Whether the circuit breaker is open: the original program is
    /// pinned and re-optimization is suspended.
    pub degraded: bool,
    /// Healthy ticks remaining before the breaker closes.
    pub cooldown_remaining: u32,
    /// A rollback deploy failed: the target may run a stale layout; the
    /// controller re-attempts the pin at the start of the next tick.
    pub pin_pending: bool,
    /// Plans the safety verifier refused to deploy (the optimizer filters
    /// candidates itself, so any nonzero count means a gate caught an
    /// unsound plan that slipped through).
    pub plan_rejections: u64,
    /// Specialization plans the target's datapath has applied (from the
    /// target's own counters; 0 when specialization is disabled or the
    /// target has no specializing datapath).
    pub specializations: u64,
    /// Reverts to the verbatim lowering — explicit de-specializations
    /// plus entry ops that stripped a specialized table.
    pub despecializations: u64,
}

/// What one tick did.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Distance between this window's profile and the previous one.
    pub profile_change: f64,
    /// Whether the optimizer ran.
    pub reoptimized: bool,
    /// Whether a new layout was deployed.
    pub deployed: bool,
    /// Estimated gain of the (possibly undeployed) best plan, ns/packet.
    pub est_gain_ns: f64,
    /// Search wall-clock time.
    pub search_time: Duration,
    /// Distinct cache/merge segments the search scored (0 when every
    /// pipelet's candidates came from the incremental cache).
    pub segment_evals: usize,
    /// Service interruption incurred by deployment (reload targets).
    pub downtime_s: f64,
    /// Human-readable steps of the deployed plan.
    pub summary: Vec<String>,
    /// Snapshot of the reconfiguration-loop health after this tick.
    pub health: HealthReport,
}

/// The layout the controller last verified on the target, kept in sync
/// with every successful entry operation so a rollback redeploys the
/// *current* state, not a stale snapshot.
#[derive(Debug, Clone)]
struct DeployedState {
    graph: ProgramGraph,
    /// The [`fingerprint`] of `graph`, or `None` while entry operations
    /// have changed `graph` since it was last hashed: hashing the
    /// program costs far more than the entry operation itself, so it
    /// waits for a reader ([`Controller::last_good_fingerprint`]).
    fingerprint: Option<u64>,
}

/// Per merged action, the `(component table, action)` pairs its
/// counters stand for.
type ActionMap = Vec<Vec<(NodeId, usize)>>;

/// An entry fan-out failure, with whether any site was already mutated
/// (deciding if the deployed state must be restored).
struct FanOutFailure {
    error: RuntimeError,
    sites_applied: bool,
}

/// The Pipeleon runtime: original program + optimizer + deployed target.
#[derive(Debug)]
pub struct Controller<T: Target> {
    /// The deployment target.
    pub target: T,
    original: ProgramGraph,
    optimizer: Optimizer,
    cfg: ControllerConfig,
    applied: Option<AppliedPlan>,
    last_good: DeployedState,
    last_profile: Option<RuntimeProfile>,
    update_counts: HashMap<NodeId, u64>,
    incremental: IncrementalState,
    health: HealthReport,
    /// Measured hit rates of deployed caches, keyed by covered tables —
    /// fed back into the optimizer's cache estimates (§3.2.2).
    cache_hints: HashMap<Vec<NodeId>, f64>,
    /// Number of reconfigurations performed.
    pub reconfig_count: usize,
    /// Packets of every profile window consumed so far.
    profiled_packets: u64,
    /// Plans deployed so far; with `profiled_packets`, a plan's observed
    /// mean lifetime in packets.
    deploys: u64,
    /// Structured audit trail of control-loop events (deploys,
    /// rollbacks, plan rejections, breaker transitions, windows).
    journal: EventJournal,
    /// Control-loop metrics, re-snapshotted every tick.
    metrics: MetricsRegistry,
    /// Accumulated profiling-window time, the journal's clock.
    clock_s: f64,
    /// Highest live-swap generation already journaled, so each swap the
    /// target reports is recorded exactly once.
    last_swap_gen: u64,
    /// Highest specialization epoch already journaled (same dedup
    /// pattern as `last_swap_gen`).
    last_spec_gen: u64,
    /// Target specialization counters at the end of the previous spec
    /// step, for per-window guard-miss deltas.
    last_spec_stats: SpecStats,
}

/// Per-window facts [`Controller::tick`] surfaces to the journal after
/// the window's work is done.
struct WindowInfo {
    window_s: f64,
    packets: u64,
}

impl<T: Target> Controller<T> {
    /// Creates a controller and deploys the original program
    /// (transactionally: the initial deploy is retried and verified like
    /// any other).
    pub fn new(
        target: T,
        original: ProgramGraph,
        optimizer: Optimizer,
        cfg: ControllerConfig,
    ) -> Result<Self, RuntimeError> {
        original.validate().map_err(RuntimeError::Ir)?;
        let fp = fingerprint(&original)?;
        let journal = EventJournal::new(JOURNAL_CAPACITY);
        let mut metrics = MetricsRegistry::new();
        register_help(&mut metrics);
        let mut this = Self {
            target,
            original: original.clone(),
            optimizer,
            cfg,
            applied: None,
            last_good: DeployedState {
                graph: original,
                fingerprint: Some(fp),
            },
            last_profile: None,
            update_counts: HashMap::new(),
            incremental: IncrementalState::new(),
            health: HealthReport::default(),
            cache_hints: HashMap::new(),
            reconfig_count: 0,
            profiled_packets: 0,
            deploys: 0,
            journal,
            metrics,
            clock_s: 0.0,
            last_swap_gen: 0,
            last_spec_gen: 0,
            last_spec_stats: SpecStats::default(),
        };
        let graph = this.last_good.graph.clone();
        this.deploy_transaction(&graph, fp)?;
        Ok(this)
    }

    /// The original (unoptimized) program — the API namespace operators
    /// use.
    pub fn original(&self) -> &ProgramGraph {
        &self.original
    }

    /// The currently applied plan, if the deployed layout is optimized.
    pub fn applied(&self) -> Option<&AppliedPlan> {
        self.applied.as_ref()
    }

    /// Current reconfiguration-loop health.
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// The controller's structured event journal (read-only).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Mutable access to the journal so embedders (e.g. the chaos CLI)
    /// can interleave their own events — injected faults, external
    /// markers — into the same timeline.
    pub fn journal_mut(&mut self) -> &mut EventJournal {
        &mut self.journal
    }

    /// The control-loop metrics registry (read-only).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry so embedders can add
    /// datapath series (packet-latency histograms, per-table counters)
    /// next to the control-loop series.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Accumulated profiling-window time — the journal's clock, in
    /// seconds since the controller was created.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// The layout the controller last verified on the target.
    pub fn last_known_good(&self) -> &ProgramGraph {
        &self.last_good.graph
    }

    /// The [`fingerprint`] of the last-known-good layout, hashed now if
    /// entry operations changed the layout since it last was. A layout
    /// that does not export can be neither compared nor redeployed: that
    /// sets `pin_pending` (the next tick re-pins the original program)
    /// and returns `None`.
    fn last_good_fingerprint(&mut self) -> Option<u64> {
        if self.last_good.fingerprint.is_none() {
            match fingerprint(&self.last_good.graph) {
                Ok(fp) => self.last_good.fingerprint = Some(fp),
                Err(_) => self.health.pin_pending = true,
            }
        }
        self.last_good.fingerprint
    }

    /// One deploy transaction: validate → apply (bounded retry with
    /// exponential backoff) → verify via the target's readback
    /// fingerprint, which must equal `expected`, the [`fingerprint`] of
    /// `graph`. The target's *reported* outcome is cross-checked against
    /// the readback in both directions, so torn deploys — applied but
    /// reported failed, or acked but never applied — are detected. Each
    /// attempt hands the target its own copy of `graph`.
    fn deploy_transaction(
        &mut self,
        graph: &ProgramGraph,
        expected: u64,
    ) -> Result<(), RuntimeError> {
        graph
            .validate()
            .map_err(|e| RuntimeError::InvalidCandidate {
                source: Some(e),
                violations: Vec::new(),
            })?;
        let mut attempts = 0u32;
        let mut last: Option<RuntimeError> = None;
        while attempts <= MAX_DEPLOY_RETRIES {
            if attempts > 0 {
                self.health.deploy_retries += 1;
                std::thread::sleep(RETRY_BACKOFF * (1u32 << (attempts - 1)));
            }
            attempts += 1;
            let outcome = self.target.apply(ControlOp::Deploy(graph.clone()));
            match self.target.fingerprint() {
                Some(actual) => {
                    if actual == expected {
                        // Verified running — even if the ack was lost.
                        self.note_swap();
                        return Ok(());
                    }
                    last = Some(match outcome {
                        Ok(_) => RuntimeError::TornDeploy { expected, actual },
                        Err(e) => RuntimeError::Ir(e),
                    });
                }
                None => match outcome {
                    Ok(_) => {
                        self.note_swap();
                        return Ok(());
                    }
                    Err(e) => last = Some(RuntimeError::Ir(e)),
                },
            }
        }
        match last {
            Some(RuntimeError::TornDeploy { expected, actual }) => {
                Err(RuntimeError::TornDeploy { expected, actual })
            }
            Some(RuntimeError::Ir(source)) => Err(RuntimeError::DeployFailed { attempts, source }),
            Some(other) => Err(other),
            None => unreachable!("at least one attempt always runs"),
        }
    }

    /// Records the pipeline swap a verified deploy (or a specialize
    /// step) just performed, if the target reports one it has not
    /// journaled yet: a `generation_swap` journal event on the controller
    /// clock plus the swap metrics (publish-latency histogram,
    /// active-generation gauge, packets-in-flight counter). A no-op on
    /// targets that report no swaps.
    fn note_swap(&mut self) {
        let Some(swap) = self.target.last_swap() else {
            return;
        };
        if swap.generation <= self.last_swap_gen {
            return;
        }
        self.last_swap_gen = swap.generation;
        self.journal.push(
            self.clock_s,
            EventKind::GenerationSwap {
                generation: swap.generation,
                in_flight: swap.in_flight,
                latency_ns: swap.latency_ns,
            },
        );
        let m = &mut self.metrics;
        m.observe("pipeleon_swap_latency_ns", &[], swap.latency_ns);
        m.gauge_set("pipeleon_active_generation", &[], swap.generation as f64);
        m.counter_add("pipeleon_inflight_at_swap_total", &[], swap.in_flight);
    }

    /// Deploys the original program and makes it the deployed state.
    fn pin_original(&mut self) -> Result<(), RuntimeError> {
        let g = self.original.clone();
        let fp = fingerprint(&g)?;
        self.deploy_transaction(&g, fp)?;
        self.applied = None;
        self.last_good = DeployedState {
            graph: g,
            fingerprint: Some(fp),
        };
        self.health.pin_pending = false;
        self.reconfig_count += 1;
        Ok(())
    }

    /// Counts and journals one rollback of the target to `to`.
    fn note_rollback(&mut self, to: &str) {
        self.health.rollbacks += 1;
        self.journal
            .push(self.clock_s, EventKind::Rollback { to: to.into() });
    }

    /// Restores the target to the last-known-good layout after a failed
    /// candidate deploy (falling back to the original program, and to
    /// `pin_pending` when even that fails).
    fn recover_deployed_state(&mut self) {
        let fp = self.last_good_fingerprint();
        let graph = self.last_good.graph.clone();
        if fp.is_some_and(|fp| self.deploy_transaction(&graph, fp).is_ok()) {
            self.health.pin_pending = false;
            self.note_rollback("last-good");
        } else {
            let _ = self.revert_to_original();
        }
    }

    /// Counts one more failed deploy transaction and opens the circuit
    /// breaker once `DEGRADE_AFTER` have failed in a row. Returns whether
    /// this failure opened it.
    fn note_deploy_failure(&mut self) -> bool {
        self.health.consecutive_deploy_failures += 1;
        if self.health.degraded || self.health.consecutive_deploy_failures < DEGRADE_AFTER {
            return false;
        }
        self.health.degraded = true;
        self.health.cooldown_remaining = COOLDOWN_TICKS;
        self.journal.push(
            self.clock_s,
            EventKind::BreakerOpened {
                cooldown_ticks: COOLDOWN_TICKS,
            },
        );
        true
    }

    /// Attempts a verified candidate deploy — the one commit path of a
    /// tick and of [`Controller::deploy_plan`]. On failure it recovers the
    /// deployed state, advances the circuit breaker (pinning the original
    /// program when the breaker opens) and returns the deploy's error.
    fn deploy_candidate_or_recover(
        &mut self,
        applied: AppliedPlan,
        fp: u64,
    ) -> Result<(), RuntimeError> {
        if let Err(e) = self.deploy_transaction(&applied.graph, fp) {
            self.journal.push(
                self.clock_s,
                EventKind::DeployFailed {
                    attempts: MAX_DEPLOY_RETRIES + 1,
                    error: e.to_string(),
                },
            );
            self.recover_deployed_state();
            if self.note_deploy_failure() && self.applied.is_some() && self.pin_original().is_err()
            {
                self.health.pin_pending = true;
            }
            return Err(e);
        }
        self.health.consecutive_deploy_failures = 0;
        self.last_good = DeployedState {
            graph: applied.graph.clone(),
            fingerprint: Some(fp),
        };
        self.applied = Some(applied);
        self.reconfig_count += 1;
        self.deploys += 1;
        Ok(())
    }

    /// Builds a report for a tick that did no optimization work.
    fn report_only(&self, profile_change: f64) -> TickReport {
        TickReport {
            profile_change,
            reoptimized: false,
            deployed: false,
            est_gain_ns: 0.0,
            search_time: Duration::ZERO,
            segment_evals: 0,
            downtime_s: 0.0,
            summary: Vec::new(),
            health: self.health.clone(),
        }
    }

    /// One profiling window: collect → translate → detect → re-optimize →
    /// deploy (transactionally), then journal the window and re-snapshot
    /// the control-loop metrics.
    pub fn tick(&mut self) -> Result<TickReport, RuntimeError> {
        let (mut report, window) = self.tick_inner()?;
        if let Some(w) = &window {
            self.journal.push(
                self.clock_s,
                EventKind::WindowProfiled {
                    window_s: w.window_s,
                    packets: w.packets,
                    change: report.profile_change,
                    reoptimized: report.reoptimized,
                    deployed: report.deployed,
                },
            );
        }
        if report.deployed {
            self.journal.push(
                self.clock_s,
                EventKind::Deploy {
                    reconfig: self.reconfig_count as u64,
                    est_gain_ns: report.est_gain_ns,
                    summary: report.summary.clone(),
                },
            );
        }
        if window.is_some() {
            self.spec_step(&mut report);
        }
        self.record_tick_metrics(&report);
        Ok(report)
    }

    /// The specialization step, run after each window's optimize/deploy
    /// work (and only for ticks that actually consumed a window).
    ///
    /// Policy: if the datapath is specialized and the profile drifted
    /// past the re-optimization threshold — or the window's guard-miss
    /// fraction cleared [`SPEC_GUARD_MISS_DESPEC`] —
    /// the stale plan is shed first; a fresh plan is then (re)applied
    /// whenever the traffic looks stable. Both actions are bit-exact on
    /// the datapath, so this step can never change what packets do —
    /// only how fast the target executes them.
    fn spec_step(&mut self, report: &mut TickReport) {
        if !self.cfg.specialize || self.health.degraded {
            return;
        }
        let before = self.last_spec_stats;
        let stats = self.target.spec_stats();
        let hits = stats.guard_hits.saturating_sub(before.guard_hits);
        let misses = stats.guard_misses.saturating_sub(before.guard_misses);
        let guarded = hits + misses;
        let miss_rate = if guarded == 0 {
            0.0
        } else {
            misses as f64 / guarded as f64
        };
        let drifted = report.profile_change >= CHANGE_THRESHOLD;
        if stats.specialized_tables > 0 && (drifted || miss_rate > SPEC_GUARD_MISS_DESPEC) {
            let _ = self.target.apply(ControlOp::Despecialize);
        } else if !drifted {
            let _ = self.target.apply(ControlOp::Specialize);
        }
        // A (de)specialization is a pipeline swap — record it like a
        // deploy's.
        self.note_swap();
        let after = self.target.spec_stats();
        if after.generation > self.last_spec_gen {
            if after.despecializations > before.despecializations {
                self.journal.push(
                    self.clock_s,
                    EventKind::Despecialize {
                        generation: after.generation,
                        tables: after.specialized_tables,
                    },
                );
            }
            if after.specializations > before.specializations {
                self.journal.push(
                    self.clock_s,
                    EventKind::Specialize {
                        generation: after.generation,
                        tables: after.specialized_tables,
                    },
                );
            }
            self.last_spec_gen = after.generation;
        }
        self.last_spec_stats = after;
        self.health.specializations = after.specializations;
        self.health.despecializations = after.despecializations;
        report.health = self.health.clone();
        after.export(&mut self.metrics);
    }

    /// The tick body proper; returns the report plus the window facts
    /// (when a profile was actually consumed) for the journal.
    fn tick_inner(&mut self) -> Result<(TickReport, Option<WindowInfo>), RuntimeError> {
        // Repair pass: if an earlier rollback failed, the target may be
        // running a stale layout — re-pin before trusting anything else.
        if self.health.pin_pending && self.pin_original().is_err() {
            self.note_deploy_failure();
            return Ok((self.report_only(0.0), None));
        }
        let raw = self.target.take_profile();
        if raw.is_empty() && self.last_profile.is_some() {
            // Profile loss: an empty window while history exists is a
            // telemetry outage, not drift — skipping keeps the previous
            // window as the baseline instead of registering infinite
            // change and redeploying spuriously.
            self.health.profile_losses += 1;
            return Ok((self.report_only(0.0), None));
        }
        let window_s = raw.window_s.max(1e-9);
        let window = WindowInfo {
            window_s,
            packets: raw.total_packets,
        };
        self.clock_s += window_s;
        self.profiled_packets += raw.total_packets;
        let mut profile = match &self.applied {
            Some(a) => a.counter_map.translate(&raw),
            None => raw,
        };
        // Fold in the control-plane update rates observed this window.
        for (node, count) in self.update_counts.drain() {
            profile.set_entry_update_rate(node, count as f64 / window_s);
        }
        profile.window_s = window_s;

        // Cache-health feedback (§3.2.2): record the measured hit rate of
        // every deployed cache against the original tables it covers, so
        // the next search plans with reality instead of the default
        // estimate.
        if let Some(applied) = &self.applied {
            for &cache in &applied.cache_nodes {
                let Some(measured) = profile.cache_hit_rate(cache) else {
                    continue;
                };
                let covered: Vec<NodeId> = applied
                    .entry_map
                    .tracked()
                    .filter(|&t| {
                        applied.entry_map.sites(t).iter().any(|s| {
                            matches!(s,
                                pipeleon::apply::EntrySite::CoveredByCache { cache: c }
                                    if *c == cache)
                        })
                    })
                    .collect();
                if !covered.is_empty() {
                    self.cache_hints.insert(
                        {
                            let mut k = covered;
                            k.sort();
                            k
                        },
                        measured,
                    );
                }
            }
        }
        for (tables, &rate) in &self.cache_hints {
            profile.set_cache_hint(tables.clone(), rate);
        }

        let profile_change = match &self.last_profile {
            Some(prev) => profile_distance(&self.original, prev, &profile),
            None => f64::INFINITY,
        };
        let mut report = self.report_only(profile_change);

        if self.health.degraded {
            // Circuit open: the original program stays pinned and no
            // re-optimization runs; each healthy window counts toward
            // closing the breaker.
            self.last_profile = Some(profile);
            if self.health.cooldown_remaining > 0 {
                self.health.cooldown_remaining -= 1;
            }
            if self.health.cooldown_remaining == 0 {
                self.health.degraded = false;
                self.health.consecutive_deploy_failures = 0;
                self.journal.push(self.clock_s, EventKind::BreakerClosed);
            }
            report.health = self.health.clone();
            return Ok((report, Some(window)));
        }

        if profile_change >= CHANGE_THRESHOLD {
            report.reoptimized = true;
            // Incremental search (§6): pipelets whose local profile is
            // unchanged reuse their candidate lists from the last tick.
            let outcome = self.optimizer.optimize_incremental(
                &self.original,
                &profile,
                self.cfg.limits,
                &mut self.incremental,
            )?;
            report.est_gain_ns = outcome.est_gain_ns;
            report.search_time = outcome.search_time;
            report.segment_evals = outcome.segment_evals;
            // A plan laid out as the running one ends the tick unbuilt.
            let original = GlobalPlan::default();
            let running = self.applied.as_ref().map_or(&original, |a| &a.plan);
            if !outcome.plan.same_layout(running) {
                // The deploy rule: the search's plan replaces the running
                // one only when its gain over the running plan's, both
                // priced under this window's profile, repays over a plan's
                // observed lifetime the warm-up of the flow caches it
                // starts cold. A tie, or a pruned search that missed the
                // running plan, keeps what runs.
                let horizon_packets = self.profiled_packets as f64 / self.deploys.max(1) as f64;
                let kept = self.running_gain(&profile).and_then(|running_gain_ns| {
                    let warmup_ns = self.warmup_ns(&profile, &outcome.plan);
                    let repays =
                        (outcome.est_gain_ns - running_gain_ns) * horizon_packets > warmup_ns;
                    (!repays).then_some((running_gain_ns, warmup_ns))
                });
                if let Some((running_gain_ns, warmup_ns)) = kept {
                    self.journal.push(
                        self.clock_s,
                        EventKind::PlanKept {
                            candidate_gain_ns: outcome.est_gain_ns,
                            running_gain_ns,
                            warmup_ns,
                            horizon_packets,
                        },
                    );
                } else {
                    self.deploy_repaying(&outcome.plan, &profile, &mut report)?;
                }
            }
        }
        self.last_profile = Some(profile);
        report.health = self.health.clone();
        Ok((report, Some(window)))
    }

    /// Builds `plan`, a plan that repays its warm-up, and deploys it
    /// unless the target already runs the program it builds or the
    /// verifier refuses it. Only this path of a tick rewrites the program
    /// and hashes it.
    fn deploy_repaying(
        &mut self,
        plan: &GlobalPlan,
        profile: &RuntimeProfile,
        report: &mut TickReport,
    ) -> Result<(), RuntimeError> {
        let applied = apply_plan(
            &self.original,
            plan,
            &self.optimizer.model,
            profile,
            &self.optimizer.cfg,
        )?;
        let candidate = fingerprint(&applied.graph)?;
        if self.last_good_fingerprint() == Some(candidate) {
            return Ok(());
        }
        if let Err(err) = self.verify_plan(plan) {
            // Safety gate: refuse to deploy any plan the verifier cannot
            // prove legal. The search already filters illegal candidates,
            // so this rejecting is an invariant breach — counted, skipped,
            // and the loop stays alive.
            self.health.plan_rejections += 1;
            let violations = match &err {
                RuntimeError::InvalidCandidate { violations, .. } => {
                    violations.iter().map(|v| v.to_string()).collect()
                }
                other => vec![other.to_string()],
            };
            self.journal
                .push(self.clock_s, EventKind::PlanRejected { violations });
            return Ok(());
        }
        let summary = applied.summary.clone();
        if self.deploy_candidate_or_recover(applied, candidate).is_ok() {
            report.deployed = true;
            report.downtime_s = self.target.reconfig_downtime_s();
            report.summary = summary;
        }
        Ok(())
    }

    /// The running plan's gain re-priced under `profile` (0 for the
    /// original program), or `None` when it can no longer be priced or no
    /// longer fits the resource limits: then any different plan the
    /// search returns replaces it.
    fn running_gain(&self, profile: &RuntimeProfile) -> Option<f64> {
        let original = GlobalPlan::default();
        let plan = self.applied.as_ref().map_or(&original, |a| &a.plan);
        let (gain, mem, update) = self.optimizer.score_plan(&self.original, profile, plan)?;
        self.cfg.limits.fits(mem, update).then_some(gain)
    }

    /// The warm-up price of deploying `plan` in place of what runs
    /// ([`Optimizer::warmup_ns`]). A reload target flushes every flow
    /// cache on a deploy, so there every cache of `plan` starts cold.
    fn warmup_ns(&self, profile: &RuntimeProfile, plan: &GlobalPlan) -> f64 {
        let original = GlobalPlan::default();
        let running = match &self.applied {
            Some(a) if self.target.reconfig_downtime_s() <= 0.0 => &a.plan,
            _ => &original,
        };
        self.optimizer
            .warmup_ns(&self.original, profile, plan, running)
    }

    /// Re-snapshots the control-loop metrics after a tick. Monotone
    /// totals mirror [`HealthReport`] (absolute sets, so the registry
    /// never drifts from the source of truth); gauges capture the
    /// breaker state; the search-time histogram accumulates.
    fn record_tick_metrics(&mut self, report: &TickReport) {
        let m = &mut self.metrics;
        m.counter_add("pipeleon_controller_ticks_total", &[], 1);
        if report.reoptimized {
            m.counter_add("pipeleon_reoptimizations_total", &[], 1);
        }
        if report.deployed {
            m.counter_add("pipeleon_deploys_total", &[], 1);
        }
        if self.health.degraded {
            m.counter_add("pipeleon_degraded_windows_total", &[], 1);
        }
        m.counter_set(
            "pipeleon_reconfigurations_total",
            &[],
            self.reconfig_count as u64,
        );
        m.counter_set(
            "pipeleon_deploy_retries_total",
            &[],
            self.health.deploy_retries,
        );
        m.counter_set("pipeleon_rollbacks_total", &[], self.health.rollbacks);
        m.counter_set(
            "pipeleon_profile_losses_total",
            &[],
            self.health.profile_losses,
        );
        m.counter_set(
            "pipeleon_plan_rejections_total",
            &[],
            self.health.plan_rejections,
        );
        m.gauge_set(
            "pipeleon_degraded",
            &[],
            if self.health.degraded { 1.0 } else { 0.0 },
        );
        m.gauge_set(
            "pipeleon_cooldown_remaining",
            &[],
            self.health.cooldown_remaining as f64,
        );
        m.gauge_set(
            "pipeleon_consecutive_deploy_failures",
            &[],
            self.health.consecutive_deploy_failures as f64,
        );
        m.gauge_set("pipeleon_profile_change", &[], report.profile_change);
        m.gauge_set("pipeleon_est_gain_ns", &[], report.est_gain_ns);
        if report.reoptimized {
            m.observe(
                "pipeleon_search_time_ns",
                &[],
                report.search_time.as_nanos() as f64,
            );
            m.gauge_set(
                "pipeleon_search_segment_evals",
                &[],
                report.segment_evals as f64,
            );
        }
        if report.deployed {
            m.gauge_set("pipeleon_downtime_s", &[], report.downtime_s);
        }
    }

    /// Checks every choice of `plan` against the plan-safety verifier
    /// ([`pipeleon_verify::PlanVerifier`]), collecting all violations.
    fn verify_plan(&self, plan: &pipeleon::plan::GlobalPlan) -> Result<(), RuntimeError> {
        let verifier = pipeleon_verify::PlanVerifier::new(&self.original);
        let mut violations = Vec::new();
        for c in &plan.choices {
            violations.extend(verifier.verify(&self.original, c).violations);
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidCandidate {
                source: None,
                violations,
            })
        }
    }

    /// Verifies and deploys an externally supplied optimization plan
    /// (operator-initiated reconfiguration).
    ///
    /// The plan is first proven safe by the [`pipeleon_verify`] plan
    /// verifier; a rejected plan returns
    /// [`RuntimeError::InvalidCandidate`] with the violations found and
    /// performs **no target operation whatsoever** — the deployed layout
    /// and the target's fingerprint are untouched. Legal plans are
    /// applied against the original program and deployed through the same
    /// transactional path as [`Controller::tick`].
    pub fn deploy_plan(&mut self, plan: &pipeleon::plan::GlobalPlan) -> Result<(), RuntimeError> {
        self.verify_plan(plan)?;
        let profile = self
            .last_profile
            .clone()
            .unwrap_or_else(RuntimeProfile::empty);
        let applied = apply_plan(
            &self.original,
            plan,
            &self.optimizer.model,
            &profile,
            &self.optimizer.cfg,
        )
        .map_err(|e| RuntimeError::InvalidCandidate {
            source: Some(e),
            violations: Vec::new(),
        })?;
        let fp = fingerprint(&applied.graph)?;
        if self.last_good_fingerprint() == Some(fp) {
            return Ok(()); // already running this layout
        }
        self.deploy_candidate_or_recover(applied, fp)
    }

    /// Inserts an entry into original-program table `table`, routing the
    /// operation to the optimized layout (direct insert, cache flush,
    /// merged-table re-materialization). Atomic: if any optimized site
    /// rejects the update, the original-program mutation is rolled back
    /// and the deployed state is restored.
    pub fn insert_entry(&mut self, table: NodeId, entry: TableEntry) -> Result<(), RuntimeError> {
        self.entry_op(
            table,
            "insert",
            ControlOp::InsertEntry { node: table, entry },
        )
    }

    /// Removes the entry at `index` from original-program table `table`.
    /// Atomic: a target-side failure restores both the original table and
    /// the deployed state.
    pub fn remove_entry(&mut self, table: NodeId, index: usize) -> Result<(), RuntimeError> {
        self.entry_op(
            table,
            "remove",
            ControlOp::RemoveEntry { node: table, index },
        )
    }

    /// One original-program entry op on `table` as a transaction: the
    /// source of truth takes it first (a rejected op changes nothing and
    /// returns the edit's error), then every optimized site does. If a
    /// site fails, the original table goes back to what it was and the
    /// deployed state is restored.
    fn entry_op(
        &mut self,
        table: NodeId,
        verb: &'static str,
        op: ControlOp,
    ) -> Result<(), RuntimeError> {
        let before = self
            .original
            .node(table)
            .and_then(|n| n.as_table())
            .cloned();
        op.edit_table(&mut self.original)?;
        if let Err(f) = self.route_update(table, op) {
            let slot = self.original.node_mut(table).and_then(|n| n.as_table_mut());
            if let (Some(slot), Some(before)) = (slot, before) {
                *slot = before;
            }
            if f.sites_applied {
                self.recover_deployed_state();
            }
            return Err(RuntimeError::EntryOpFailed {
                table,
                op: verb,
                source: Box::new(f.error),
            });
        }
        *self.update_counts.entry(table).or_insert(0) += 1;
        Ok(())
    }

    /// Applies one original-table entry op to every optimized site. The
    /// ops the target accepted are replayed onto the last-known-good
    /// mirror, through the same table edit, only after the whole fan-out
    /// succeeds, so a rollback always redeploys the pre-operation state.
    fn route_update(&mut self, table: NodeId, op: ControlOp) -> Result<(), FanOutFailure> {
        let sites = match &self.applied {
            Some(a) => a.entry_map.sites(table),
            None => vec![EntrySite::Direct],
        };
        let mut mirror: Vec<ControlOp> = Vec::new();
        for site in sites {
            let (site_op, remap) = match site {
                EntrySite::Direct => (op.clone(), None),
                EntrySite::CoveredByCache { cache } => {
                    // Infallible and semantically neutral: no mirror op.
                    let _ = self.target.apply(ControlOp::FlushCache(cache));
                    continue;
                }
                EntrySite::MergedInto {
                    merged,
                    components,
                    as_cache,
                    hit_exit,
                } => {
                    let Some((replace, action_map)) =
                        self.rematerialize(merged, &components, as_cache, hit_exit)
                    else {
                        // The cross-product outgrew the merge budget —
                        // §3.2.3: "Pipeleon will reverse the merge and
                        // recompute the optimizations". Redeploy the
                        // original program (which already contains the
                        // update); the next tick re-optimizes. If even
                        // that deploy fails, `pin_pending` is set and the
                        // next tick converges — the update itself stands.
                        let _ = self.revert_to_original();
                        return Ok(());
                    };
                    (replace, Some((merged, action_map)))
                }
            };
            if let Err(e) = self.target.apply(site_op.clone()) {
                return Err(FanOutFailure {
                    error: e.into(),
                    sites_applied: !mirror.is_empty(),
                });
            }
            if let (Some(a), Some((merged, action_map))) = (&mut self.applied, remap) {
                a.counter_map.replace_mappings(merged, &action_map);
            }
            mirror.push(site_op);
        }
        if mirror.is_empty() {
            return Ok(());
        }
        for op in &mirror {
            if op.edit_table(&mut self.last_good.graph).is_err() {
                // The mirror no longer matches what the target runs; force
                // a re-pin of the original program on the next tick (safe
                // and self-correcting, at the cost of one reconfiguration).
                self.health.pin_pending = true;
            }
        }
        self.last_good.fingerprint = None;
        Ok(())
    }

    /// Abandons the optimized layout and redeploys the original program
    /// (merge revert, §3.2.3), journaled and counted as a rollback to
    /// `"original"`. On failure the controller reports a typed error and
    /// re-attempts the pin at the start of the next tick.
    pub fn revert_to_original(&mut self) -> Result<(), RuntimeError> {
        if let Err(e) = self.pin_original() {
            self.health.pin_pending = true;
            return Err(RuntimeError::RollbackFailed {
                source: Box::new(e),
            });
        }
        self.note_rollback("original");
        Ok(())
    }

    /// The `ReplaceTable` that rebuilds merged table `merged` from the
    /// original components' current entries, with the action map its
    /// counters translate through — or `None` once the cross-product
    /// outgrows the merge budget (§3.2.3).
    fn rematerialize(
        &self,
        merged: NodeId,
        components: &[NodeId],
        as_cache: bool,
        hit_exit: Option<NodeId>,
    ) -> Option<(ControlOp, ActionMap)> {
        let profile = RuntimeProfile::empty();
        let ctx = EvalCtx {
            model: &self.optimizer.model,
            cfg: &self.optimizer.cfg,
            g: &self.original,
            profile: &profile,
            reach: 1.0,
        };
        let m = merge::materialize(&ctx, components, as_cache).ok()?;
        let next = as_cache.then(|| m.as_cache_hops(components[0], hit_exit));
        let op = ControlOp::ReplaceTable {
            node: merged,
            table: m.table,
            next,
        };
        Some((op, m.action_map))
    }
}

/// Registers `# HELP` text for every control-loop series the controller
/// emits, so a scrape of [`Controller::metrics`] is self-describing.
fn register_help(m: &mut MetricsRegistry) {
    m.help(
        "pipeleon_controller_ticks_total",
        "Profiling windows processed by the controller",
    );
    m.help(
        "pipeleon_reoptimizations_total",
        "Windows in which the top-k search ran",
    );
    m.help("pipeleon_deploys_total", "Successful candidate deployments");
    m.help(
        "pipeleon_degraded_windows_total",
        "Windows spent with the deploy circuit breaker open",
    );
    m.help(
        "pipeleon_reconfigurations_total",
        "Target reconfigurations performed (deploys + pins)",
    );
    m.help(
        "pipeleon_deploy_retries_total",
        "Deploy retries beyond first attempts",
    );
    m.help(
        "pipeleon_rollbacks_total",
        "Rollbacks to the last-known-good (or original) layout",
    );
    m.help(
        "pipeleon_profile_losses_total",
        "Profiling windows that came back empty (telemetry loss)",
    );
    m.help(
        "pipeleon_plan_rejections_total",
        "Plans the safety verifier refused to deploy",
    );
    m.help(
        "pipeleon_degraded",
        "1 while the deploy circuit breaker is open, else 0",
    );
    m.help(
        "pipeleon_cooldown_remaining",
        "Healthy ticks remaining before the breaker closes",
    );
    m.help(
        "pipeleon_consecutive_deploy_failures",
        "Consecutive failed deploy transactions",
    );
    m.help(
        "pipeleon_profile_change",
        "Profile distance between the last two windows",
    );
    m.help(
        "pipeleon_est_gain_ns",
        "Estimated per-packet gain of the best plan, ns",
    );
    m.help(
        "pipeleon_search_time_ns",
        "Wall-clock time of each top-k search, ns",
    );
    m.help(
        "pipeleon_search_segment_evals",
        "Distinct cache/merge segments the last search scored",
    );
    m.help(
        "pipeleon_downtime_s",
        "Service interruption of the last deployment, s",
    );
    m.help(
        "pipeleon_swap_latency_ns",
        "Publish latency of each live generation swap, ns",
    );
    m.help(
        "pipeleon_active_generation",
        "Generation id of the live program the datapath runs",
    );
    m.help(
        "pipeleon_inflight_at_swap_total",
        "Packets in flight at live swap publication (old generation)",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultyTarget, InjectedFault};
    use crate::target::{graph_fingerprint, SimTarget};
    use pipeleon_cost::{CostModel, CostParams};
    use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder};
    use pipeleon_sim::{Packet, SmartNic};
    use pipeleon_workloads::scenarios::{AclPipeline, ACL_DROP_VALUE};

    fn controller_for(p: &AclPipeline, cfg: ControllerConfig) -> Controller<SimTarget> {
        let nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        let mut nic = nic;
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        Controller::new(SimTarget::live(nic), p.graph.clone(), optimizer, cfg).unwrap()
    }

    fn faulty_controller_for(
        p: &AclPipeline,
        cfg: ControllerConfig,
        faults: FaultConfig,
    ) -> Controller<FaultyTarget<SimTarget>> {
        let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let mut target = FaultyTarget::new(SimTarget::live(nic), faults);
        // Never fault the construction deploy; tests arm or script faults
        // afterwards.
        target.set_armed(false);
        let mut c = Controller::new(target, p.graph.clone(), optimizer, cfg).unwrap();
        c.target.set_armed(true);
        c
    }

    #[test]
    fn tick_reoptimizes_on_drop_rate_shift() {
        let p = AclPipeline::build(3, 3);
        let mut c = controller_for(&p, ControllerConfig::default());
        // Window 1: last ACL drops heavily.
        let mut gen = p.traffic(&[0.0, 0.0, 0.7], 500, 1);
        c.target.nic.measure(gen.batch(4000));
        let r1 = c.tick().unwrap();
        assert!(r1.reoptimized);
        assert!(r1.deployed, "expected a reorder deployment: {r1:?}");
        // The heavy ACL should now run earlier than the other ACLs.
        let deployed = c.target.nic.graph();
        let order = deployed.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(p.acls[2]) < pos(p.acls[0]));
        // Window 2: same traffic -> no change, no redeploy.
        let mut gen = p.traffic(&[0.0, 0.0, 0.7], 500, 2);
        c.target.nic.measure(gen.batch(4000));
        let r2 = c.tick().unwrap();
        assert!(!r2.deployed, "{r2:?}");
        // Window 3: drop shifts to the first ACL -> redeploy.
        let mut gen = p.traffic(&[0.7, 0.0, 0.0], 500, 3);
        c.target.nic.measure(gen.batch(4000));
        let r3 = c.tick().unwrap();
        assert!(r3.deployed, "{r3:?}");
        let deployed = c.target.nic.graph();
        let order = deployed.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(p.acls[0]) < pos(p.acls[2]));
        assert_eq!(c.reconfig_count, 2);
        // A fault-free run reports clean health; specialization
        // activity is expected (the stable window 2 specializes, the
        // drifted window 3 sheds the plan) and is not a fault.
        let expected = HealthReport {
            specializations: r3.health.specializations,
            despecializations: r3.health.despecializations,
            ..HealthReport::default()
        };
        assert_eq!(r3.health, expected);
    }

    #[test]
    fn entry_api_round_trips_through_optimized_layout() {
        let p = AclPipeline::build(2, 2);
        let mut c = controller_for(&p, ControllerConfig::default());
        // Deploy an optimized layout first.
        let mut gen = p.traffic(&[0.0, 0.6], 500, 1);
        c.target.nic.measure(gen.batch(4000));
        c.tick().unwrap();
        // Insert a new deny rule into ACL0 via the original-program API.
        let deny_value = 0x1234;
        c.insert_entry(
            p.acls[0],
            pipeleon_ir::TableEntry::new(vec![MatchValue::Exact(deny_value)], 1),
        )
        .unwrap();
        // A packet matching the new rule must now be dropped by the
        // deployed (optimized) program.
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], deny_value);
        let r = c.target.nic.process_one(&mut pkt);
        assert!(r.dropped, "new entry must take effect on the target");
        // And the original program records it too.
        let orig_entries = &c
            .original()
            .node(p.acls[0])
            .unwrap()
            .as_table()
            .unwrap()
            .entries;
        assert_eq!(orig_entries.len(), 2); // preinstalled + new
                                           // Removing it restores forwarding.
        c.remove_entry(p.acls[0], 1).unwrap();
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], deny_value);
        assert!(!c.target.nic.process_one(&mut pkt).dropped);
    }

    #[test]
    fn drop_value_entry_survives_reorder() {
        let p = AclPipeline::build(2, 3);
        let mut c = controller_for(&p, ControllerConfig::default());
        let mut gen = p.traffic(&[0.0, 0.0, 0.5], 300, 9);
        c.target.nic.measure(gen.batch(3000));
        c.tick().unwrap();
        // The preinstalled ACL_DROP_VALUE rules still work post-reorder.
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[1], ACL_DROP_VALUE);
        assert!(c.target.nic.process_one(&mut pkt).dropped);
    }

    /// Four ternary tables of five entries on a live target that profiles
    /// every packet, and the fields the tables match.
    fn ternary_chain() -> (Controller<SimTarget>, Vec<pipeleon_ir::FieldRef>) {
        let mut b = ProgramBuilder::new();
        let mut ids = Vec::new();
        let mut fields = Vec::new();
        for i in 0..4 {
            let f = b.field(&format!("k{i}"));
            fields.push(f);
            let mut tb = b
                .table(format!("tern{i}"))
                .key(f, MatchKind::Ternary)
                .action("a", vec![pipeleon_ir::Primitive::Nop])
                .action_nop("miss")
                .default_action(1);
            for m in 0..5u64 {
                tb = tb.entry(TableEntry::with_priority(
                    vec![MatchValue::Ternary {
                        value: m,
                        mask: 0xFF << (8 * m),
                    }],
                    0,
                    m as i32,
                ));
            }
            ids.push(tb.finish());
        }
        let g = b.seal(ids[0]).unwrap();
        let params = CostParams::bluefield2();
        let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
        nic.set_instrumentation(true, 1);
        let c = Controller::new(
            SimTarget::live(nic),
            g,
            Optimizer::new(CostModel::new(params)),
            ControllerConfig::default(),
        )
        .unwrap();
        (c, fields)
    }

    /// 6,000 packets of [`ternary_chain`] over `flows` flows, keys from
    /// `base`.
    fn ternary_traffic(
        c: &mut Controller<SimTarget>,
        fields: &[pipeleon_ir::FieldRef],
        base: u64,
        flows: u64,
    ) {
        for i in 0..6000u64 {
            let mut pkt = Packet::new(&c.original.fields);
            for (j, &f) in fields.iter().enumerate() {
                pkt.set(f, base + i % flows * 4 + j as u64);
            }
            c.target.nic.process_one(&mut pkt);
        }
    }

    /// The first `plan_kept` event of `c`'s journal:
    /// `(candidate, running, warmup_ns, horizon_packets)`.
    fn first_plan_kept<T: Target>(c: &Controller<T>) -> Option<(f64, f64, f64, f64)> {
        c.journal().iter().find_map(|e| match e.kind {
            EventKind::PlanKept {
                candidate_gain_ns,
                running_gain_ns,
                warmup_ns,
                horizon_packets,
            } => Some((
                candidate_gain_ns,
                running_gain_ns,
                warmup_ns,
                horizon_packets,
            )),
            _ => None,
        })
    }

    /// Low-locality traffic makes a deployed cache's real hit rate
    /// collapse; after monitoring, the next plan must stop assuming the
    /// optimistic default. The first window repeats four flows, so the
    /// caches the first plan starts cold fill in a few misses and the plan
    /// deploys; a first window of unique keys would not deploy it (see
    /// `a_deploy_that_cannot_repay_its_warm_up_keeps_the_running_plan`).
    #[test]
    fn measured_cache_hit_rates_feed_back_into_planning() {
        let (mut c, fields) = ternary_chain();
        ternary_traffic(&mut c, &fields, 0, 4);
        let r1 = c.tick().unwrap();
        assert!(r1.deployed, "first plan should deploy caches: {r1:?}");
        assert!(c
            .applied()
            .map(|a| !a.cache_nodes.is_empty())
            .unwrap_or(false));
        // Unique-key traffic on the cached layout: every packet is a new
        // flow, so nearly every lookup misses.
        ternary_traffic(&mut c, &fields, 1_000_000, 6000);
        let _r2 = c.tick().unwrap();
        // The measured hint must now exist and be pessimistic.
        let hint_is_low = c.cache_hints.values().any(|&h| h < 0.3);
        assert!(
            hint_is_low,
            "expected a low measured hit rate: {:?}",
            c.cache_hints
        );
    }

    /// 6,000 packets of 6,000 flows: the search's caches would gain
    /// 87.5 ns a packet over the original program, but each must first
    /// miss on every one of the 4,096 keys it can hold, and one window is
    /// all a plan has lived so far.
    #[test]
    fn a_deploy_that_cannot_repay_its_warm_up_keeps_the_running_plan() {
        let (mut c, fields) = ternary_chain();
        ternary_traffic(&mut c, &fields, 0, 6000);
        let r = c.tick().unwrap();
        assert!(r.reoptimized && !r.deployed, "{r:?}");
        assert!(c.applied().is_none());
        let kept = first_plan_kept(&c);
        let (candidate, running, warmup_ns, horizon_packets) =
            kept.expect("the kept plan is journaled");
        assert_eq!((candidate, running), (r.est_gain_ns, 0.0));
        assert_eq!(horizon_packets, 6000.0);
        // The price of the search's plan, every cache of it cold.
        let profile = c.last_profile.as_ref().unwrap();
        let searched = c
            .optimizer
            .optimize(&c.original, profile, c.cfg.limits)
            .unwrap()
            .plan;
        assert!(!searched.is_empty());
        let none = GlobalPlan::default();
        let price = c
            .optimizer
            .warmup_ns(&c.original, profile, &searched, &none);
        assert_eq!(warmup_ns, price);
        assert!(
            candidate > 0.0 && candidate * horizon_packets <= warmup_ns,
            "{kept:?}"
        );
    }

    /// The same search over 6,000 packets of four flows: its caches start
    /// cold but fill in a few misses, which the gain repays many times.
    #[test]
    fn a_deploy_that_repays_its_warm_up_replaces_the_running_plan() {
        let (mut c, fields) = ternary_chain();
        ternary_traffic(&mut c, &fields, 0, 4);
        let r = c.tick().unwrap();
        assert!(r.reoptimized && r.deployed, "{r:?}");
        assert_eq!(first_plan_kept(&c), None);
        let applied = c.applied().expect("the plan runs");
        assert!(!applied.cache_nodes.is_empty());
        let profile = c.last_profile.as_ref().unwrap();
        let none = GlobalPlan::default();
        let price = c
            .optimizer
            .warmup_ns(&c.original, profile, &applied.plan, &none);
        assert!(price > 0.0 && r.est_gain_ns * 6000.0 > price, "{price}");
    }

    #[test]
    fn merged_table_rematerializes_on_update() {
        // Two small static exact tables that the optimizer merges as a
        // cache; inserting into a component must re-materialize.
        let mut b = ProgramBuilder::new();
        let f0 = b.field("f0");
        let f1 = b.field("f1");
        let y = b.field("y");
        let z = b.field("z");
        let t0 = b
            .table("t0")
            .key(f0, MatchKind::Exact)
            .action("set_y", vec![pipeleon_ir::Primitive::set(y, 1)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(1)], 0))
            .finish();
        let _t1 = b
            .table("t1")
            .key(f1, MatchKind::Exact)
            .action("set_z", vec![pipeleon_ir::Primitive::set(z, 2)])
            .action_nop("miss")
            .default_action(1)
            .entry(TableEntry::new(vec![MatchValue::Exact(2)], 0))
            .finish();
        let g = b.seal(t0).unwrap();
        let nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let mut c = Controller::new(
            SimTarget::live(nic),
            g.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        // Traffic that always hits both tables -> merge-as-cache wins.
        for _ in 0..200 {
            let mut pkt = Packet::new(&g.fields);
            pkt.set(f0, 1);
            pkt.set(f1, 2);
            c.target.nic.set_instrumentation(true, 1);
            c.target.nic.process_one(&mut pkt);
        }
        let r = c.tick().unwrap();
        let merged_deployed = c
            .applied()
            .map(|a| {
                a.entry_map
                    .sites(t0)
                    .iter()
                    .any(|s| matches!(s, EntrySite::MergedInto { .. }))
            })
            .unwrap_or(false);
        if !merged_deployed {
            // The optimizer may legitimately prefer a flow cache here;
            // the re-materialization path is then covered by the
            // entry-site routing below only when a merge exists.
            eprintln!("note: no merge deployed (plan: {:?})", r.summary);
            return;
        }
        // New entry in t0 must re-materialize the merged table so the new
        // combination hits.
        c.insert_entry(t0, TableEntry::new(vec![MatchValue::Exact(7)], 0))
            .unwrap();
        let mut pkt = Packet::new(&g.fields);
        pkt.set(f0, 7);
        pkt.set(f1, 2);
        c.target.nic.process_one(&mut pkt);
        assert_eq!(pkt.get(y), 1);
        assert_eq!(pkt.get(z), 2);
    }

    // ---- fault-path unit tests (tentpole + satellites) ----

    fn heavy_window(c: &mut Controller<FaultyTarget<SimTarget>>, p: &AclPipeline, seed: u64) {
        let n = p.acls.len();
        let mut rates = vec![0.0; n];
        rates[(seed as usize) % n] = 0.7;
        let mut gen = p.traffic(&rates, 500, seed);
        c.target.inner.nic.measure(gen.batch(4000));
    }

    #[test]
    fn failed_insert_rolls_back_the_original_table() {
        let p = AclPipeline::build(2, 2);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        let before = c
            .original()
            .node(p.acls[0])
            .unwrap()
            .as_table()
            .unwrap()
            .entries
            .len();
        c.target.inject_next(InjectedFault::EntryOpFail, 1);
        let err = c
            .insert_entry(p.acls[0], TableEntry::new(vec![MatchValue::Exact(0x77)], 1))
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::EntryOpFailed { op: "insert", .. }),
            "{err:?}"
        );
        // Source of truth unchanged (satellite: ordering bug fixed).
        let after = c
            .original()
            .node(p.acls[0])
            .unwrap()
            .as_table()
            .unwrap()
            .entries
            .len();
        assert_eq!(after, before, "original must not run ahead of the target");
        // The failed op must not leak into the update-rate counters.
        assert!(c.update_counts.is_empty());
        // Target unaffected: the probe value is not dropped.
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], 0x77);
        assert!(!c.target.inner.nic.process_one(&mut pkt).dropped);
        // Retrying without faults succeeds.
        c.insert_entry(p.acls[0], TableEntry::new(vec![MatchValue::Exact(0x77)], 1))
            .unwrap();
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], 0x77);
        assert!(c.target.inner.nic.process_one(&mut pkt).dropped);
    }

    #[test]
    fn an_entry_the_table_refuses_leaves_the_original_unchanged() {
        let p = AclPipeline::build(2, 2);
        let mut c = controller_for(&p, ControllerConfig::default());
        let before = graph_fingerprint(c.original());
        // Two match values for a one-key table.
        let bad = TableEntry::new(vec![MatchValue::Exact(1), MatchValue::Exact(2)], 1);
        let err = c.insert_entry(p.acls[0], bad).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Ir(pipeleon_ir::IrError::BadEntry { .. })),
            "{err:?}"
        );
        assert_eq!(graph_fingerprint(c.original()), before);
        assert!(c.update_counts.is_empty());
    }

    #[test]
    fn failed_remove_restores_the_original_entry() {
        let p = AclPipeline::build(2, 2);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        c.insert_entry(p.acls[0], TableEntry::new(vec![MatchValue::Exact(0x88)], 1))
            .unwrap();
        c.target.inject_next(InjectedFault::EntryOpFail, 1);
        let err = c.remove_entry(p.acls[0], 1).unwrap_err();
        assert!(
            matches!(err, RuntimeError::EntryOpFailed { op: "remove", .. }),
            "{err:?}"
        );
        // The entry is still present in the original AND on the target.
        let entries = &c
            .original()
            .node(p.acls[0])
            .unwrap()
            .as_table()
            .unwrap()
            .entries;
        assert_eq!(entries.len(), 2);
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], 0x88);
        assert!(c.target.inner.nic.process_one(&mut pkt).dropped);
        // And the remove works once the fault clears.
        c.remove_entry(p.acls[0], 1).unwrap();
        let mut pkt = Packet::new(&p.graph.fields);
        pkt.set(p.acl_fields[0], 0x88);
        assert!(!c.target.inner.nic.process_one(&mut pkt).dropped);
    }

    #[test]
    fn transient_deploy_rejection_is_retried() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        heavy_window(&mut c, &p, 2);
        // First attempt rejected; the retry must land the deploy.
        c.target.inject_next(InjectedFault::DeployReject, 1);
        let r = c.tick().unwrap();
        assert!(r.deployed, "retry should recover: {r:?}");
        assert_eq!(r.health.deploy_retries, 1);
        assert_eq!(r.health.consecutive_deploy_failures, 0);
        assert_eq!(r.health.rollbacks, 0);
    }

    #[test]
    fn torn_stale_deploy_is_detected_by_readback_and_retried() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        heavy_window(&mut c, &p, 2);
        // The target acks the deploy but keeps running the old program;
        // only the fingerprint verification can catch this.
        c.target.inject_next(InjectedFault::TornDeployStale, 1);
        let r = c.tick().unwrap();
        assert!(
            r.deployed,
            "verification must trigger a winning retry: {r:?}"
        );
        assert_eq!(r.health.deploy_retries, 1);
        // The deployed program really is the optimized one.
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.last_known_good())
        );
    }

    #[test]
    fn exhausted_deploy_rolls_back_to_last_known_good() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        heavy_window(&mut c, &p, 2);
        // Every attempt of the candidate transaction fails; the rollback
        // deploy (the next deploy call) succeeds.
        c.target
            .inject_next(InjectedFault::DeployReject, 1 + MAX_DEPLOY_RETRIES);
        let r = c.tick().unwrap();
        assert!(!r.deployed, "{r:?}");
        assert_eq!(r.health.consecutive_deploy_failures, 1);
        assert_eq!(r.health.rollbacks, 1);
        assert!(!r.health.pin_pending);
        // Target still runs the last-known-good (= original) program.
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.last_known_good())
        );
        // The next window with the same pressure deploys cleanly.
        heavy_window(&mut c, &p, 3);
        let r2 = c.tick().unwrap();
        assert!(r2.deployed, "{r2:?}");
        assert_eq!(r2.health.consecutive_deploy_failures, 0);
    }

    #[test]
    fn entry_ops_leave_fingerprinting_the_mirror_to_its_next_reader() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        assert!(c.last_good.fingerprint.is_some());
        // Entry operations update the mirror and never hash it.
        for k in 0..6u64 {
            let entry = pipeleon_ir::TableEntry::new(vec![MatchValue::Exact(1 << 20 | k)], 1);
            c.insert_entry(p.acls[(k % 2) as usize], entry).unwrap();
            assert!(c.last_good.fingerprint.is_none());
        }
        c.remove_entry(p.acls[0], 1).unwrap();
        assert!(c.last_good.fingerprint.is_none());
        // What hashing after every operation would have left behind: the
        // fingerprint of the layout the target now runs.
        let eager = fingerprint(&c.last_good.graph).unwrap();
        assert_eq!(c.target.fingerprint().unwrap(), eager);
        // A searching tick reads the mirror (one hash, for the compare);
        // its candidate deploy fails on every attempt, and the rollback
        // redeploys that same layout.
        heavy_window(&mut c, &p, 2);
        c.target
            .inject_next(InjectedFault::DeployReject, 1 + MAX_DEPLOY_RETRIES);
        let r = c.tick().unwrap();
        assert!(r.reoptimized && !r.deployed, "{r:?}");
        assert_eq!(r.health.rollbacks, 1);
        assert!(!r.health.pin_pending);
        assert_eq!(c.last_good.fingerprint, Some(eager));
        assert_eq!(c.target.fingerprint().unwrap(), eager);
        // The next tick deploys its candidate and keeps that candidate's
        // fingerprint.
        heavy_window(&mut c, &p, 3);
        let r2 = c.tick().unwrap();
        assert!(r2.deployed, "{r2:?}");
        let deployed = fingerprint(&c.last_good.graph).unwrap();
        assert_eq!(c.last_good.fingerprint, Some(deployed));
        assert_eq!(c.target.fingerprint().unwrap(), deployed);
    }

    #[test]
    fn circuit_breaker_degrades_then_recovers() {
        let p = AclPipeline::build(3, 3);
        let mut faults = FaultConfig::none(1);
        faults.deploy_reject_p = 1.0; // every deploy fails while armed
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), faults);
        // Each window moves the heavy drop to the next ACL, so every tick
        // sees its profile drift.
        let mut seed = 0;
        let mut drifting = |c: &mut Controller<FaultyTarget<SimTarget>>| {
            seed += 1;
            heavy_window(c, &p, seed);
            c.tick().unwrap()
        };
        // Every candidate deploy is rejected. The rollback "succeeds" via
        // readback (the target never left the last-known-good program), so
        // the loop is healthy-but-stuck; the breaker opens after
        // `DEGRADE_AFTER` consecutive failed transactions.
        for failures in 1..=DEGRADE_AFTER {
            let r = drifting(&mut c);
            assert!(r.reoptimized && !r.deployed, "{r:?}");
            assert_eq!(r.health.consecutive_deploy_failures, failures);
            assert_eq!(r.health.rollbacks, u64::from(failures));
            assert!(!r.health.pin_pending, "target never diverged: {r:?}");
            assert_eq!(r.health.degraded, failures == DEGRADE_AFTER, "{r:?}");
        }
        assert_eq!(c.health().cooldown_remaining, COOLDOWN_TICKS);
        assert!(
            c.journal().iter().any(|e| e.kind.tag() == "breaker_opened"),
            "breaker transition must be journaled"
        );
        // Degraded ticks: no re-optimization, original stays pinned,
        // cooldown counts down over healthy windows and the last closes
        // the breaker.
        for left in (0..COOLDOWN_TICKS).rev() {
            let r = drifting(&mut c);
            assert!(!r.reoptimized, "degraded mode suspends optimization");
            assert_eq!(
                c.target.fingerprint().unwrap(),
                graph_fingerprint(c.original()),
                "degraded mode pins the original program"
            );
            assert_eq!(r.health.cooldown_remaining, left);
            assert_eq!(r.health.degraded, left > 0, "{r:?}");
        }
        assert_eq!(c.health().consecutive_deploy_failures, 0);
        assert!(
            c.journal().iter().any(|e| e.kind.tag() == "breaker_closed"),
            "breaker close must be journaled"
        );
        assert!(
            c.metrics()
                .counter_value("pipeleon_degraded_windows_total", &[])
                .unwrap_or(0)
                >= 2,
            "degraded windows must be counted"
        );
        // Fault clears: re-optimization resumes and deploys land again.
        c.target.set_armed(false);
        let r = drifting(&mut c);
        assert!(r.reoptimized, "{r:?}");
        assert!(r.deployed, "{r:?}");
    }

    #[test]
    fn journal_and_metrics_capture_the_control_loop() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        let tags: Vec<&str> = c.journal().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            ["generation_swap"],
            "construction journals the original's deploy, nothing else"
        );
        heavy_window(&mut c, &p, 2);
        let r1 = c.tick().unwrap();
        assert!(r1.deployed, "{r1:?}");
        let tags: Vec<&str> = c.journal().iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"window_profiled"), "{tags:?}");
        assert!(tags.contains(&"deploy"), "{tags:?}");
        assert!(c.clock_s() > 0.0, "the journal clock tracks window time");
        // A candidate deploy whose retries are exhausted journals the
        // failure and the rollback that recovered the target.
        heavy_window(&mut c, &p, 3);
        c.target
            .inject_next(InjectedFault::DeployReject, 1 + MAX_DEPLOY_RETRIES);
        let r2 = c.tick().unwrap();
        assert!(!r2.deployed, "{r2:?}");
        let tags: Vec<&str> = c.journal().iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"deploy_failed"), "{tags:?}");
        assert!(tags.contains(&"rollback"), "{tags:?}");
        // Metrics mirror the health counters and expose cleanly.
        let m = c.metrics();
        assert_eq!(
            m.counter_value("pipeleon_controller_ticks_total", &[]),
            Some(2)
        );
        assert_eq!(m.counter_value("pipeleon_deploys_total", &[]), Some(1));
        assert_eq!(m.counter_value("pipeleon_rollbacks_total", &[]), Some(1));
        assert_eq!(
            m.counter_value("pipeleon_deploy_retries_total", &[]),
            Some(c.health().deploy_retries)
        );
        // The second search scored segments afresh (its profile moved)
        // and the gauge carries exactly its count.
        assert!(r2.segment_evals > 0);
        assert_eq!(
            m.gauge_value("pipeleon_search_segment_evals", &[]),
            Some(r2.segment_evals as f64)
        );
        let text = m.render_prometheus();
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("# HELP pipeleon_rollbacks_total"));
        // The journal renders as JSONL with monotone sequence numbers.
        let jsonl = c.journal().to_jsonl();
        assert!(!jsonl.is_empty());
        let seqs: Vec<u64> = c.journal().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    }

    #[test]
    fn journal_capacity_bounds_memory() {
        let p = AclPipeline::build(2, 2);
        let mut c = controller_for(&p, ControllerConfig::default());
        // One journaled window per tick, more ticks than the ring holds.
        let window = p.traffic(&[0.0, 0.3], 200, 7).batch(16);
        for _ in 0..JOURNAL_CAPACITY + 8 {
            c.target.nic.measure(window.clone());
            c.tick().unwrap();
        }
        assert_eq!(c.journal().len(), JOURNAL_CAPACITY);
        assert!(c.journal().dropped() > 0, "old events must be evicted");
        assert_eq!(
            c.journal().total(),
            c.journal().len() as u64 + c.journal().dropped()
        );
    }

    #[test]
    fn revert_failure_is_typed_and_next_tick_repairs() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        heavy_window(&mut c, &p, 2);
        let r = c.tick().unwrap();
        assert!(r.deployed, "need an optimized layout to revert: {r:?}");
        // All deploys fail during the revert.
        c.target
            .inject_next(InjectedFault::DeployReject, 1 + MAX_DEPLOY_RETRIES);
        let err = c.revert_to_original().unwrap_err();
        assert!(
            matches!(err, RuntimeError::RollbackFailed { .. }),
            "{err:?}"
        );
        assert!(c.health().pin_pending);
        // The next tick's repair pass re-pins the original program. No
        // traffic this window, so nothing re-optimizes afterwards and we
        // can observe the repaired state directly.
        let _ = c.tick().unwrap();
        assert!(!c.health().pin_pending);
        assert!(c.applied().is_none());
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.original())
        );
    }

    #[test]
    fn lost_profile_window_is_not_drift() {
        let p = AclPipeline::build(3, 3);
        let mut c = faulty_controller_for(&p, ControllerConfig::default(), FaultConfig::none(1));
        heavy_window(&mut c, &p, 2);
        let r1 = c.tick().unwrap();
        assert!(r1.deployed, "{r1:?}");
        // The next window's profile is lost entirely.
        heavy_window(&mut c, &p, 2);
        c.target.inject_next(InjectedFault::ProfileLoss, 1);
        let r2 = c.tick().unwrap();
        assert!(!r2.reoptimized, "an empty window must not look like drift");
        assert!(!r2.deployed);
        assert_eq!(r2.profile_change, 0.0);
        assert_eq!(r2.health.profile_losses, 1);
        // A healthy window with the SAME traffic as window 1 compares
        // against window 1's baseline (not the empty one) -> no storm.
        heavy_window(&mut c, &p, 2);
        let r3 = c.tick().unwrap();
        assert!(!r3.deployed, "spurious redeploy after profile loss: {r3:?}");
    }

    /// A plan with one choice: `order` for pipelet 0, with `segments`.
    fn single_choice_plan(
        order: Vec<NodeId>,
        segments: Vec<pipeleon::plan::Segment>,
    ) -> pipeleon::plan::GlobalPlan {
        pipeleon::plan::GlobalPlan {
            choices: vec![pipeleon::plan::Candidate {
                pipelet: 0,
                order,
                segments,
                gain: 10.0,
                mem_cost: 0.0,
                update_cost: 0.0,
                group_branch: None,
            }],
            total_gain: 10.0,
            total_mem: 0.0,
            total_update: 0.0,
        }
    }

    /// A two-table program with a read-after-write hazard (`t0` writes the
    /// field `t1` matches on), behind a target that faults only when a
    /// test scripts it to, plus a plan swapping them — illegal — and a
    /// plan caching `t1` in place — legal.
    fn hazard_controller() -> (
        Controller<FaultyTarget<SimTarget>>,
        pipeleon::plan::GlobalPlan,
        pipeleon::plan::GlobalPlan,
    ) {
        use pipeleon::plan::{Segment, SegmentKind};
        let mut b = ProgramBuilder::new();
        let fa = b.field("a");
        let fw = b.field("w");
        let t0 = b
            .table("t0")
            .key(fa, MatchKind::Exact)
            .action("wr", vec![pipeleon_ir::Primitive::set(fw, 7)])
            .entry(pipeleon_ir::TableEntry::new(vec![MatchValue::Exact(1)], 0))
            .finish();
        let t1 = b
            .table("t1")
            .key(fw, MatchKind::Exact)
            .entry(pipeleon_ir::TableEntry::new(vec![MatchValue::Exact(7)], 0))
            .finish();
        let g = b.seal_sequential().unwrap();
        let nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let c = Controller::new(
            FaultyTarget::new(SimTarget::live(nic), FaultConfig::none(0)),
            g,
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        let illegal = single_choice_plan(vec![t1, t0], Vec::new());
        let legal = single_choice_plan(
            vec![t0, t1],
            vec![Segment {
                start: 1,
                end: 2,
                kind: SegmentKind::Cache,
            }],
        );
        (c, illegal, legal)
    }

    #[test]
    fn verifier_rejected_plan_is_never_deployed() {
        let (mut c, illegal, _) = hazard_controller();
        let fp_before = c.target.fingerprint().unwrap();
        let reconfigs_before = c.reconfig_count;
        let err = c.deploy_plan(&illegal).unwrap_err();
        match &err {
            RuntimeError::InvalidCandidate { source, violations } => {
                assert!(source.is_none(), "{err:?}");
                assert!(
                    violations
                        .iter()
                        .any(|v| v.code == pipeleon_verify::Code::ReorderHazard),
                    "{violations:?}"
                );
            }
            other => panic!("expected InvalidCandidate, got {other:?}"),
        }
        // No target operation happened: the running program, the
        // reconfiguration counter, and the applied layout are untouched.
        assert_eq!(c.target.fingerprint().unwrap(), fp_before);
        assert_eq!(c.reconfig_count, reconfigs_before);
        assert!(c.applied().is_none());
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.original())
        );
    }

    #[test]
    fn legal_plan_deploys_through_the_safety_gate() {
        let (mut c, _, legal) = hazard_controller();
        let fp_before = c.target.fingerprint().unwrap();
        c.deploy_plan(&legal).unwrap();
        assert_eq!(c.reconfig_count, 1);
        assert!(c.applied().is_some());
        assert_ne!(
            c.target.fingerprint().unwrap(),
            fp_before,
            "a cache rewrite must change the deployed layout"
        );
        // Redeploying the identical plan is a no-op (already running).
        c.deploy_plan(&legal).unwrap();
        assert_eq!(c.reconfig_count, 1);
    }

    #[test]
    fn failed_plan_deploys_trip_the_breaker() {
        let (mut c, _, legal) = hazard_controller();
        let attempts = 1 + MAX_DEPLOY_RETRIES;
        for failures in 1..=DEGRADE_AFTER {
            // Every attempt of the candidate deploy is rejected; the
            // rollback redeploy lands.
            c.target.inject_next(InjectedFault::DeployReject, attempts);
            let err = c.deploy_plan(&legal).unwrap_err();
            assert!(matches!(err, RuntimeError::DeployFailed { .. }), "{err:?}");
            assert_eq!(c.health().consecutive_deploy_failures, failures);
            assert_eq!(c.health().rollbacks, u64::from(failures));
            let opened = DEGRADE_AFTER == failures;
            assert_eq!(c.health().degraded, opened, "after {failures} failures");
        }
        assert_eq!(c.health().cooldown_remaining, COOLDOWN_TICKS);
        assert!(
            c.journal().iter().any(|e| e.kind.tag() == "breaker_opened"),
            "the breaker opening must be journaled"
        );
        assert!(c.applied().is_none());
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.original())
        );
    }

    /// A controller whose search only reorders, so a cached plan is out
    /// of its reach and only an operator deploys one.
    fn reorder_only_controller(p: &AclPipeline) -> Controller<SimTarget> {
        let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        nic.set_instrumentation(true, 1);
        let cfg = pipeleon::config::OptimizerConfig {
            enable_cache: false,
            enable_merge: false,
            enable_groups: false,
            ..Default::default()
        };
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2())).with_config(cfg);
        let cfg = ControllerConfig::default();
        Controller::new(SimTarget::live(nic), p.graph.clone(), optimizer, cfg).unwrap()
    }

    /// The running plan with a cache over the pipeline's regular tables.
    fn with_regular_cached(c: &Controller<SimTarget>, p: &AclPipeline) -> GlobalPlan {
        use pipeleon::plan::{Segment, SegmentKind};
        let mut plan = c.applied().expect("an optimized layout runs").plan.clone();
        let choice = &mut plan.choices[0];
        let at = |id: &NodeId| choice.order.iter().position(|o| o == id).unwrap();
        let start = p.regular.iter().map(at).min().unwrap();
        assert_eq!(
            p.regular.iter().map(at).max(),
            Some(start + p.regular.len() - 1)
        );
        choice.segments = vec![Segment {
            start,
            end: start + p.regular.len(),
            kind: SegmentKind::Cache,
        }];
        plan
    }

    /// One measured window of `p`'s traffic, then a tick.
    fn window(
        c: &mut Controller<SimTarget>,
        p: &AclPipeline,
        drops: &[f64],
        flows: usize,
        seed: u64,
    ) -> TickReport {
        c.target
            .nic
            .measure(p.traffic(drops, flows, seed).batch(4096));
        c.tick().unwrap()
    }

    #[test]
    fn a_search_that_does_not_beat_the_running_plan_keeps_it() {
        let p = AclPipeline::build(3, 3);
        let mut c = reorder_only_controller(&p);
        assert!(window(&mut c, &p, &[0.0, 0.0, 0.7], 16, 1).deployed);
        let cached = with_regular_cached(&c, &p);
        c.deploy_plan(&cached).unwrap();
        let running = c.target.fingerprint().unwrap();
        // The drop rate moves enough to search; the best order stays, and
        // the search, which cannot cache, prices it below what runs.
        let r = window(&mut c, &p, &[0.0, 0.0, 0.4], 16, 2);
        assert!(r.reoptimized && !r.deployed, "{r:?}");
        assert_eq!(c.target.fingerprint().unwrap(), running);
        let kept = first_plan_kept(&c);
        let (candidate, running, ..) = kept.expect("the kept plan is journaled");
        assert_eq!(candidate, r.est_gain_ns);
        assert!(candidate > 0.0 && running >= candidate, "{kept:?}");
        let profile = c.last_profile.as_ref().unwrap();
        let (rescored, ..) = c
            .optimizer
            .score_plan(&c.original, profile, &cached)
            .unwrap();
        assert_eq!(rescored, running);
    }

    #[test]
    fn on_a_reload_target_every_cache_prices_cold() {
        let p = AclPipeline::build(3, 3);
        let mut c = reorder_only_controller(&p);
        assert!(window(&mut c, &p, &[0.0, 0.0, 0.7], 16, 1).deployed);
        let cached = with_regular_cached(&c, &p);
        c.deploy_plan(&cached).unwrap();
        let profile = c.last_profile.clone().unwrap();
        let none = GlobalPlan::default();
        let cold = c.optimizer.warmup_ns(&c.original, &profile, &cached, &none);
        assert!(cold > 0.0);
        // A live target keeps the running plan's cache across a deploy.
        assert_eq!(c.warmup_ns(&profile, &cached), 0.0);
        // A reload target flushes it.
        c.target.downtime_s = 2.0;
        assert_eq!(c.warmup_ns(&profile, &cached), cold);
    }

    #[test]
    fn a_running_plan_that_turns_negative_reverts_to_the_original() {
        let p = AclPipeline::build(3, 3);
        let mut c = reorder_only_controller(&p);
        assert!(window(&mut c, &p, &[0.0, 0.0, 0.7], 16, 1).deployed);
        let cached = with_regular_cached(&c, &p);
        c.deploy_plan(&cached).unwrap();
        // No ACL drops, so no order gains anything, and a million flows,
        // so the cache misses almost every packet and costs more than it
        // saves.
        let r = window(&mut c, &p, &[0.0, 0.0, 0.0], 1_000_000, 2);
        assert!(r.reoptimized && r.deployed, "{r:?}");
        assert_eq!(r.est_gain_ns, 0.0);
        assert!(c.applied().is_none_or(|a| a.plan.is_empty()));
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.original())
        );
        let profile = c.last_profile.as_ref().unwrap();
        let (rescored, ..) = c
            .optimizer
            .score_plan(&c.original, profile, &cached)
            .unwrap();
        assert!(rescored < 0.0, "{rescored}");
    }

    #[test]
    fn a_running_plan_outside_the_limits_is_replaced() {
        let p = AclPipeline::build(3, 3);
        // Entry updates are the scarce resource: a merge whose tables see
        // no updates costs none, a cache's insertions cost far too much.
        let limits = ResourceLimits::new(1e12, 1.0);
        let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let cfg = ControllerConfig {
            limits,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(SimTarget::live(nic), p.graph.clone(), optimizer, cfg).unwrap();
        assert!(window(&mut c, &p, &[0.0, 0.0, 0.7], 16, 1).deployed);
        let merging = c.applied().unwrap().plan.clone();
        let merged: Vec<NodeId> = merging.choices[0]
            .segments
            .iter()
            .filter(|s| s.kind != pipeleon::plan::SegmentKind::Cache)
            .map(|s| merging.choices[0].order[s.start])
            .collect();
        assert!(!merged.is_empty(), "{merging:?}");
        // One entry update per merge: the window's update rate now puts
        // every merge of the running plan over the budget.
        for &t in &merged {
            c.insert_entry(t, TableEntry::new(vec![MatchValue::Exact(77)], 0))
                .unwrap();
        }
        let r = window(&mut c, &p, &[0.0, 0.0, 0.7], 16, 2);
        assert!(r.reoptimized && r.deployed, "{r:?}");
        let profile = c.last_profile.as_ref().unwrap();
        let score = |plan: &GlobalPlan| c.optimizer.score_plan(&c.original, profile, plan);
        let (running, mem, update) = score(&merging).unwrap();
        assert!(!limits.fits(mem, update), "{update}");
        // It still scores at least as high: only the limits replaced it.
        assert!(running >= r.est_gain_ns, "{running} < {}", r.est_gain_ns);
        let now = c.applied().map(|a| a.plan.clone()).unwrap_or_default();
        let (_, mem, update) = score(&now).unwrap();
        assert!(limits.fits(mem, update), "{now:?}");
    }

    #[test]
    fn a_merge_that_outgrows_its_budget_reverts_to_the_original() {
        use pipeleon::plan::{Segment, SegmentKind};
        // Two exact ACLs of 62 and 63 entries. Merged, they materialize
        // (62 + 1)·(63 + 1) = 4,032 rows; the merge budget is 4,096.
        let deny = |v: u64| TableEntry::new(vec![MatchValue::Exact(v)], 1);
        let mut b = ProgramBuilder::new();
        let fields = [b.field("f0"), b.field("f1")];
        let acls: Vec<NodeId> = fields
            .iter()
            .zip([62, 63])
            .enumerate()
            .map(|(i, (&f, n))| {
                let mut t = b
                    .table(format!("acl{i}"))
                    .key(f, MatchKind::Exact)
                    .action_nop("permit")
                    .action_drop("deny");
                for v in 0..n {
                    t = t.entry(deny(100 + v));
                }
                t.finish()
            })
            .collect();
        let g = b.seal_sequential().unwrap();
        let nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
        let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
        let mut c = Controller::new(
            SimTarget::live(nic),
            g.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .unwrap();
        let merge = Segment {
            start: 0,
            end: 2,
            kind: SegmentKind::Merge { as_cache: false },
        };
        c.deploy_plan(&single_choice_plan(acls.clone(), vec![merge]))
            .unwrap();
        let merged = |c: &Controller<SimTarget>| {
            c.applied().is_some_and(|a| {
                a.entry_map
                    .sites(acls[0])
                    .iter()
                    .any(|s| matches!(s, EntrySite::MergedInto { .. }))
            })
        };
        assert!(merged(&c), "the plan merges the two ACLs");
        let dropped = |c: &mut Controller<SimTarget>, table: usize, value: u64| {
            let mut pkt = Packet::new(&g.fields);
            pkt.set(fields[table], value);
            c.target.nic.process_one(&mut pkt).dropped
        };
        // (62 + 1)·(64 + 1) = 4,095 rows: the merged table is rebuilt in
        // place.
        c.insert_entry(acls[1], deny(5)).unwrap();
        assert!(merged(&c));
        assert!(dropped(&mut c, 1, 5));
        assert_eq!(c.health().rollbacks, 0);
        // (63 + 1)·(64 + 1) = 4,160 rows: the merge is reversed and the
        // original program, insert included, runs.
        c.insert_entry(acls[0], deny(6)).unwrap();
        assert!(c.applied().is_none());
        assert_eq!(
            c.target.fingerprint().unwrap(),
            graph_fingerprint(c.original())
        );
        let entries = &c
            .original()
            .node(acls[0])
            .unwrap()
            .as_table()
            .unwrap()
            .entries;
        assert_eq!(entries.last(), Some(&deny(6)));
        assert!(dropped(&mut c, 0, 6));
        assert_eq!(c.health().rollbacks, 1);
        let reverted = c
            .journal()
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Rollback { to } if to == "original"));
        assert!(reverted, "the merge revert must be journaled as a rollback");
    }
}
