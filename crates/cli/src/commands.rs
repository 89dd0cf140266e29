//! Command implementations.

use crate::args::{parse, Args};
use crate::profile_doc::{self, ProfileDoc};
use pipeleon::hotspot::score_pipelets;
use pipeleon::pipelet::partition;
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{Calibrator, CostModel, CostParams, ResourceModel, RuntimeProfile};
use pipeleon_ir::json::{from_json_string, to_json_string};
use pipeleon_ir::ProgramGraph;
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, NetClient};
use pipeleon_obs::{EventJournal, EventKind, LatencyHistogram, MetricsRegistry};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, SimTarget, Target,
    TickReport,
};
use pipeleon_sim::{
    BatchStats, ControlOp, EngineMode, ExecObservations, NicBackend, Packet, SampleKeying,
    ShardedNic, SmartNic,
};
use pipeleon_verify::{
    lint_concurrency_with_count, lint_program, render_report, render_report_json, Severity,
};
use pipeleon_workloads::traffic::FlowGen;
use std::time::{Duration, Instant};

/// The commands, and the one table of the flags each accepts ([`parse`]).
const USAGE: &str = "\
pipeleon — profile-guided P4 SmartNIC optimizer (SIGCOMM'23 reproduction)

USAGE:
  pipeleon optimize <program> [--profile p.json] [--target T]
           [--top-k F] [--memory BYTES] [--updates RATE] [-o out.json]
  pipeleon simulate <program> [--target T] [--packets N]
           [--flows N] [--zipf S] [--seed S] [--trace t.trace]
           [--workers N] [--sample N] [--engine compiled|interp]
           [--no-specialize] [--profile-out p.json]
           [--metrics-out m.prom|m.json] [--journal-out j.jsonl]
  pipeleon chaos    <program> --chaos-seed S [--windows N] [--target T]
           [--packets N] [--flows N] [--zipf S] [--seed S]
           [--trace t.trace] [--workers N] [--sample N]
           [--engine compiled|interp] [--no-specialize]
           [--metrics-out m.prom|m.json] [--journal-out j.jsonl]
  pipeleon metrics  <program> [--target T] [--packets N]
           [--flows N] [--zipf S] [--seed S] [--trace t.trace]
           [--sample N] [-o m.prom|m.json]
  pipeleon analyze  <program> [--deny-warnings] [--format text|json]
  pipeleon analyze  --concurrency [repo-root] [--format text|json]
  pipeleon serve    <program> [--listen ADDR] [--target T] [--workers N]
           [--engine compiled|interp] [--burst N] [--sample N]
           [--max-packets N] [--idle-timeout-ms MS] [--tick-packets N]
           [--addr-file f] [--metrics-out m.prom|m.json]
           [--journal-out j.jsonl]
  pipeleon drive    <program> --connect ADDR [--packets N] [--flows N]
           [--zipf S] [--seed S] [--trace t.trace] [--window N]
           [--timeout-ms MS] [--metrics-out m.prom|m.json]
  pipeleon inspect  <program> [--target T] [--profile p.json]
  pipeleon build    <program.p4> [-o out.json]
  pipeleon calibrate [--target T]

<program> is BMv2-style JSON IR, or P4-lite source (*.p4 / *.p4l).
TARGETS: bluefield2 (default) | agilio_cx | emulated_nic";

/// Entry point shared with tests. A command accepts exactly the flags on
/// its lines of [`USAGE`]; the datapath commands run on the backend
/// [`on_backend`] builds.
pub fn run(argv: &[String]) -> Result<(), String> {
    type Command = fn(&Args) -> Result<(), String>;
    let command: Command = match argv.first().map(String::as_str) {
        None => return Err(USAGE.to_string()),
        Some("optimize") => optimize,
        Some("simulate") => |a| on_backend(a, simulate, simulate),
        Some("chaos") => |a| on_backend(a, chaos, chaos),
        Some("metrics") => |a| on_backend(a, metrics_summary, metrics_summary),
        Some("analyze") => analyze,
        Some("serve") => |a| on_backend(a, serve, serve),
        Some("drive") => drive,
        Some("inspect") => inspect,
        Some("build") => build,
        Some("calibrate") => calibrate,
        Some(other) => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    command(&parse(argv, USAGE)?)
}

fn target(args: &Args) -> Result<CostParams, String> {
    match args.get_or("target", "bluefield2") {
        "bluefield2" => Ok(CostParams::bluefield2()),
        "agilio_cx" => Ok(CostParams::agilio_cx()),
        "emulated_nic" => Ok(CostParams::emulated_nic()),
        other => Err(format!(
            "unknown target {other:?} (bluefield2 | agilio_cx | emulated_nic)"
        )),
    }
}

fn load_program(args: &Args) -> Result<ProgramGraph, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing <program.json|program.p4> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".p4") || path.ends_with(".p4l") {
        pipeleon_p4::parse_program(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        from_json_string(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// The program argument and its `--target`, refused if the verifier
/// proves the program broken (error-severity lints; warnings are
/// advisory and do not block).
fn checked_program(args: &Args) -> Result<(ProgramGraph, CostParams), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    let errors: Vec<_> = lint_program(&g)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errors.is_empty() {
        return Ok((g, params));
    }
    let mut msg = String::from("program rejected by the verifier:\n");
    for d in &errors {
        msg.push_str(&d.render_text());
        msg.push('\n');
    }
    msg.push_str("(run `pipeleon analyze` for the full report)");
    Err(msg)
}

fn load_profile(args: &Args, g: &ProgramGraph) -> Result<RuntimeProfile, String> {
    match args.get("profile") {
        None => Ok(RuntimeProfile::empty()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let doc: ProfileDoc =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            profile_doc::to_profile(&doc, g)
        }
    }
}

/// `analyze`: run the static program lints and print the diagnostic
/// report. Exits nonzero on any error-severity diagnostic, or on any
/// diagnostic at all under `--deny-warnings`.
fn analyze(args: &Args) -> Result<(), String> {
    let diags = if args.get_bool("concurrency") {
        // Memory-model lint over the repository's own sources instead
        // of a program: gate for the model-checked datapath (PV2xx).
        let root = args.positional.get(1).map(String::as_str).unwrap_or(".");
        let (diags, scanned) = lint_concurrency_with_count(std::path::Path::new(root))?;
        eprintln!("concurrency lint: scanned {scanned} Rust files under {root}");
        diags
    } else {
        lint_program(&load_program(args)?)
    };
    match args.get_or("format", "text") {
        "text" => println!("{}", render_report(&diags)),
        "json" => println!("{}", render_report_json(&diags)),
        other => return Err(format!("unknown --format {other:?} (text | json)")),
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if errors > 0 {
        Err(format!("analysis failed: {errors} error(s)"))
    } else if warnings > 0 && args.get_bool("deny-warnings") {
        Err(format!(
            "analysis failed: {warnings} warning(s) with --deny-warnings"
        ))
    } else {
        Ok(())
    }
}

fn optimize(args: &Args) -> Result<(), String> {
    let (g, params) = checked_program(args)?;
    let profile = load_profile(args, &g)?;
    let cfg = OptimizerConfig {
        top_k_fraction: args.get_f64("top-k", 0.3)?,
        ..OptimizerConfig::default()
    };
    let limits = ResourceLimits::new(
        args.get_f64("memory", f64::INFINITY)?,
        args.get_f64("updates", f64::INFINITY)?,
    );
    let optimizer = Optimizer::new(CostModel::new(params)).with_config(cfg);
    let outcome = optimizer
        .optimize(&g, &profile, limits)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "optimized {:?}: estimated gain {:.1} ns/packet, {} candidates in {:?}",
        g.name, outcome.est_gain_ns, outcome.candidates_evaluated, outcome.search_time
    );
    for step in &outcome.applied.summary {
        eprintln!("  - {step}");
    }
    if outcome.applied.summary.is_empty() {
        eprintln!("  (no profitable transformation found; output = input layout)");
    }
    if outcome.candidates_rejected > 0 {
        eprintln!(
            "  {} candidate(s) rejected by the plan-safety verifier",
            outcome.candidates_rejected
        );
    }
    emit_program(args, &outcome.applied.graph)
}

/// `build`: P4-lite source → JSON IR.
fn build(args: &Args) -> Result<(), String> {
    let g = load_program(args)?;
    eprintln!(
        "built {:?}: {} tables, {} nodes",
        g.name,
        g.tables().count(),
        g.num_nodes()
    );
    emit_program(args, &g)
}

/// Writes `g` as JSON IR to `-o`, or prints it.
fn emit_program(args: &Args, g: &ProgramGraph) -> Result<(), String> {
    let json = to_json_string(g).map_err(|e| e.to_string())?;
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Builds the `--packets` batch: trace-driven replay when `--trace` is
/// given, otherwise seeded flow-generated traffic over every field any
/// table matches on.
fn gen_batch(args: &Args, g: &ProgramGraph) -> Result<Vec<Packet>, String> {
    let packets = args.get_usize("packets", 20_000)?;
    let flows = args.get_usize("flows", 1000)?;
    let zipf = args.get_f64("zipf", 0.0)?;
    let seed = args.get_usize("seed", 1)? as u64;
    match args.get("trace") {
        Some(path) => {
            // Trace-driven replay, looped to reach the requested count.
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = pipeleon_workloads::trace::Trace::parse(&text, g)?;
            if trace.is_empty() {
                return Err(format!("{path}: trace has no packets"));
            }
            let repeat = packets.div_ceil(trace.len());
            let mut b = trace.replay(g, repeat);
            b.truncate(packets);
            Ok(b)
        }
        None => {
            // Flow fields: every field any table matches on.
            let mut flow_fields = Vec::new();
            for (_, t) in g.tables() {
                for k in &t.keys {
                    if !flow_fields.contains(&k.field) {
                        flow_fields.push(k.field);
                    }
                }
            }
            Ok(FlowGen::new(g.fields.len(), flow_fields, flows, seed)
                .with_zipf(zipf)
                .batch(packets))
        }
    }
}

/// Builds the backend of every datapath command from the checked
/// program and hands it to the command: `sharded` gets a [`ShardedNic`]
/// when `--workers` is above 1, `single` a [`SmartNic`] otherwise — one
/// generic command, instantiated for each. The single NIC samples per
/// flow, as every shard does, so what a run collects does not depend on
/// the worker count.
fn on_backend(
    args: &Args,
    single: fn(&Args, SmartNic) -> Result<(), String>,
    sharded: fn(&Args, ShardedNic) -> Result<(), String>,
) -> Result<(), String> {
    let (g, params) = checked_program(args)?;
    let workers = args.get_usize("workers", 1)?;
    if workers > 1 {
        let nic = ShardedNic::new(g, params, workers).map_err(|e| e.to_string())?;
        sharded(args, configured(args, nic)?)
    } else {
        let mut nic = SmartNic::new(g, params).map_err(|e| e.to_string())?;
        nic.set_sample_keying(SampleKeying::FlowKeyed);
        single(args, configured(args, nic)?)
    }
}

/// Applies `--engine` (compiled by default; both engines produce
/// bit-identical results) and samples one packet in `--sample`.
fn configured<N: NicBackend>(args: &Args, mut nic: N) -> Result<N, String> {
    let engine = match args.get_or("engine", "compiled") {
        "compiled" => EngineMode::Compiled,
        "interp" | "interpreter" => EngineMode::Interpreter,
        other => return Err(format!("unknown --engine {other:?} (compiled | interp)")),
    };
    nic.apply(ControlOp::SetEngineMode(engine))
        .map_err(|e| e.to_string())?;
    nic.set_instrumentation(true, args.get_usize("sample", 1)?.max(1) as u64);
    Ok(nic)
}

/// One measurement window over `batch`, with `mid` run against `s`
/// between its halves: the first half is in flight (on a sharded
/// backend, still in the rings) when `mid` runs, and the window closes
/// once the second half has drained. The halves measure exactly as one
/// window of the whole batch, and whatever `mid` applies lands at that
/// stream position. `nic` reaches the backend inside `s`.
fn window<S, N: NicBackend, T>(
    s: &mut S,
    nic: impl Fn(&mut S) -> &mut N,
    batch: Vec<Packet>,
    mid: impl FnOnce(&mut S) -> T,
) -> (BatchStats, T) {
    let mut head = batch;
    let tail = head.split_off(head.len() / 2);
    nic(s).measure_begin();
    nic(s).measure_feed(head);
    let t = mid(s);
    nic(s).measure_feed(tail);
    (nic(s).measure_end(), t)
}

/// Writes a datapath command's artifacts. `--metrics-out` (or `-o`) gets
/// `reg` — the controller's or the server's series, if any — followed by
/// the datapath's: packet and per-table latency histograms from the
/// sampled observations, and the window's throughput facts when the run
/// was one window. `--journal-out` gets `journal`.
fn write_artifacts(
    args: &Args,
    g: &ProgramGraph,
    mut reg: MetricsRegistry,
    stats: Option<&BatchStats>,
    obs: &ExecObservations,
    journal: Option<&EventJournal>,
) -> Result<(), String> {
    if let Some(path) = args.get("metrics-out").or(args.get("o")) {
        reg.help(
            "pipeleon_packet_latency_ns",
            "End-to-end accounted latency of sampled packets",
        );
        reg.merge_histogram("pipeleon_packet_latency_ns", &[], &obs.packet_latency);
        reg.help(
            "pipeleon_table_latency_ns",
            "Latency contributed per table (match+actions+counters) on sampled packets",
        );
        for (node, hist) in &obs.per_table {
            let name = g
                .node(*node)
                .map(|n| n.name().to_string())
                .unwrap_or_else(|| format!("node{}", node.0));
            reg.merge_histogram("pipeleon_table_latency_ns", &[("table", &name)], hist);
        }
        if let Some(s) = stats {
            reg.help("pipeleon_packets_total", "Packets processed in the batch");
            reg.counter_add("pipeleon_packets_total", &[], s.packets);
            reg.help("pipeleon_dropped_total", "Packets dropped by the program");
            reg.counter_add("pipeleon_dropped_total", &[], s.dropped);
            reg.help("pipeleon_mean_latency_ns", "Mean per-packet latency, ns");
            reg.gauge_set("pipeleon_mean_latency_ns", &[], s.mean_latency_ns);
            reg.help("pipeleon_p99_latency_ns", "99th-percentile latency, ns");
            reg.gauge_set("pipeleon_p99_latency_ns", &[], s.p99_latency_ns);
            reg.help("pipeleon_throughput_gbps", "Achieved throughput, Gbit/s");
            reg.gauge_set("pipeleon_throughput_gbps", &[], s.throughput_gbps);
            reg.help("pipeleon_offered_gbps", "Offered load (line rate), Gbit/s");
            reg.gauge_set("pipeleon_offered_gbps", &[], s.offered_gbps);
        }
        write_metrics(path, &reg)?;
    }
    if let (Some(path), Some(journal)) = (args.get("journal-out"), journal) {
        std::fs::write(path, journal.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote journal to {path} ({} events, {} evicted)",
            journal.len(),
            journal.dropped()
        );
    }
    Ok(())
}

/// Writes a registry to `path`: the JSON snapshot for `*.json`, the
/// Prometheus text exposition otherwise.
fn write_metrics(path: &str, reg: &MetricsRegistry) -> Result<(), String> {
    let text = if path.ends_with(".json") {
        reg.render_json()
    } else {
        reg.render_prometheus()
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// `simulate`: one measurement window over the batch. Profile-guided
/// specialization is on by default for the compiled engine (the
/// interpreter is the oracle and never specializes): the first half of
/// the window warms the profile and hot-key sketches, the backend
/// specializes, and the window finishes on the specialized datapath.
/// That changes host wall clock only, never a modelled result.
fn simulate<N: NicBackend>(args: &Args, mut nic: N) -> Result<(), String> {
    let g = nic.graph().clone();
    let batch = gen_batch(args, &g)?;
    let specialize = nic.engine_mode() == EngineMode::Compiled && !args.get_bool("no-specialize");
    let (stats, _) = window(&mut nic, |n| n, batch, |n| specialize && n.specialize());
    let spec = nic.spec_stats();
    let (profile, obs) = (nic.take_profile(), nic.take_observations());
    let elapsed_s = nic.now_s();
    println!("packets:           {}", stats.packets);
    println!("dropped:           {}", stats.dropped);
    println!("mean latency (ns): {:.1}", stats.mean_latency_ns);
    println!("p99 latency (ns):  {:.1}", stats.p99_latency_ns);
    println!(
        "throughput (Gbps): {:.2} of {:.0} offered",
        stats.throughput_gbps, stats.offered_gbps
    );
    let mut reg = MetricsRegistry::new();
    if specialize {
        println!(
            "specialization:    {} table(s), guard hits {} misses {} ({} from the memo)",
            spec.specialized_tables, spec.guard_hits, spec.guard_misses, spec.memo_hits
        );
        spec.export(&mut reg);
    }
    if let Some(path) = args.get("profile-out") {
        let doc = profile_doc::from_profile(&profile, &g);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote collected profile to {path}");
    }
    // A plain simulate run is one measurement window.
    let mut journal = EventJournal::new(16);
    journal.push(
        elapsed_s,
        EventKind::WindowProfiled {
            window_s: elapsed_s,
            packets: stats.packets,
            change: 0.0,
            reoptimized: false,
            deployed: false,
        },
    );
    write_artifacts(args, &g, reg, Some(&stats), &obs, Some(&journal))
}

/// `metrics`: run a sampled measurement batch and print a per-table
/// latency summary straight from the mergeable histograms; `-o` writes
/// the full exposition (Prometheus text, or JSON for `*.json`).
fn metrics_summary<N: NicBackend>(args: &Args, mut nic: N) -> Result<(), String> {
    let g = nic.graph().clone();
    let sample = args.get_usize("sample", 1)?.max(1);
    let stats = nic.measure_batch(gen_batch(args, &g)?);
    let obs = nic.take_observations();
    let q = |h: &LatencyHistogram, q: f64| h.quantile(q).map_or("-".to_string(), |v| v.to_string());
    println!(
        "metrics for {:?}: {} packets, 1-in-{} sampled",
        g.name, stats.packets, sample
    );
    let h = &obs.packet_latency;
    println!(
        "packet latency (ns): count {:>7}  mean {:>8.1}  p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
        h.count(),
        h.mean_ns().unwrap_or(0.0),
        q(h, 0.50),
        q(h, 0.90),
        q(h, 0.99),
        h.max_ns().map_or("-".to_string(), |v| v.to_string()),
    );
    println!("per-table latency (ns):");
    for (node, hist) in &obs.per_table {
        let name = g.node(*node).map(|n| n.name()).unwrap_or("?");
        println!(
            "  {:<20} count {:>7}  mean {:>8.1}  p50 {:>6}  p99 {:>6}",
            name,
            hist.count(),
            hist.mean_ns().unwrap_or(0.0),
            q(hist, 0.50),
            q(hist, 0.99),
        );
    }
    write_artifacts(args, &g, MetricsRegistry::new(), Some(&stats), &obs, None)
}

/// `chaos`: drive the runtime controller over `--windows` profiling
/// windows while a seeded fault injector disturbs the target, then
/// verify the deployed state converged to the controller's
/// last-known-good layout and no packet was lost across the swaps.
fn chaos<N: NicBackend>(args: &Args, nic: N) -> Result<(), String> {
    let seed = args.get("chaos-seed").ok_or("missing --chaos-seed S")?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("bad --chaos-seed {seed:?} (expected u64)"))?;
    let windows = args.get_usize("windows", 5)?.max(1);
    let g = nic.graph().clone();
    let batch = gen_batch(args, &g)?;
    let optimizer = Optimizer::new(CostModel::new(nic.params().clone()));
    let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(seed));
    // Construction deploys fault-free; chaos starts with the loop.
    target.set_armed(false);
    let cfg = ControllerConfig {
        specialize: !args.get_bool("no-specialize"),
        ..ControllerConfig::default()
    };
    let mut c = Controller::new(target, g.clone(), optimizer, cfg).map_err(|e| e.to_string())?;
    c.target.set_armed(true);
    let per_window = (batch.len() / windows).max(1);
    println!("chaos run: seed {seed}, {windows} windows x {per_window} packets");
    let (mut offered, mut processed) = (0u64, 0u64);
    for (w, chunk) in batch.chunks(per_window).take(windows).enumerate() {
        // The window stays open across the controller tick: whatever the
        // tick deploys publishes as a generation swap with the window's
        // traffic genuinely in flight.
        let (s, r) = window(
            &mut c,
            |c| &mut c.target.inner.nic,
            chunk.to_vec(),
            |c| c.tick(),
        );
        let r = r.map_err(|e| e.to_string())?;
        offered += chunk.len() as u64;
        processed += s.packets;
        let h = &r.health;
        let mut line = format!("window {:>2}: {}", w + 1, tick_line(&r));
        line.push_str(&format!(
            "  retries {} rollbacks {} losses {}",
            h.deploy_retries, h.rollbacks, h.profile_losses
        ));
        if h.degraded {
            line.push_str("  DEGRADED");
        }
        if h.pin_pending {
            line.push_str("  PIN-PENDING");
        }
        println!("{line}");
    }
    // Healing: faults off; repair a pending pin if the run ended wedged.
    c.target.set_armed(false);
    if c.health().pin_pending {
        let _ = c.tick();
    }
    let h = c.health().clone();
    let verified = c.target.fingerprint() == Some(graph_fingerprint(c.last_known_good()));
    println!(
        "faults injected:   {} over {} target ops",
        c.target.fault_count(),
        c.target.op_log().len()
    );
    println!("reconfigurations:  {}", c.reconfig_count);
    println!(
        "final health:      retries {} rollbacks {} losses {} degraded {} pin_pending {}",
        h.deploy_retries, h.rollbacks, h.profile_losses, h.degraded, h.pin_pending
    );
    println!(
        "target state:      {}",
        if verified {
            "verified (fingerprint matches last-known-good)"
        } else {
            "DIVERGED"
        }
    );
    let swaps = c.target.last_swap().map_or(0, |s| s.generation);
    println!(
        "live datapath:     {processed} of {offered} packets processed across swaps, \
         generation {swaps}"
    );
    // Fold the injector's op log into the controller's journal so the
    // postmortem timeline shows faults next to the loop's reactions —
    // each at the datapath clock where it fired, so `--journal-out`
    // interleaves faults with generation swaps on one timeline.
    let injected: Vec<(f64, String, String)> = c
        .target
        .op_log()
        .iter()
        .filter_map(|r| {
            r.fault
                .as_ref()
                .map(|f| (r.at_s, r.op.clone(), format!("{f:?}")))
        })
        .collect();
    for (at_s, op, fault) in injected {
        c.journal_mut()
            .push(at_s, EventKind::FaultInjected { op, fault });
    }
    let obs = c.target.inner.nic.take_observations();
    let reg = std::mem::take(c.metrics_mut());
    write_artifacts(args, &g, reg, None, &obs, Some(c.journal()))?;
    if !verified {
        return Err("chaos run ended with the target diverged from controller bookkeeping".into());
    }
    if processed != offered {
        return Err(format!(
            "reconfiguration lost traffic: {processed} of {offered} packets processed"
        ));
    }
    Ok(())
}

/// A controller tick in one line: the profile change (9.999 when it is
/// not finite), whether the optimizer ran, and what it deployed.
fn tick_line(r: &TickReport) -> String {
    let change = if r.profile_change.is_finite() {
        r.profile_change
    } else {
        9.999
    };
    let mut line = format!(
        "change {change:>6.3}  {}",
        if r.reoptimized { "reopt" } else { "idle " }
    );
    if r.deployed {
        line.push_str(&format!("  deployed (gain {:.1} ns/pkt)", r.est_gain_ns));
    }
    line
}

/// What `serve` polls into: the bare backend, or the backend inside the
/// controller's target when `--tick-packets` runs a controller.
enum Served<N: NicBackend> {
    Bare(N),
    Controlled(Box<Controller<SimTarget<N>>>),
}

impl<N: NicBackend> Served<N> {
    fn nic(&mut self) -> &mut N {
        match self {
            Served::Bare(nic) => nic,
            Served::Controlled(c) => &mut c.target.nic,
        }
    }
}

/// `serve`: bind a UDP socket and answer live peers through the
/// datapath. Frames decode via the program's wire contract, run through
/// `process_batch`, and each verdict is echoed to its sender. With
/// `--tick-packets N` the runtime controller ticks against the serving
/// backend every N frames, reoptimizing (and generation-swapping) under
/// the socket traffic.
fn serve<N: NicBackend>(args: &Args, nic: N) -> Result<(), String> {
    let g = nic.graph().clone();
    let map = FieldMap::from_graph(&g).map_err(|e| format!("{:?}: {e}", g.name))?;
    let tick_packets = args.get_usize("tick-packets", 0)? as u64;
    if tick_packets == 0 && args.get("journal-out").is_some() {
        return Err("--journal-out needs --tick-packets N: the journal is the controller's".into());
    }
    let listen = args.get_or("listen", "127.0.0.1:9900");
    let config = IngestConfig {
        burst: args.get_usize("burst", 64)?.max(1),
    };
    let mut server =
        IngestServer::bind(listen, config).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = args.get("addr-file") {
        // Lets scripts discover an OS-assigned port (--listen host:0).
        std::fs::write(path, addr.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "serving {:?} on {addr}: {} header-bound field(s), {} residue slot(s), {}-byte frames",
        g.name,
        map.bound().len(),
        map.residue().len(),
        map.frame_len()
    );
    // Stop after this many frames, or this long without one (0: never).
    let max_packets = args.get_usize("max-packets", 0)? as u64;
    let idle_timeout = Duration::from_millis(args.get_usize("idle-timeout-ms", 0)? as u64);
    let mut served = if tick_packets > 0 {
        let optimizer = Optimizer::new(CostModel::new(nic.params().clone()));
        let cfg = ControllerConfig::default();
        let c = Controller::new(SimTarget::live(nic), g.clone(), optimizer, cfg)
            .map_err(|e| e.to_string())?;
        Served::Controlled(Box::new(c))
    } else {
        Served::Bare(nic)
    };
    let (mut last_rx, mut ticked_at) = (Instant::now(), 0u64);
    loop {
        let received = server
            .poll_once(served.nic(), &map)
            .map_err(|e| format!("socket error on {:?}: {e}", g.name))?;
        if received == 0 {
            if idle_timeout > Duration::ZERO && last_rx.elapsed() >= idle_timeout {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        } else {
            last_rx = Instant::now();
        }
        let frames = server.stats().frames;
        if let Served::Controlled(c) = &mut served {
            if frames >= ticked_at + tick_packets {
                ticked_at = frames;
                let r = c.tick().map_err(|e| e.to_string())?;
                eprintln!("tick at {frames} frames: {}", tick_line(&r));
            }
        }
        if max_packets > 0 && frames >= max_packets {
            break;
        }
    }
    let s = server.stats();
    let per = |frames: u64, datagrams: u64| frames as f64 / datagrams.max(1) as f64;
    println!(
        "frames served:     {} ({:.1} frames/datagram over {} datagrams)",
        s.frames,
        per(s.frames, s.datagrams),
        s.datagrams
    );
    println!(
        "responses sent:    {} ({:.1} frames/datagram over {} datagrams)",
        s.responses,
        per(s.responses, s.response_datagrams),
        s.response_datagrams
    );
    println!("decode errors:     {}", s.decode_errors);
    println!(
        "drops:             {} (oversize {}, encode {}, tx {})",
        s.dropped() - s.decode_errors,
        s.oversize,
        s.encode_errors,
        s.tx_dropped
    );
    let h = server.e2e();
    if h.count() > 0 {
        println!(
            "e2e latency (ns):  p50 {}  p99 {}  max {}",
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max_ns().unwrap_or(0)
        );
    }
    let obs = served.nic().take_observations();
    let (mut reg, journal) = match &mut served {
        Served::Bare(_) => (MetricsRegistry::new(), None),
        Served::Controlled(c) => {
            println!("reconfigurations:  {}", c.reconfig_count);
            (std::mem::take(c.metrics_mut()), Some(c.journal()))
        }
    };
    server.metrics_into(&mut reg);
    write_artifacts(args, &g, reg, None, &obs, journal)
}

/// `drive`: replay generated (or trace-driven) traffic for a program
/// against a serving pipeleon instance over a real socket, and fail
/// hard unless every packet comes back well-formed.
fn drive(args: &Args) -> Result<(), String> {
    let g = load_program(args)?;
    let map = FieldMap::from_graph(&g).map_err(|e| format!("{:?}: {e}", g.name))?;
    let connect = args
        .get("connect")
        .ok_or("missing --connect ADDR (the serving pipeleon instance)")?;
    let batch = gen_batch(args, &g)?;
    let client = NetClient::connect(connect)
        .map_err(|e| format!("cannot reach {connect}: {e}"))?
        .with_window(args.get_usize("window", 128)?)
        .with_timeout(Duration::from_millis(
            args.get_usize("timeout-ms", 5000)? as u64
        ));
    let t0 = Instant::now();
    let report = client.replay(&batch, &map).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let dropped = report.echoes.iter().filter(|e| e.packet.dropped).count();
    println!("sent:              {}", batch.len());
    println!("echoed:            {}", report.echoes.len());
    println!(
        "trains:            {} sent, {} received",
        report.trains_sent, report.trains_received
    );
    println!("decode errors:     {}", report.decode_errors);
    println!("dropped verdicts:  {dropped}");
    println!("mean RTT (ns):     {:.0}", report.mean_rtt_ns());
    println!("replay rate:       {:.0} pps", batch.len() as f64 / elapsed);
    if let Some(path) = args.get("metrics-out") {
        let mut reg = MetricsRegistry::new();
        reg.help(
            "pipeleon_client_rtt_ns",
            "Per-request round-trip time observed by the traffic driver",
        );
        let mut h = LatencyHistogram::new();
        for e in &report.echoes {
            h.record_ns(e.rtt_ns);
        }
        reg.merge_histogram("pipeleon_client_rtt_ns", &[], &h);
        write_metrics(path, &reg)?;
    }
    if report.decode_errors > 0 {
        return Err(format!(
            "replay saw {} malformed response(s)",
            report.decode_errors
        ));
    }
    Ok(())
}

fn inspect(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    let profile = load_profile(args, &g)?;
    let model = CostModel::new(params.clone());
    let resources = ResourceModel::new(params);
    println!(
        "program {:?}: {} tables, {} nodes, {} fields",
        g.name,
        g.tables().count(),
        g.num_nodes(),
        g.fields.len()
    );
    println!(
        "expected latency: {:.1} ns/packet; memory: {:.0} bytes",
        model.expected_latency(&g, &profile),
        resources.program_memory(&g)
    );
    let pipelets = partition(&g, 24);
    let scores = score_pipelets(&model, &g, &profile, &pipelets);
    println!("pipelets ({}):", pipelets.len());
    for (p, s) in pipelets.iter().zip(&scores) {
        let names: Vec<&str> = p
            .tables
            .iter()
            .filter_map(|&id| g.node(id).map(|n| n.name()))
            .collect();
        println!(
            "  #{:<3} cost {:>8.2} ns  reach {:>5.1}%  [{}]",
            p.id,
            s.cost,
            100.0 * s.reach,
            names.join(" -> ")
        );
    }
    Ok(())
}

fn calibrate(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let cal = Calibrator::default();
    let report = cal.run(|g| {
        let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
        let key = g.fields.get("key").expect("calibration field");
        let packets: Vec<Packet> = (0..2000)
            .map(|i| {
                let mut p = Packet::new(&g.fields);
                p.set(key, i % 64);
                p
            })
            .collect();
        nic.measure(packets).mean_latency_ns
    });
    println!("calibrated against target {:?}:", params.name);
    println!("  programs measured: {}", report.programs_measured);
    println!("  L_mat     = {:.3} ns", report.l_mat);
    println!("  L_act     = {:.3} ns", report.l_act);
    println!("  m_lpm     = {:.3}", report.m_lpm);
    println!("  m_ternary = {:.3}", report.m_ternary);
    println!(
        "  fits: exact r2 = {:.5}, action r2 = {:.5}",
        report.exact_fit.r2, report.action_fit.r2
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::flag_table;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Runs a CLI invocation the test requires to succeed, naming the
    /// full argv on failure (a bare `unwrap` points at nothing
    /// actionable when a multi-step test dies mid-pipeline).
    fn run_expect(argv: &[&str]) {
        run(&v(argv)).unwrap_or_else(|e| panic!("`pipeleon {}` failed: {e}", argv.join(" ")));
    }

    /// Reads back an artifact a CLI command was asked to write, naming
    /// the path on failure.
    fn read_artifact(path: &std::path::Path) -> String {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read artifact {}: {e}", path.display()))
    }

    fn write_sample_program(dir: &std::path::Path) -> std::path::PathBuf {
        use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
        let mut b = ProgramBuilder::named("cli_sample");
        let f = b.field("x");
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(5)], 1))
            .finish();
        let _t = b.table("t").key(f, MatchKind::Exact).finish();
        let g = b.seal(acl).unwrap();
        let path = dir.join("prog.json");
        std::fs::write(&path, to_json_string(&g).unwrap()).unwrap();
        path
    }

    /// Every command refuses a flag it does not read — here one that
    /// PRs 22–23 removed, or another command's — before it touches its
    /// program argument.
    #[test]
    fn every_command_rejects_a_flag_it_does_not_read() {
        let stale = [
            ("optimize", "--workers"),
            ("simulate", "--batch"),
            ("simulate", "--windows"),
            ("simulate", "--chaos-seed"),
            ("chaos", "--profile-out"),
            ("metrics", "--workers"),
            ("analyze", "--profile"),
            ("serve", "--batch"),
            ("drive", "--workers"),
            ("inspect", "--engine"),
            ("build", "--target"),
            ("calibrate", "--packets"),
        ];
        for (command, flag) in stale {
            let err = run(&v(&[command, "absent.json", flag, "8"])).unwrap_err();
            assert!(err.contains(flag) && err.contains(command), "{err}");
        }
        // A flag no command lists is refused before it can swallow the
        // program path: the error names the flag, not a missing program.
        let err = run(&v(&["simulate", "--verbose", "absent.json"])).unwrap_err();
        assert!(err.contains("--verbose"), "{err}");
    }

    #[test]
    fn usage_on_no_args() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    /// `USAGE` is the flag table: every command has lines in it, only
    /// three flags take no value, and every command that builds traffic
    /// lists `--trace`.
    #[test]
    fn usage_is_the_flag_table() {
        let commands = [
            "optimize",
            "simulate",
            "chaos",
            "metrics",
            "analyze",
            "serve",
            "drive",
            "inspect",
            "build",
            "calibrate",
        ];
        let mut valueless = std::collections::BTreeSet::new();
        for command in commands {
            let table = flag_table(USAGE, command);
            assert!(!table.is_empty(), "`{command}` has no usage lines");
            valueless.extend(table.into_iter().filter(|f| !f.1).map(|f| f.0));
        }
        assert_eq!(
            Vec::from_iter(valueless),
            ["concurrency", "deny-warnings", "no-specialize"]
        );
        for command in ["simulate", "chaos", "metrics", "drive"] {
            assert!(
                flag_table(USAGE, command).contains(&("trace", true)),
                "`{command}` reads --trace"
            );
        }
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn optimize_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let out = dir.join("out.json");
        run_expect(&[
            "optimize",
            prog.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ]);
        let text = read_artifact(&out);
        let g = from_json_string(&text)
            .unwrap_or_else(|e| panic!("optimize output {} is not valid IR: {e}", out.display()));
        g.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_and_inspect_run() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let profile_out = dir.join("prof.json");
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "2000",
            "--profile-out",
            profile_out.to_str().unwrap(),
        ]);
        // The collected profile feeds back into optimize and inspect.
        run_expect(&[
            "inspect",
            prog.to_str().unwrap(),
            "--profile",
            profile_out.to_str().unwrap(),
        ]);
        run_expect(&[
            "optimize",
            prog.to_str().unwrap(),
            "--profile",
            profile_out.to_str().unwrap(),
            "-o",
            dir.join("out.json").to_str().unwrap(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_compiles_p4lite_to_json() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test4_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.p4");
        std::fs::write(
            &src,
            r#"program cli_p4;
               fields x;
               action deny() { drop; }
               table acl { key = { x: exact; } actions = { deny; }
                           const entries = { (9) : deny; } }
               control { acl; }"#,
        )
        .unwrap();
        let out = dir.join("prog.json");
        run_expect(&["build", src.to_str().unwrap(), "-o", out.to_str().unwrap()]);
        let g = from_json_string(&read_artifact(&out))
            .unwrap_or_else(|e| panic!("build output {} is not valid IR: {e}", out.display()));
        assert_eq!(g.tables().count(), 1);
        // And optimize/simulate accept the .p4 directly.
        run_expect(&["simulate", src.to_str().unwrap(), "--packets", "500"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_refuses_more_than_max_workers() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test17_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let workers = (pipeleon_sim::sharded::MAX_WORKERS + 1).to_string();
        let err = run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "100",
            "--workers",
            &workers,
        ]))
        .expect_err("--workers above the maximum must be refused");
        assert!(err.contains("maximum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_workers_flag_is_bit_reproducible() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test5_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let single = dir.join("single.json");
        let sharded = dir.join("sharded.json");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--profile-out",
            single.to_str().unwrap(),
        ]))
        .unwrap();
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--workers",
            "4",
            "--profile-out",
            sharded.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            read_artifact(&single),
            read_artifact(&sharded),
            "sharded profile must be byte-identical to single-threaded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_shard_mode_run_loop_is_worker_count_invariant() {
        // The SHARD_SMOKE invariant: window-merged profiles are
        // bit-identical across worker counts, even with sampling on —
        // the single NIC's included, since it samples per flow too.
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test12_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let profiles: Vec<String> = ["1", "2", "4"]
            .into_iter()
            .map(|workers| {
                let out = dir.join(format!("w{workers}.json"));
                run_expect(&[
                    "simulate",
                    prog.to_str().unwrap(),
                    "--packets",
                    "3000",
                    "--sample",
                    "4",
                    "--workers",
                    workers,
                    "--profile-out",
                    out.to_str().unwrap(),
                ]);
                read_artifact(&out)
            })
            .collect();
        assert_eq!(
            profiles[0], profiles[1],
            "--workers 1 and 2 profiles must be byte-identical"
        );
        assert_eq!(
            profiles[1], profiles[2],
            "--workers 2 and 4 profiles must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_engine_flag_is_bit_reproducible() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test11_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let compiled = dir.join("compiled.json");
        let interp = dir.join("interp.json");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--engine",
            "compiled",
            "--profile-out",
            compiled.to_str().unwrap(),
        ]))
        .unwrap();
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--engine",
            "interp",
            "--profile-out",
            interp.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            read_artifact(&compiled),
            read_artifact(&interp),
            "compiled-engine profile must be byte-identical to the interpreter's"
        );
        let err = run(&v(&["simulate", prog.to_str().unwrap(), "--engine", "jit"])).unwrap_err();
        assert!(err.contains("unknown --engine"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_converges_on_both_backends() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test6_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        // Single-worker and sharded chaos loops must both converge (the
        // command fails if the target ends divergent).
        run(&v(&[
            "chaos",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
        ]))
        .unwrap();
        run(&v(&[
            "chaos",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_writes_metrics_and_journal() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test8_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("m.prom");
        let jout = dir.join("j.jsonl");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "2000",
            "--sample",
            "4",
            "--metrics-out",
            mout.to_str().unwrap(),
            "--journal-out",
            jout.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_packet_latency_ns_bucket"), "{text}");
        assert!(text.contains("table=\"acl\""), "{text}");
        let jsonl = read_artifact(&jout);
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            serde::value::parse_json(line)
                .unwrap_or_else(|e| panic!("journal line not valid JSON: {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_no_specialize_flag_and_spec_metrics() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test13_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let spec_prof = dir.join("spec.json");
        let plain_prof = dir.join("plain.json");
        let mout = dir.join("spec.prom");
        // Default compiled run specializes mid-window and exports its
        // counters; the collected profile must be identical to a
        // --no-specialize run (specialization is modeled-result-exact).
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--profile-out",
            spec_prof.to_str().unwrap(),
            "--metrics-out",
            mout.to_str().unwrap(),
        ]);
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--no-specialize",
            "--profile-out",
            plain_prof.to_str().unwrap(),
        ]);
        assert_eq!(
            read_artifact(&spec_prof),
            read_artifact(&plain_prof),
            "specialization must not perturb the collected profile"
        );
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(
            text.contains("pipeleon_specialize_guard_hits_total"),
            "{text}"
        );
        assert!(
            text.contains("pipeleon_specialize_memo_hits_total"),
            "{text}"
        );
        assert!(text.contains("pipeleon_specialized_tables"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_command_prints_summary_and_writes_json() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test9_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let out = dir.join("m.json");
        run(&v(&[
            "metrics",
            prog.to_str().unwrap(),
            "--packets",
            "1000",
            "--sample",
            "2",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&out);
        serde::value::parse_json(&text).expect("JSON snapshot must be valid JSON");
        assert!(text.contains("pipeleon_packet_latency_ns"), "{text}");
        assert!(text.contains("\"p99_ns\":"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Chaos honours `--sample`: the datapath histograms cover the
    /// sampled packets only.
    #[test]
    fn chaos_mode_writes_controller_journal_and_metrics() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test10_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("chaos.prom");
        let jout = dir.join("chaos.jsonl");
        run(&v(&[
            "chaos",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--sample",
            "4",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
            "--metrics-out",
            mout.to_str().unwrap(),
            "--journal-out",
            jout.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_controller_ticks_total"), "{text}");
        let sampled: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("pipeleon_packet_latency_ns_count "))
            .expect("sampled packet count exported")
            .parse()
            .expect("a count");
        assert!(
            (1..3000).contains(&sampled),
            "{sampled} of 3000 packets sampled at --sample 4"
        );
        let jsonl = read_artifact(&jout);
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"type\":\"window_profiled\"")),
            "{jsonl}"
        );
        for line in jsonl.lines() {
            serde::value::parse_json(line)
                .unwrap_or_else(|e| panic!("journal line not valid JSON: {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn examples_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs")
    }

    #[test]
    fn analyze_concurrency_gates_the_repository() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        run(&v(&["analyze", "--concurrency", root.to_str().unwrap()]))
            .expect("the repository must pass its own memory-model lint");
    }

    #[test]
    fn analyze_clean_examples_pass_deny_warnings() {
        let mut checked = 0;
        for e in std::fs::read_dir(examples_dir()).unwrap() {
            let p = e.unwrap().path();
            if p.extension().is_some_and(|x| x == "json") {
                run(&v(&["analyze", p.to_str().unwrap(), "--deny-warnings"]))
                    .unwrap_or_else(|e| panic!("{p:?} must be lint-clean: {e}"));
                checked += 1;
            }
        }
        assert!(
            checked >= 3,
            "expected >= 3 example programs, saw {checked}"
        );
    }

    #[test]
    fn analyze_negative_fixture_fails_and_blocks_other_commands() {
        let p = examples_dir().join("negative/uninit_meta.json");
        let p = p.to_str().unwrap();
        let err = run(&v(&["analyze", p])).unwrap_err();
        assert!(err.contains("analysis failed"), "{err}");
        // The same broken program is refused by simulate and optimize.
        let err = run(&v(&["simulate", p, "--packets", "100"])).unwrap_err();
        assert!(err.contains("PV001"), "{err}");
        let err = run(&v(&["optimize", p])).unwrap_err();
        assert!(err.contains("PV001"), "{err}");
    }

    /// A `--profile` document with counts at `u64::MAX` plans without
    /// overflowing; one naming an action the table does not have is
    /// refused, by record, before anything plans from it.
    #[test]
    fn hostile_profile_documents_are_planned_or_refused_never_a_panic() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test14_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = examples_dir().join("acl_chain.json");
        let prog = prog.to_str().unwrap();
        let doc = |name: &str, counts: &str| {
            let path = dir.join(name);
            let text =
                format!(r#"{{"total_packets":1000,"window_s":1.0,"action_counts":[{counts}]}}"#);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_owned()
        };
        let huge = doc(
            "huge.json",
            r#"{"node":"acl_dst","action":1,"count":18446744073709551615},
               {"node":"acl_dst","action":0,"count":5},
               {"node":"acl_src","action":1,"count":18446744073709551615},
               {"node":"acl_src","action":1,"count":7}"#,
        );
        let absent = doc("absent.json", r#"{"node":"acl_src","action":99,"count":5}"#);
        for command in ["optimize", "inspect"] {
            run_expect(&[command, prog, "--profile", &huge]);
            let err = run(&v(&[command, prog, "--profile", &absent])).unwrap_err();
            assert!(
                err.contains("acl_src") && err.contains("99"),
                "{command}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_format_flag() {
        let p = examples_dir().join("acl_chain.json");
        let p = p.to_str().unwrap();
        run(&v(&["analyze", p, "--format", "json"])).unwrap();
        run(&v(&["analyze", p, "--format", "text"])).unwrap();
        let err = run(&v(&["analyze", p, "--format", "xml"])).unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
    }

    #[test]
    fn analyze_warnings_pass_without_deny_warnings() {
        // A program with a dead action -> PV003 warning only:
        // plain analyze passes, --deny-warnings fails.
        use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test7_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = ProgramBuilder::named("warn_only");
        let f = b.field("x");
        let main = b
            .table("main")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .action_nop("never_used")
            .entry(TableEntry::new(vec![MatchValue::Exact(3)], 1))
            .finish();
        let g = b.seal(main).unwrap();
        let prog = dir.join("warn_only.json");
        std::fs::write(&prog, to_json_string(&g).unwrap()).unwrap();
        run(&v(&["analyze", prog.to_str().unwrap()])).unwrap();
        let err = run(&v(&["analyze", prog.to_str().unwrap(), "--deny-warnings"])).unwrap_err();
        assert!(err.contains("warning"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serves `prog` on an ephemeral loopback port until 600 frames have
    /// been served, with `serve_flags` on top, drives 600 packets at it
    /// with `--window window`, and returns once both commands succeeded.
    fn serve_and_drive_600(
        prog: &std::path::Path,
        dir: &std::path::Path,
        serve_flags: &[&str],
        window: &str,
    ) {
        let addr_file = dir.join("addr.txt");
        let server = {
            let mut argv = v(&[
                "serve",
                prog.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--max-packets",
                "600",
                "--idle-timeout-ms",
                "20000",
            ]);
            argv.extend(v(serve_flags));
            std::thread::spawn(move || run(&argv))
        };
        // Discover the OS-assigned port via the published addr file.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its address"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        run_expect(&[
            "drive",
            prog.to_str().unwrap(),
            "--connect",
            &addr,
            "--packets",
            "600",
            "--window",
            window,
        ]);
        server
            .join()
            .expect("serve thread panicked")
            .expect("serve failed");
    }

    #[test]
    fn serve_and_drive_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test14_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("serve.prom");
        serve_and_drive_600(
            &prog,
            &dir,
            &["--metrics-out", mout.to_str().unwrap()],
            "32",
        );
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_ingest_frames_total 600"), "{text}");
        assert!(
            text.contains("pipeleon_ingest_dropped_total{reason=\"decode_error\"} 0"),
            "{text}"
        );
        assert!(text.contains("pipeleon_e2e_latency_ns_bucket"), "{text}");
        // Window 32 rides in trains: far fewer datagrams than frames, and
        // none of them too long for the server.
        let rx: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("pipeleon_ingest_datagrams_total{dir=\"rx\"} "))
            .expect("rx datagram count exported")
            .parse()
            .expect("a count");
        assert!((1..600).contains(&rx), "{rx} datagrams for 600 frames");
        assert!(
            text.contains("pipeleon_ingest_dropped_total{reason=\"oversize\"} 0"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The controller path: a tick every 200 served frames, each one a
    /// profiled window in the journal. At `--window 1` every poll serves
    /// one frame, so the ticks land at exactly 200, 400 and 600.
    #[test]
    fn serve_with_tick_packets_runs_the_controller_under_traffic() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test15_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("serve.prom");
        let jout = dir.join("serve.jsonl");
        let flags = [
            "--tick-packets",
            "200",
            "--metrics-out",
            mout.to_str().unwrap(),
            "--journal-out",
            jout.to_str().unwrap(),
        ];
        serve_and_drive_600(&prog, &dir, &flags, "1");
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_ingest_frames_total 600"), "{text}");
        let ticks: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("pipeleon_controller_ticks_total "))
            .expect("controller tick count exported")
            .parse()
            .expect("a count");
        assert!(ticks >= 3, "{ticks} ticks over 600 frames");
        let jsonl = read_artifact(&jout);
        let windows = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"window_profiled\""))
            .count();
        assert!(windows >= 3, "{windows} profiled windows: {jsonl}");
        for line in jsonl.lines() {
            serde::value::parse_json(line)
                .unwrap_or_else(|e| panic!("journal line not valid JSON: {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only the controller keeps a journal: `--journal-out` without
    /// `--tick-packets` is refused before the socket is bound.
    #[test]
    fn serve_refuses_a_journal_without_a_controller() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test16_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let addr_file = dir.join("addr.txt");
        let err = run(&v(&[
            "serve",
            prog.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--journal-out",
            dir.join("j.jsonl").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.contains("--journal-out") && err.contains("--tick-packets"),
            "{err}"
        );
        assert!(!addr_file.exists(), "serve bound a socket before refusing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_target_is_rejected() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let err = run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--target",
            "tofino",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown target"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
