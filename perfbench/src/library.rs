//! The library workload (`ppi_count`) and the library layers' traced pass,
//! which `serve_mix` reuses over its own query set.
//!
//! One *pass* runs every main instance once — plan, prepare, run — under
//! one scheduler; `solve_s.<sched>` is the typical pass time (see
//! [`typical_pass_seconds`]).  Passes alternate `seq`/`ws` order pair by
//! pair until the run's time is up.

use crate::engine_calls::{prepare, run, FingerprintVisitor, Prepared, SpanCtx};
use crate::inputs::{InstanceRef, Kind, Manifest};
use crate::report::{
    self, mean, median, per_position_medians, percentile, quiet_duration, ratio, sliced_rate,
    HostLog, HostMonitor, Metrics, Stamped, Tally,
};
use crate::spans::Tracer;
use sge_engine::{EnumerationOutcome, Scheduler};
use sge_graph::{AdjacencyBitmaps, BitmapConfig, Graph, GraphStats};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Setup repeats at least this often and for at least `SETUP_MIN_SECONDS`
/// (at most `SETUP_MAX_REPS` times); `setup_s` is the quiet median
/// repetition of two such batches, one before and one after the measuring
/// window.  Sub-millisecond set-ups need the many repetitions to read
/// steadily, and the two batches keep a short burst of host load from
/// moving all of them.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 0.3;
const SETUP_MAX_REPS: usize = 500;

/// A target as the registry keeps it: graph, shared stats, shared sidecar.
pub struct LoadedTarget {
    pub graph: Arc<Graph>,
    pub stats: GraphStats,
    pub bitmaps: Arc<AdjacencyBitmaps>,
}

/// An instance with its parsed pattern.
pub struct LoadedInstance {
    pub r: InstanceRef,
    pub pattern: Arc<Graph>,
}

/// Parsed inputs.
pub struct Loaded {
    pub targets: Vec<LoadedTarget>,
    pub instances: Vec<LoadedInstance>,
}

/// Seconds spent in each setup call, summed over targets.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    /// When the set-up began.
    pub start: Instant,
    pub parse: f64,
    pub stats: f64,
    pub bitmaps: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse + self.stats + self.bitmaps
    }
}

/// Parses the target files, then computes stats and bitmap sidecars, then
/// parses the patterns through the same label interner.  Only the target
/// work is timed.
pub fn load(
    dir: &Path,
    manifest: &Manifest,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Loaded, SetupTimes), String> {
    let mut times = SetupTimes {
        start: Instant::now(),
        parse: 0.0,
        stats: 0.0,
        bitmaps: 0.0,
    };
    let mut interner: HashMap<String, u32> = HashMap::new();
    let mut targets = Vec::new();
    for (name, file) in &manifest.targets {
        let timed = |tracer: &mut Option<&mut Tracer>, span: &'static str, start: Instant| {
            let end = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                let (a, b) = (t.ns_of(start), t.ns_of(end));
                t.record(span, a, b, None, 0);
            }
            (end - start).as_secs_f64()
        };
        let start = Instant::now();
        let text = std::fs::read_to_string(dir.join(file))
            .map_err(|e| format!("cannot read target {name}: {e}"))?;
        let graph = sge_graph::io::parse_graph_with_interner(&text, &mut interner)
            .map_err(|e| format!("cannot parse target {name}: {e}"))?;
        times.parse += timed(&mut tracer, "graph.parse", start);
        let start = Instant::now();
        let stats = GraphStats::of(&graph);
        times.stats += timed(&mut tracer, "graph.stats", start);
        let start = Instant::now();
        let bitmaps = Arc::new(AdjacencyBitmaps::build(&graph, &BitmapConfig::default()));
        times.bitmaps += timed(&mut tracer, "graph.bitmap_build", start);
        targets.push(LoadedTarget {
            graph: Arc::new(graph),
            stats,
            bitmaps,
        });
    }
    let mut instances = Vec::new();
    for r in &manifest.instances {
        let text = sge_wire::protocol::decode_inline_pattern(&r.pattern_inline);
        let pattern = sge_graph::io::parse_graph_with_interner(&text, &mut interner)
            .map_err(|e| format!("cannot parse a pattern: {e}"))?;
        instances.push(LoadedInstance {
            r: r.clone(),
            pattern: Arc::new(pattern),
        });
    }
    Ok((Loaded { targets, instances }, times))
}

/// Loads repeatedly (see `SETUP_MIN_REPS`); returns the last load and every
/// repetition's times.
pub fn load_repeated(
    dir: &Path,
    manifest: &Manifest,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Loaded, Vec<SetupTimes>), String> {
    let mut reps = Vec::new();
    let start = Instant::now();
    loop {
        let (loaded, times) = load(dir, manifest, tracer.as_deref_mut())?;
        reps.push(times);
        let enough =
            reps.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || reps.len() >= SETUP_MAX_REPS {
            return Ok((loaded, reps));
        }
    }
}

/// What one instance run produced.
pub struct InstanceRun {
    pub latency: f64,
    pub outcome: EnumerationOutcome,
    pub fingerprint: Option<u64>,
    pub est_states: f64,
    pub domain_size_mean: f64,
    pub impossible: bool,
}

/// Plans, prepares and runs one instance (the whole per-query library
/// path), counting only or visiting every match.
pub fn run_instance(
    loaded: &Loaded,
    index: usize,
    scheduler: Scheduler,
    visit: bool,
    mut trace: Option<&mut SpanCtx<'_>>,
) -> InstanceRun {
    let inst = &loaded.instances[index];
    let target = &loaded.targets[inst.r.target];
    let start = Instant::now();
    let prepared: Prepared = prepare(
        Arc::clone(&inst.pattern),
        &target.graph,
        &target.stats,
        &target.bitmaps,
        trace.as_deref_mut(),
    );
    let (outcome, fingerprint) = if visit {
        let visitor = FingerprintVisitor::new(scheduler.workers());
        let outcome = run(&prepared, scheduler, Some(&visitor), trace);
        (outcome, Some(visitor.value()))
    } else {
        (run(&prepared, scheduler, None, trace), None)
    };
    InstanceRun {
        latency: start.elapsed().as_secs_f64(),
        outcome,
        fingerprint,
        est_states: prepared.est_states,
        domain_size_mean: prepared.domain_size_mean,
        impossible: prepared.impossible,
    }
}

/// The correctness gate for one library run: matches and states equal the
/// generation-time reference (so `seq` and `ws` agree with each other), and
/// a visited run's fingerprint equals the reference fingerprint.
pub fn gate(r: &InstanceRef, run: &InstanceRun) -> bool {
    let o = &run.outcome;
    let complete = !o.timed_out && !o.limit_hit && !o.cancelled;
    let fingerprint_ok = match (run.fingerprint, r.fingerprint) {
        (Some(got), Some(want)) => got == want,
        (Some(_), None) => false,
        (None, _) => true,
    };
    complete && o.matches == r.matches && o.states == r.states && fingerprint_ok
}

/// VF2 agreement recorded at generation: every checked instance's VF2
/// count equals its reference count.
pub fn vf2_gate(manifest: &Manifest, tally: &mut Tally) {
    for r in &manifest.instances {
        if let Some(v) = r.vf2 {
            tally.check(v == r.matches);
        }
    }
}

/// One pass of `indices` under `scheduler`; returns its wall time.
pub fn pass(
    loaded: &Loaded,
    indices: &[usize],
    scheduler: Scheduler,
    visit: bool,
    tally: &mut Tally,
    latencies: &mut Vec<Stamped>,
) -> f64 {
    let start = Instant::now();
    for &i in indices {
        let r = run_instance(loaded, i, scheduler, visit, None);
        tally.check(gate(&loaded.instances[i].r, &r));
        latencies.push((Instant::now(), r.latency * 1e3));
    }
    start.elapsed().as_secs_f64()
}

/// The typical time of a pass: the sum over its instances of each one's
/// quiet median latency over the passes (see
/// [`report::per_position_medians`]).  `latencies` holds whole passes of
/// `width` instances each, as [`pass`] records them.
pub fn typical_pass_seconds(latencies: &[Stamped], width: usize, host: &HostLog) -> f64 {
    per_position_medians(latencies, width, host)
        .iter()
        .sum::<f64>()
        / 1e3
}

fn indices_of(loaded: &Loaded, kind: Kind) -> Vec<usize> {
    (0..loaded.instances.len())
        .filter(|&i| loaded.instances[i].r.kind == kind)
        .collect()
}

/// The end-to-end run of `ppi_count`.
pub fn run_end_to_end(
    dir: &Path,
    manifest: &Manifest,
    seconds: f64,
    workers: usize,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let monitor = HostMonitor::start();
    let (loaded, mut setups) = load_repeated(dir, manifest, None)?;
    vf2_gate(manifest, tally);
    let main = indices_of(&loaded, Kind::Main);
    let side = indices_of(&loaded, Kind::Side);
    let ws = Scheduler::work_stealing(workers);
    let mut count_lat: [Vec<Stamped>; 2] = [Vec::new(), Vec::new()];
    let mut stream_lat = Vec::new();
    let mut runs = 0usize;
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(seconds);
    let mut pair = 0usize;
    while pair < 2 || Instant::now() < deadline {
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        // Main passes count; the side pass visits every match of its own
        // list, sequentially.
        for which in order {
            let scheduler = if which == 0 {
                Scheduler::Sequential
            } else {
                ws
            };
            pass(
                &loaded,
                &main,
                scheduler,
                false,
                tally,
                &mut count_lat[which],
            );
            runs += main.len();
        }
        pass(
            &loaded,
            &side,
            Scheduler::Sequential,
            true,
            tally,
            &mut stream_lat,
        );
        runs += side.len();
        pair += 1;
    }
    let elapsed = window.elapsed().as_secs_f64();
    // The measured inputs go first, so the second batch does not raise
    // the process's peak memory above one loaded copy.
    drop(loaded);
    setups.extend(load_repeated(dir, manifest, None)?.1);
    let host = monitor.finish();
    println!("ppi_count {}", host.summary());
    let setup: Vec<(Instant, f64)> = setups.iter().map(|s| (s.start, s.total())).collect();
    metrics.put_sampled(
        "setup_s",
        quiet_duration(&setup, &host),
        "s",
        Some(setup.len()),
    );
    for (name, lat) in [
        ("solve_s.seq", &count_lat[0]),
        ("solve_s.ws", &count_lat[1]),
    ] {
        metrics.put_sampled(
            name,
            typical_pass_seconds(lat, main.len(), &host),
            "s",
            Some(lat.len() / main.len().max(1)),
        );
    }
    // Every instance runs once per pass, so its latency is its quiet median
    // over the passes, and the percentiles are over instances.
    let mut count = per_position_medians(&count_lat[0], main.len(), &host);
    count.extend(per_position_medians(&count_lat[1], main.len(), &host));
    let stream = per_position_medians(&stream_lat, side.len(), &host);
    for (name, values, p) in [
        ("count_p50_ms", &count, 50.0),
        ("count_p99_ms", &count, 99.0),
        ("stream_p50_ms", &stream, 50.0),
        ("stream_p90_ms", &stream, 90.0),
    ] {
        metrics.put_sampled(name, percentile(values, p), "ms", Some(values.len()));
    }
    let done = count_lat
        .iter()
        .flatten()
        .chain(&stream_lat)
        .map(|&(at, _)| at);
    metrics.put_sampled(
        "queries_per_s",
        sliced_rate(done, window, elapsed, &host),
        "1/s",
        Some(runs),
    );
    metrics.put("peak_rss_mb", report::peak_rss_mb("self"), "MB");
    Ok(())
}

/// Per-instance facts of one traced run, kept for the layer metrics.
struct TracedRun {
    outcome: EnumerationOutcome,
    est_states: f64,
    domain_size_mean: f64,
    impossible: bool,
}

/// Traced pass over `indices`: a `bench.pass` root span (request
/// `pass_id * REQ`), one `bench.instance` span per instance (its own
/// request) with the library calls below it.
const REQ: u64 = 1_000_000;

fn traced_pass(
    loaded: &Loaded,
    indices: &[usize],
    scheduler: Scheduler,
    tracer: &mut Tracer,
    pass_id: u64,
    tally: &mut Tally,
    out: &mut Vec<TracedRun>,
) -> f64 {
    let start = Instant::now();
    let root = tracer.open("bench.pass", None, pass_id * REQ);
    for (k, &i) in indices.iter().enumerate() {
        let request = pass_id * REQ + k as u64 + 1;
        let span = tracer.open("bench.instance", Some(root), request);
        let r = {
            let mut ctx = SpanCtx {
                tracer: &mut *tracer,
                parent: span,
                request,
            };
            run_instance(loaded, i, scheduler, false, Some(&mut ctx))
        };
        tracer.close(span);
        tally.check(gate(&loaded.instances[i].r, &r));
        out.push(TracedRun {
            outcome: r.outcome,
            est_states: r.est_states,
            domain_size_mean: r.domain_size_mean,
            impossible: r.impossible,
        });
    }
    tracer.close(root);
    start.elapsed().as_secs_f64()
}

/// Library-layer metrics (`plan`, `ri`, `engine`, `parallel`) from an
/// untraced then a traced window of count-only passes over `indices`, plus
/// one traced `ws:1` and one traced `rayon` pass.  Returns the window's
/// tracing summary.
pub fn layer_metrics(
    loaded: &Loaded,
    indices: &[usize],
    seconds: f64,
    workers: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> TraceSummary {
    let ws = Scheduler::work_stealing(workers);
    // Untraced window: the reference for the tracing overhead.
    let mut plain_pairs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    while plain_pairs.len() < 2 || Instant::now() < deadline {
        let mut sink = Vec::new();
        let t = pass(
            loaded,
            indices,
            Scheduler::Sequential,
            false,
            tally,
            &mut sink,
        ) + pass(loaded, indices, ws, false, tally, &mut sink);
        plain_pairs.push(t);
    }
    // Traced window.
    let mut traced_pairs = Vec::new();
    let mut seq_passes = Vec::new();
    let mut ws_passes = Vec::new();
    let mut runs: Vec<(u64, TracedRun)> = Vec::new();
    let mut pass_id = 1u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    while traced_pairs.len() < 2 || Instant::now() < deadline {
        let mut pair = 0.0;
        for scheduler in [Scheduler::Sequential, ws] {
            let mut out = Vec::new();
            pair += traced_pass(loaded, indices, scheduler, tracer, pass_id, tally, &mut out);
            runs.extend(out.into_iter().map(|r| (pass_id, r)));
            if scheduler.is_sequential() {
                seq_passes.push(pass_id);
            } else {
                ws_passes.push(pass_id);
            }
            pass_id += 1;
        }
        traced_pairs.push(pair);
    }
    let ws1_pass = pass_id;
    let mut sink = Vec::new();
    traced_pass(
        loaded,
        indices,
        Scheduler::work_stealing(1),
        tracer,
        ws1_pass,
        tally,
        &mut sink,
    );
    let rayon_pass = ws1_pass + 1;
    traced_pass(
        loaded,
        indices,
        Scheduler::Rayon { workers },
        tracer,
        rayon_pass,
        tally,
        &mut sink,
    );

    let in_pass = |p: u64| move |r: u64| r / REQ == p;
    let span_sum = |p: u64, name: &str| -> f64 {
        tracer
            .self_by_name(in_pass(p))
            .get(name)
            .copied()
            .unwrap_or(0.0)
    };
    let all: Vec<u64> = seq_passes.iter().chain(&ws_passes).copied().collect();
    let med_over = |passes: &[u64], f: &dyn Fn(u64) -> f64| -> f64 {
        median(&passes.iter().map(|&p| f(p)).collect::<Vec<_>>())
    };
    let runs_of = |p: u64| runs.iter().filter(move |(q, _)| *q == p).map(|(_, r)| r);

    let first_seq = seq_passes[0];
    let states: u64 = runs_of(first_seq).map(|r| r.outcome.states).sum();
    let matches: u64 = runs_of(first_seq).map(|r| r.outcome.matches).sum();
    let mut kernels = sge_ri::KernelUsage::default();
    for r in runs_of(first_seq) {
        kernels.add(r.outcome.kernels);
    }
    let plans: Vec<&TracedRun> = runs_of(first_seq).collect();
    let est_error: Vec<f64> = plans
        .iter()
        .filter(|r| r.outcome.states > 0 && r.est_states > 0.0)
        .map(|r| (r.est_states / r.outcome.states as f64).log10().abs())
        .collect();

    metrics.put(
        "plan.s",
        med_over(&all, &|p| span_sum(p, "plan.plan_with_stats")),
        "s",
    );
    metrics.put(
        "plan.domain_size_mean",
        mean(&plans.iter().map(|r| r.domain_size_mean).collect::<Vec<_>>()),
        "nodes",
    );
    metrics.put(
        "plan.impossible",
        plans.iter().filter(|r| r.impossible).count() as f64,
        "count",
    );
    metrics.put_sampled(
        "plan.est_error_log10",
        median(&est_error),
        "log10",
        Some(est_error.len()),
    );

    let search_seq = med_over(&seq_passes, &|p| span_sum(p, "ri.search"));
    let search_ws = med_over(&ws_passes, &|p| span_sum(p, "parallel.search"));
    metrics.put_sampled("ri.search_s.seq", search_seq, "s", Some(seq_passes.len()));
    metrics.put(
        "ri.states_per_s.seq",
        ratio(states as f64, search_seq),
        "1/s",
    );
    metrics.put("ri.states", states as f64, "count");
    metrics.put(
        "ri.matches_per_state",
        ratio(matches as f64, states as f64),
        "ratio",
    );
    metrics.put("ri.kernel.gallop", kernels.gallop as f64, "count");
    metrics.put("ri.kernel.merge", kernels.merge as f64, "count");
    metrics.put("ri.kernel.bitmap", kernels.bitmap as f64, "count");
    metrics.put(
        "ri.prefilter_rejected",
        kernels.prefilter_rejected as f64,
        "count",
    );

    metrics.put(
        "engine.prepare_s",
        med_over(&all, &|p| span_sum(p, "engine.from_plan")),
        "s",
    );
    metrics.put(
        "engine.dispatch_s",
        med_over(&all, &|p| span_sum(p, "engine.run")),
        "s",
    );

    let ws_sum = |p: u64, f: &dyn Fn(&EnumerationOutcome) -> f64| -> f64 {
        runs_of(p).map(|r| f(&r.outcome)).sum()
    };
    let steals = med_over(&ws_passes, &|p| ws_sum(p, &|o| o.steals as f64));
    let requests = med_over(&ws_passes, &|p| ws_sum(p, &|o| o.steal_requests as f64));
    let tasks = med_over(&ws_passes, &|p| {
        ws_sum(p, &|o| {
            o.worker_stats.iter().map(|w| w.tasks_executed as f64).sum()
        })
    });
    let imbalance = med_over(&ws_passes, &|p| {
        let sd = ws_sum(p, &|o| o.worker_states_stddev);
        let mean_states = ws_sum(p, &|o| o.states as f64 / o.workers.max(1) as f64);
        ratio(sd, mean_states)
    });
    let idle_tail = med_over(&ws_passes, &|p| {
        ws_sum(p, &|o| {
            let busy = o.worker_stats.iter().map(|w| w.busy_seconds);
            busy.clone().fold(f64::MIN, f64::max) - busy.fold(f64::MAX, f64::min)
        })
    });
    let speedup = ratio(search_seq, search_ws);
    metrics.put_sampled(
        "parallel.search_s.ws",
        search_ws,
        "s",
        Some(ws_passes.len()),
    );
    metrics.put(
        "parallel.search_s.ws1",
        span_sum(ws1_pass, "parallel.search"),
        "s",
    );
    metrics.put("parallel.speedup", speedup, "ratio");
    metrics.put("parallel.efficiency", speedup / workers as f64, "ratio");
    metrics.put("parallel.steals", steals, "count");
    metrics.put("parallel.steal_requests", requests, "count");
    metrics.put(
        "parallel.steal_success_ratio",
        ratio(steals, requests),
        "ratio",
    );
    metrics.put("parallel.tasks", tasks, "count");
    metrics.put(
        "parallel.states_per_task",
        ratio(states as f64, tasks),
        "ratio",
    );
    metrics.put("parallel.imbalance", imbalance, "ratio");
    metrics.put("parallel.idle_tail_s", idle_tail, "s");
    metrics.put(
        "parallel.rayon_s",
        span_sum(rayon_pass, "parallel.search"),
        "s",
    );

    let traced = |r: u64| r / REQ >= 1 && r / REQ < ws1_pass;
    TraceSummary {
        overhead_ratio: ratio(median(&traced_pairs), median(&plain_pairs)),
        pairs: traced_pairs.len(),
        unattributed_share: tracer.unattributed_share(traced),
    }
}

/// The tracing overhead and coverage of a traced window.
pub struct TraceSummary {
    /// Median traced pass-pair time over median untraced pass-pair time.
    pub overhead_ratio: f64,
    /// Traced pass pairs the ratio's numerator came from.
    pub pairs: usize,
    /// Share of the traced passes' time no layer span covers.
    pub unattributed_share: f64,
}

impl TraceSummary {
    pub fn put(&self, metrics: &mut Metrics) {
        metrics.put_sampled(
            "trace.overhead_ratio",
            self.overhead_ratio,
            "ratio",
            Some(self.pairs),
        );
        metrics.put("trace.unattributed_share", self.unattributed_share, "ratio");
    }
}

/// The traced run of `ppi_count`: setup spans, then the layer metrics over
/// the main instances; the serving layers stay idle.
pub fn run_traced(
    dir: &Path,
    manifest: &Manifest,
    seconds: f64,
    workers: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (loaded, setups) = load_repeated(dir, manifest, Some(&mut *tracer))?;
    vf2_gate(manifest, tally);
    put_graph_metrics(&loaded, &setups, metrics);
    let main = indices_of(&loaded, Kind::Main);
    let summary = layer_metrics(&loaded, &main, seconds, workers, tracer, tally, metrics);
    put_idle_serving_metrics(metrics);
    summary.put(metrics);
    Ok(())
}

/// `graph.*` from the setup repetitions.
pub fn put_graph_metrics(loaded: &Loaded, setups: &[SetupTimes], metrics: &mut Metrics) {
    let n = Some(setups.len());
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    metrics.put_sampled("graph.parse_s", pick(|s| s.parse), "s", n);
    metrics.put_sampled("graph.stats_s", pick(|s| s.stats), "s", n);
    metrics.put_sampled("graph.bitmap_build_s", pick(|s| s.bitmaps), "s", n);
    let bytes: usize = loaded.targets.iter().map(|t| t.bitmaps.row_bytes()).sum();
    metrics.put("graph.bitmap_bytes", bytes as f64, "bytes");
}

/// The library workloads never touch the serving layers; their metrics are
/// reported as 0 so every workload prints the same list.
fn put_idle_serving_metrics(metrics: &mut Metrics) {
    for (name, unit) in SERVING_LAYER_METRICS {
        metrics.put(name, 0.0, unit);
    }
}

/// The `service` and `wire` layer metrics, in report order.
pub const SERVING_LAYER_METRICS: [(&str, &str); 12] = [
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.hit_ms_p50", "ms"),
    ("service.miss_ms_p50", "ms"),
    ("service.admission_wait_ms", "ms"),
    ("service.route_ws_share", "ratio"),
    ("service.frontend_ms", "ms"),
    ("service.load_s", "s"),
    ("wire.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.frame_us_per_krow", "us"),
    ("wire.bytes_per_row", "bytes"),
];
