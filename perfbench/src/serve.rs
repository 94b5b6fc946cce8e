//! `serve_mix`: `sge-serve` (default configuration: event loop, unsharded)
//! on loopback with `workers` worker threads, driven as a closed loop by
//! `CLIENTS` connections from this one process.  Each connection sends its
//! next query only after the previous reply arrived.

use crate::inputs::{Kind, Manifest};
use crate::library::{self, put_graph_metrics};
use crate::report::{
    self, median, percentile, quiet_duration, quiet_median, ratio, sliced_rate, HostLog,
    HostMonitor, Metrics, Stamped, Tally,
};
use crate::spans::Tracer;
use sge_engine::Scheduler;
use sge_service::{QuerySpec, Service, ServiceConfig};
use sge_util::SplitMix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server spawns per run, before and after the closed loop; `setup_s` is
/// the quiet median of their set-up times.  Two batches, minutes
/// apart, so a short burst of host load cannot move every repetition.
const SETUP_REPS: [usize; 2] = [11, 10];

/// Client connections of the closed loop (at most `workers`).  One: with
/// two, a heavy query routed to `ws:2` took both cores from the other
/// connection's queries, so the stream latencies and the throughput
/// measured which queries happened to collide, not the program.
const CLIENTS: usize = 1;

/// Traffic shares per thousand queries: hot, cold, stream, heavy.  Heavy
/// queries make about 2% of the buffered ones, so `count_p99_ms` sits in
/// the middle of their latency distribution.
const MIX: [(Kind, u32); 4] = [
    (Kind::Hot, 560),
    (Kind::Cold, 250),
    (Kind::Stream, 174),
    (Kind::Heavy, 16),
];

/// The passes behind `solve_s.*`: the share of the run's seconds they take,
/// after at least `SOLVE_MIN_PAIRS` pairs of passes.
const SOLVE_SHARE: f64 = 0.3;
const SOLVE_MIN_PAIRS: usize = 3;

/// A running `sge-serve`; killed and reaped on drop if still alive.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err("sge-serve did not report its address".to_string()),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.request("SHUTDOWN"))
            .map(|reply| reply.contains("\"shutdown\":true"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return if sent == Ok(true) {
                    Ok(())
                } else {
                    Err("SHUTDOWN was not acknowledged".to_string())
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("sge-serve did not exit after SHUTDOWN".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.line()
    }
}

/// The raw JSON token after `"key":` in a single-line response.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// A query of the mix with its reference count.
struct Query {
    kind: Kind,
    target: String,
    matches: u64,
    line: String,
}

fn queries(manifest: &Manifest) -> Vec<Query> {
    manifest
        .instances
        .iter()
        .map(|r| {
            let target = manifest.targets[r.target].0.clone();
            let emit = if r.kind == Kind::Stream {
                " emit=stream"
            } else {
                ""
            };
            Query {
                kind: r.kind,
                line: format!("QUERY target={target}{emit} pattern={}", r.pattern_inline),
                target,
                matches: r.matches,
            }
        })
        .collect()
}

/// What the server said about one answered query.
#[derive(Clone, Copy, Default)]
struct Reply {
    ok: bool,
    /// When the last line of the answer arrived.
    received: Option<Instant>,
    latency_s: f64,
    cache_hit: bool,
    /// Whether the query ran under work stealing (else sequentially).
    work_stealing: bool,
    preprocess_s: f64,
    match_s: f64,
}

/// Sends one query (buffered or streamed) and checks the answer against
/// the reference: buffered `matches`; streamed header, row count and footer
/// (`matches`, `rows_sent`, not cancelled).
fn ask(conn: &mut Conn, q: &Query) -> Result<Reply, String> {
    conn.send(&q.line)?;
    let first = conn.line()?;
    // A stream names its scheduler in the header, a buffered reply in its
    // only line.
    let scheduler_line = first.clone();
    let mut rows = 0u64;
    let footer = if q.kind == Kind::Stream && first.contains("\"stream\":true") {
        loop {
            let line = conn.line()?;
            match line.strip_prefix("{\"rows\":[") {
                // `[[a,b],[c,d]]`: one row per inner opening bracket.
                Some(body) => rows += body.matches('[').count() as u64,
                None => break line,
            }
        }
    } else {
        first
    };
    let received = Some(Instant::now());
    let ok = footer.starts_with("{\"ok\":true")
        && (q.kind != Kind::Stream || rows == q.matches)
        && num(&footer, "matches") == Some(q.matches as f64)
        && (q.kind != Kind::Stream
            || (num(&footer, "rows_sent") == Some(q.matches as f64)
                && field(&footer, "cancelled") == Some("false")));
    Ok(Reply {
        ok,
        received,
        latency_s: num(&footer, "latency_seconds").unwrap_or(0.0),
        cache_hit: field(&footer, "cache_hit") == Some("true"),
        work_stealing: field(&scheduler_line, "scheduler")
            .is_some_and(|s| s.starts_with("\"work-stealing")),
        preprocess_s: num(&footer, "preprocess_seconds").unwrap_or(0.0),
        match_s: num(&footer, "match_seconds").unwrap_or(0.0),
    })
}

/// Spawns the server and LOADs every target; returns it with the set-up
/// time (spawn to last LOAD acknowledged) and the LOAD part alone.
fn set_up(
    bin: &Path,
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
) -> Result<(Server, f64, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(bin, workers)?;
    let mut conn = server.connect()?;
    let loads = Instant::now();
    for (name, file) in &manifest.targets {
        let path = dir.join(file);
        let reply = conn.request(&format!("LOAD {name} {}", path.display()))?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("LOAD {name} failed: {}", reply.trim()));
        }
    }
    let end = Instant::now();
    Ok((
        server,
        (end - start).as_secs_f64(),
        (end - loads).as_secs_f64(),
    ))
}

/// Sets up `reps` (at least one) servers, keeping the last one running;
/// returns it with each set-up's `(start, seconds)` and LOAD seconds.
fn set_up_repeated(
    bin: &Path,
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
    reps: usize,
) -> Result<(Server, Vec<Stamped>, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    loop {
        let start = Instant::now();
        let (server, setup, load) = set_up(bin, dir, manifest, workers)?;
        setups.push((start, setup));
        loads.push(load);
        if setups.len() >= reps {
            return Ok((server, setups, loads));
        }
        server.shutdown()?;
    }
}

/// One answered query of the closed loop.
struct Sample {
    kind: Kind,
    /// Index of the query in the mix.
    query: usize,
    sent: Instant,
    /// Until the answer's last line arrived.
    latency_s: f64,
    /// Until the answer was also checked.
    checked_s: f64,
    reply: Reply,
}

/// Records the client-side spans of one answered query: the request
/// (harness: send to answer checked), the wire round trip (send to last
/// line received), the server's own time as it reports it, and inside that
/// the prepare (on a cache miss) and the run.
fn record_request(tracer: &mut Tracer, request: u64, s: &Sample) {
    let start = tracer.ns_of(s.sent);
    let ns = |secs: f64| (secs * 1e9) as u64;
    let end = start + ns(s.latency_s);
    let root = tracer.record(
        "bench.request",
        start,
        start + ns(s.checked_s),
        None,
        request,
    );
    let trip = tracer.record("wire.roundtrip", start, end, Some(root), request);
    let service_end = start + ns(s.reply.latency_s.min(s.latency_s));
    let svc = tracer.record("service.query", start, service_end, Some(trip), request);
    let mut at = start;
    if !s.reply.cache_hit {
        tracer.record(
            "engine.prepare",
            at,
            at + ns(s.reply.preprocess_s),
            Some(svc),
            request,
        );
        at += ns(s.reply.preprocess_s);
    }
    tracer.record(
        "engine.run",
        at,
        at + ns(s.reply.match_s),
        Some(svc),
        request,
    );
}

/// Runs the closed loop for `seconds`: `clients` connections, each with its
/// own seeded kind sequence; cold queries come from one shared cursor so
/// they never repeat until the pool wraps.  With a tracer, every client
/// records each query's spans as soon as its answer is checked.
fn closed_loop(
    server: &Server,
    all: &[Query],
    clients: usize,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Vec<Sample>, f64), String> {
    let of =
        |kind: Kind| -> Vec<usize> { (0..all.len()).filter(|&i| all[i].kind == kind).collect() };
    let pools = [
        of(Kind::Hot),
        of(Kind::Cold),
        of(Kind::Stream),
        of(Kind::Heavy),
    ];
    let cold_cursor = AtomicUsize::new(0);
    let heavy_cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    type ClientResult = Result<(Vec<Sample>, Option<Tracer>), String>;
    let forks: Vec<Option<Tracer>> = (0..clients)
        .map(|_| tracer.as_deref().map(Tracer::fork))
        .collect();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .zip(forks)
            .map(|(client, mut spans)| {
                let (pools, cold_cursor, heavy_cursor) = (&pools, &cold_cursor, &heavy_cursor);
                scope.spawn(move || -> ClientResult {
                    let mut conn = server.connect()?;
                    let mut rng = SplitMix64::new(seed ^ (0x5eed_0000 + client as u64));
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let roll = rng.next_below(1000) as u32;
                        let mut acc = 0;
                        let slot = MIX
                            .iter()
                            .position(|&(_, share)| {
                                acc += share;
                                roll < acc
                            })
                            .unwrap_or(0);
                        let pool = &pools[slot];
                        if pool.is_empty() {
                            continue;
                        }
                        let pick = match MIX[slot].0 {
                            Kind::Cold => cold_cursor.fetch_add(1, Ordering::Relaxed),
                            Kind::Heavy => heavy_cursor.fetch_add(1, Ordering::Relaxed),
                            _ => rng.next_below(pool.len()),
                        };
                        let query = pool[pick % pool.len()];
                        let q = &all[query];
                        let sent = Instant::now();
                        let reply = ask(&mut conn, q)?;
                        let received = reply.received.unwrap_or(sent);
                        let sample = Sample {
                            kind: q.kind,
                            query,
                            sent,
                            latency_s: (received - sent).as_secs_f64(),
                            checked_s: sent.elapsed().as_secs_f64(),
                            reply,
                        };
                        if let Some(t) = spans.as_mut() {
                            let request = ((client as u64) << 32) + samples.len() as u64 + 1;
                            record_request(t, request, &sample);
                        }
                        samples.push(sample);
                    }
                    Ok((samples, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in results {
        let (part, spans) = r?;
        samples.extend(part);
        if let (Some(t), Some(spans)) = (tracer.as_deref_mut(), spans) {
            t.absorb(spans);
        }
    }
    Ok((samples, elapsed))
}

/// Prints how routing treated the heavy queries: how many of their first
/// runs and of their repeats went to work stealing, and the median latency
/// under each scheduler.
fn print_heavy_routing(samples: &[Sample]) {
    let mut heavy: Vec<&Sample> = samples.iter().filter(|s| s.kind == Kind::Heavy).collect();
    heavy.sort_by_key(|s| s.sent);
    let mut seen = std::collections::HashSet::new();
    let (mut first, mut first_ws, mut repeat, mut repeat_ws) = (0, 0, 0, 0);
    let (mut seq_ms, mut ws_ms) = (Vec::new(), Vec::new());
    for s in heavy {
        let ws = s.reply.work_stealing;
        if seen.insert(s.query) {
            first += 1;
            first_ws += usize::from(ws);
        } else {
            repeat += 1;
            repeat_ws += usize::from(ws);
        }
        if ws { &mut ws_ms } else { &mut seq_ms }.push(s.latency_s * 1e3);
    }
    println!(
        "serve_mix heavy_routing first_ws {first_ws}/{first} repeat_ws {repeat_ws}/{repeat} \
         seq_p50_ms {:.3} (n={}) ws_p50_ms {:.3} (n={})",
        median(&seq_ms),
        seq_ms.len(),
        median(&ws_ms),
        ws_ms.len()
    );
}

/// Each answered query's typical latency in ms: the quiet median (see
/// [`quiet_median`]) over every time the same query was sent, each send
/// judged by the host's interference while it was answered.  Queries of
/// the mix repeat (cold ones excepted, which keep their own latency), and
/// with one connection nothing but the host makes two sends of one query
/// differ, so a burst of host load moves no percentile taken over these.
fn typical_latencies_ms(samples: &[Sample], host: &HostLog) -> Vec<f64> {
    let mut sends: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for s in samples {
        let done = s.sent + Duration::from_secs_f64(s.latency_s);
        sends
            .entry(s.query)
            .or_default()
            .push((s.latency_s * 1e3, host.interference(s.sent, done)));
    }
    let typical: HashMap<usize, f64> = sends
        .into_iter()
        .map(|(query, runs)| (query, quiet_median(runs)))
        .collect();
    samples.iter().map(|s| typical[&s.query]).collect()
}

/// `solve_s.seq` / `solve_s.ws` for `serve_mix`: in-process passes over
/// the heavy queries, counting only, each planned, prepared and run as on a
/// cache miss; `seq` and `ws:workers` passes alternate for `seconds`.  The
/// heavy queries carry the dense target's bitmap-kernel work, and their
/// costs under both schedulers are chosen alike for every seed.  Not
/// through the server: there the event loop, the server's workers and the
/// client thread share the cores, and pinned `ws` runs of sub-millisecond
/// queries moved by up to 2x with the host's load.  Returns the number of
/// heavy queries and, per scheduler, every pass's latencies.
fn solve_passes(
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(usize, [Vec<Stamped>; 2]), String> {
    let (loaded, _) = library::load(dir, manifest, None)?;
    let heavy: Vec<usize> = (0..loaded.instances.len())
        .filter(|&i| loaded.instances[i].r.kind == Kind::Heavy)
        .collect();
    let schedulers = [Scheduler::Sequential, Scheduler::work_stealing(workers)];
    let mut latencies = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pair = 0usize;
    while pair < SOLVE_MIN_PAIRS || Instant::now() < deadline {
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for which in order {
            library::pass(
                &loaded,
                &heavy,
                schedulers[which],
                false,
                tally,
                &mut latencies[which],
            );
        }
        pair += 1;
    }
    Ok((heavy.len(), latencies))
}

/// The end-to-end run of `serve_mix`.
#[allow(clippy::too_many_arguments)]
pub fn run_end_to_end(
    bin: &Path,
    dir: &Path,
    manifest: &Manifest,
    seconds: f64,
    workers: usize,
    seed: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let dir = absolute(dir)?;
    let all = queries(manifest);
    library::vf2_gate(manifest, tally);
    let monitor = HostMonitor::start();
    let (server, mut setups, _) = set_up_repeated(bin, &dir, manifest, workers, SETUP_REPS[0])?;
    let loop_s = seconds * (0.8 - SOLVE_SHARE);
    let (samples, elapsed) = closed_loop(&server, &all, CLIENTS, seed, loop_s, None)?;
    let rss = report::peak_rss_mb(&server.pid());
    server.shutdown()?;
    let (server, more, _) = set_up_repeated(bin, &dir, manifest, workers, SETUP_REPS[1])?;
    server.shutdown()?;
    setups.extend(more);
    let (heavy, solve) = solve_passes(&dir, manifest, workers, seconds * SOLVE_SHARE, tally)?;
    let host = monitor.finish();
    println!("serve_mix {}", host.summary());
    print_heavy_routing(&samples);
    for s in &samples {
        tally.check(s.reply.ok);
    }
    let origin = samples
        .iter()
        .map(|s| s.sent)
        .min()
        .unwrap_or_else(Instant::now);
    let typical = typical_latencies_ms(&samples, &host);
    let of_kind = |stream: bool| -> Vec<f64> {
        samples
            .iter()
            .zip(&typical)
            .filter(|(s, _)| (s.kind == Kind::Stream) == stream)
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (count, stream) = (of_kind(false), of_kind(true));
    metrics.put_sampled(
        "setup_s",
        quiet_duration(&setups, &host),
        "s",
        Some(setups.len()),
    );
    for (name, lat) in [("solve_s.seq", &solve[0]), ("solve_s.ws", &solve[1])] {
        metrics.put_sampled(
            name,
            library::typical_pass_seconds(lat, heavy, &host),
            "s",
            Some(lat.len() / heavy.max(1)),
        );
    }
    for (name, samples, p) in [
        ("count_p50_ms", &count, 50.0),
        ("count_p99_ms", &count, 99.0),
        ("stream_p50_ms", &stream, 50.0),
        ("stream_p90_ms", &stream, 90.0),
    ] {
        metrics.put_sampled(name, percentile(samples, p), "ms", Some(samples.len()));
    }
    let sent = samples.iter().map(|s| s.sent);
    metrics.put_sampled(
        "queries_per_s",
        sliced_rate(sent, origin, elapsed, &host),
        "1/s",
        Some(samples.len()),
    );
    metrics.put("peak_rss_mb", rss, "MB");
    Ok(())
}

fn absolute(dir: &Path) -> Result<PathBuf, String> {
    std::fs::canonicalize(dir).map_err(|e| format!("cannot resolve {}: {e}", dir.display()))
}

/// `METRICS` counters and `STATS` fields the service layer metrics are
/// deltas of.
#[derive(Clone, Copy, Default)]
struct ServerCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    dispatch_seq: f64,
    dispatch_ws: f64,
    admissions: f64,
    admission_wait_s: f64,
}

fn counters(server: &Server) -> Result<ServerCounters, String> {
    let mut conn = server.connect()?;
    let m = conn.request("METRICS")?;
    let s = conn.request("STATS")?;
    let get = |line: &str, key: &str| num(line, key).unwrap_or(0.0);
    Ok(ServerCounters {
        hits: get(&m, "cache.hits"),
        misses: get(&m, "cache.misses"),
        evictions: get(&m, "cache.evictions"),
        dispatch_seq: get(&m, "engine.dispatch.sequential"),
        dispatch_ws: get(&m, "engine.dispatch.work_stealing"),
        admissions: get(&s, "admissions"),
        admission_wait_s: get(&s, "admission_wait_seconds"),
    })
}

/// The traced run of `serve_mix`: an untraced then a traced closed-loop
/// window against the server (client spans per request, recorded in the
/// loop, with the server's reported `latency_seconds`,
/// `preprocess_seconds` and `match_seconds` as child spans), then an
/// in-process replay through `Service::run_query` and the wire codec, then
/// the library layers over the mix's distinct queries.
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    bin: &Path,
    dir: &Path,
    manifest: &Manifest,
    seconds: f64,
    workers: usize,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let dir = absolute(dir)?;
    let all = queries(manifest);
    library::vf2_gate(manifest, tally);
    let (server, _, loads) = set_up_repeated(bin, &dir, manifest, workers, SETUP_REPS[0])?;
    let (plain, _) = closed_loop(&server, &all, CLIENTS, seed, seconds * 0.2, None)?;
    let before = counters(&server)?;
    let (traced, _) = closed_loop(
        &server,
        &all,
        CLIENTS,
        seed ^ 1,
        seconds * 0.2,
        Some(&mut *tracer),
    )?;
    let after = counters(&server)?;
    server.shutdown()?;
    print_heavy_routing(&traced);
    for s in plain.iter().chain(&traced) {
        tally.check(s.reply.ok);
    }

    let count_lat = |v: &[Sample]| -> Vec<f64> {
        v.iter()
            .filter(|s| s.kind != Kind::Stream)
            .map(|s| s.latency_s)
            .collect()
    };
    let frontend: Vec<f64> = traced
        .iter()
        .map(|s| (s.latency_s - s.reply.latency_s).max(0.0) * 1e3)
        .collect();

    // In-process replay of the same targets and queries.
    let (loaded, setups) = library::load_repeated(&dir, manifest, None)?;
    put_graph_metrics(&loaded, &setups, metrics);
    let replay = replay(&dir, manifest, &all, workers, tally)?;

    // Library layers over the mix's distinct queries (cold ones sampled).
    let mut indices: Vec<usize> = (0..loaded.instances.len())
        .filter(|&i| loaded.instances[i].r.kind != Kind::Cold)
        .collect();
    indices.extend(
        (0..loaded.instances.len())
            .filter(|&i| loaded.instances[i].r.kind == Kind::Cold)
            .take(64),
    );
    // On a tracer of their own, so the wire spans' unattributed share is not
    // diluted; serve_mix reports the wire window's tracing summary instead
    // of the library passes'.
    library::layer_metrics(
        &loaded,
        &indices,
        seconds * 0.35,
        workers,
        &mut Tracer::default(),
        tally,
        metrics,
    );

    let d = |f: fn(&ServerCounters) -> f64| f(&after) - f(&before);
    metrics.put(
        "service.cache_hit_ratio",
        ratio(d(|c| c.hits), d(|c| c.hits) + d(|c| c.misses)),
        "ratio",
    );
    metrics.put("service.cache_evictions", d(|c| c.evictions), "count");
    metrics.put_sampled(
        "service.hit_ms_p50",
        median(&replay.hit_ms),
        "ms",
        Some(replay.hit_ms.len()),
    );
    metrics.put_sampled(
        "service.miss_ms_p50",
        median(&replay.miss_ms),
        "ms",
        Some(replay.miss_ms.len()),
    );
    metrics.put(
        "service.admission_wait_ms",
        ratio(d(|c| c.admission_wait_s) * 1e3, d(|c| c.admissions)),
        "ms",
    );
    metrics.put(
        "service.route_ws_share",
        ratio(
            d(|c| c.dispatch_ws),
            d(|c| c.dispatch_ws) + d(|c| c.dispatch_seq),
        ),
        "ratio",
    );
    metrics.put_sampled(
        "service.frontend_ms",
        median(&frontend),
        "ms",
        Some(frontend.len()),
    );
    metrics.put_sampled("service.load_s", median(&loads), "s", Some(loads.len()));
    metrics.put_sampled("wire.parse_us", replay.parse_us, "us", Some(replay.parse_n));
    metrics.put_sampled(
        "wire.encode_us",
        replay.encode_us,
        "us",
        Some(replay.encode_n),
    );
    metrics.put("wire.frame_us_per_krow", replay.frame_us_per_krow, "us");
    metrics.put("wire.bytes_per_row", replay.bytes_per_row, "bytes");
    let (p, t) = (count_lat(&plain), count_lat(&traced));
    metrics.put_sampled(
        "trace.overhead_ratio",
        ratio(median(&t), median(&p)),
        "ratio",
        Some(t.len()),
    );
    metrics.put(
        "trace.unattributed_share",
        tracer.unattributed_share(|_| true),
        "ratio",
    );
    Ok(())
}

/// In-process timings of the service and wire layers.
struct Replay {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    parse_us: f64,
    parse_n: usize,
    encode_us: f64,
    encode_n: usize,
    frame_us_per_krow: f64,
    bytes_per_row: f64,
}

/// Replays the hot queries twice (miss, then hit) and the first cold
/// queries once through `Service::run_query`, timing the wire parser and
/// encoder on the same requests and responses, and the row-frame encoder
/// on the streamed queries' rows.
fn replay(
    dir: &Path,
    manifest: &Manifest,
    all: &[Query],
    workers: usize,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let config = ServiceConfig {
        batch_workers: workers,
        ..ServiceConfig::default()
    };
    let service = Service::new(config);
    for (name, file) in &manifest.targets {
        service
            .load_target(name, dir.join(file), None)
            .map_err(|e| format!("in-process LOAD {name}: {e}"))?;
    }
    let hot = all.iter().filter(|q| q.kind == Kind::Hot);
    let cold = all.iter().filter(|q| q.kind == Kind::Cold).take(64);
    let list: Vec<&Query> = hot.clone().chain(hot).chain(cold).collect();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let (mut parse_s, mut encode_s) = (0.0, 0.0);
    for q in &list {
        let start = Instant::now();
        let command = sge_wire::protocol::parse_command(&q.line);
        parse_s += start.elapsed().as_secs_f64();
        let pattern = q
            .line
            .rsplit_once("pattern=")
            .map(|(_, p)| p)
            .unwrap_or_default();
        let spec = QuerySpec::new(sge_wire::protocol::decode_inline_pattern(pattern));
        let start = Instant::now();
        let outcome = service.run_query(&q.target, &spec);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let Ok(outcome) = outcome else {
            tally.check(false);
            continue;
        };
        tally.check(command.is_ok() && outcome.outcome.matches == q.matches);
        if outcome.cache_hit {
            hit_ms.push(elapsed_ms);
        } else {
            miss_ms.push(elapsed_ms);
        }
        let start = Instant::now();
        let rendered = sge_wire::protocol::query_response(&outcome).render();
        encode_s += start.elapsed().as_secs_f64();
        std::hint::black_box(rendered);
    }
    // Row frames of the streamed queries, 64 rows each (the default chunk).
    let (mut frame_s, mut rows, mut bytes) = (0.0, 0usize, 0usize);
    for q in all.iter().filter(|q| q.kind == Kind::Stream) {
        let pattern = q
            .line
            .rsplit_once("pattern=")
            .map(|(_, p)| p)
            .unwrap_or_default();
        let mut spec = QuerySpec::new(sge_wire::protocol::decode_inline_pattern(pattern));
        spec.run.collect_mappings = q.matches as usize;
        let outcome = service
            .run_query(&q.target, &spec)
            .map_err(|e| format!("in-process stream replay: {e}"))?;
        tally.check(outcome.outcome.mappings.len() as u64 == q.matches);
        for chunk in outcome
            .outcome
            .mappings
            .chunks(sge_service::DEFAULT_STREAM_CHUNK)
        {
            let start = Instant::now();
            let frame = sge_wire::protocol::stream_rows_frame(chunk).render();
            frame_s += start.elapsed().as_secs_f64();
            rows += chunk.len();
            bytes += frame.len() + 1;
        }
    }
    let n = list.len().max(1) as f64;
    Ok(Replay {
        hit_ms,
        miss_ms,
        parse_us: parse_s * 1e6 / n,
        parse_n: list.len(),
        encode_us: encode_s * 1e6 / n,
        encode_n: list.len(),
        frame_us_per_krow: ratio(frame_s * 1e6 * 1000.0, rows as f64),
        bytes_per_row: ratio(bytes as f64, rows as f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_from_single_line_json() {
        let line = "{\"ok\":true,\"matches\":60,\"cache_hit\":false,\"latency_seconds\":0.5}";
        assert_eq!(num(line, "matches"), Some(60.0));
        assert_eq!(field(line, "cache_hit"), Some("false"));
        assert_eq!(num(line, "latency_seconds"), Some(0.5));
        assert_eq!(num(line, "missing"), None);
    }
}
