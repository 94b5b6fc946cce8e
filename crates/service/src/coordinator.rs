//! The scatter-gather coordination plane: one client-facing [`Backend`]
//! fanning requests out over in-process shard [`Service`]s.
//!
//! `LOAD` partitions the target with the degree-aware vertex-cut partitioner
//! ([`sge_graph::Partition`]) and registers one compacted shard graph — with
//! its owned-vertex set and replication radius — on every shard service.
//! Each shard keeps its own registry, prepared cache, metrics registry and
//! admission semaphore; only the **label interner** is shared, so a pattern
//! parsed on any shard agrees with every shard's label numbering.
//!
//! `QUERY` fans out to every shard, where rooted plans restrict the plan
//! root to shard-owned vertices; because ownership partitions the nodes and
//! every pattern within the replication radius is fully visible from an
//! owned root, the per-shard match sets are **disjoint and complete** — the
//! coordinator merges by remapping shard-local node ids to global ids and
//! concatenating, with no cross-shard deduplication.
//!
//! Streamed queries run one thread per shard, bridged over bounded channels;
//! the coordinator forwards frames to the client strictly in shard order on
//! the calling thread (deterministic byte output for the simulator) and
//! cancels the remaining shards cooperatively when the client disconnects.
//!
//! The coordinator keeps its own `coordinator.*` stats family (admission
//! waits, latencies, stream counters), strictly separate from each shard's
//! `service.*` family — a coordinator-level admission wait is never
//! double-counted as a shard-level one.

use crate::protocol::{batch_response, stats_fields};
use crate::registry::SharedInterner;
use crate::semaphore;
use crate::{
    Backend, BatchOutcome, GraphInfo, GraphRegistry, QueryOutcome, QuerySet, QuerySpec, Service,
    ServiceConfig, ServiceError, ServiceStats, StatsSnapshot, StreamHeader, StreamSink,
    StreamedQueryOutcome, MAX_STREAM_CHUNK,
};
use sge_graph::io::parse_graph_with_interner;
use sge_graph::{NodeId, Partition, PartitionSpec};
use sge_obs::{EventLog, Gauge, HistogramSummary, MetricValue, MetricsRegistry};
use sge_util::{Clock, SystemClock};
use sge_wire::json::Json;
use sge_wire::protocol::{
    error_response, explain_analyze_response, explain_response, load_response, metrics_json,
    query_response, stream_footer_response,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, RwLock};

/// Frames buffered per shard stream before the producing shard blocks:
/// bounds coordinator memory at `shards * STREAM_BUFFER_FRAMES * chunk` rows
/// regardless of result cardinality.
const STREAM_BUFFER_FRAMES: usize = 16;

/// Everything the coordinator remembers about one partitioned target.
struct TargetState {
    /// Full (unsharded) node count, for `STATS`/`LOAD` reporting.
    nodes: usize,
    /// Full (unsharded) directed edge count.
    edges: usize,
    /// Per-shard local-id → global-id tables (indexed by shard).
    remaps: Vec<Arc<Vec<NodeId>>>,
}

/// The scatter-gather front: owns one [`Service`] per shard and implements
/// [`Backend`] by fanning out and merging.  See module docs.
pub struct Coordinator {
    shards: Vec<Arc<Service>>,
    targets: RwLock<HashMap<String, TargetState>>,
    partition_spec: PartitionSpec,
    interner: SharedInterner,
    stats: ServiceStats,
    metrics: MetricsRegistry,
    admission: semaphore::Semaphore,
    clock: Arc<dyn Clock>,
    connections: Gauge,
    config: ServiceConfig,
    event_log: RwLock<Option<Arc<EventLog>>>,
}

impl Coordinator {
    /// A coordinator over `shards` in-process shard services, on the real
    /// system clock and the default partition knobs.
    pub fn new(shards: usize, config: ServiceConfig) -> Self {
        Coordinator::with_clock(
            config,
            Arc::new(SystemClock::new()),
            PartitionSpec::new(shards),
        )
    }

    /// Full-control constructor: clock injection (the simulator's virtual
    /// clock flows to every shard, so all latencies stay deterministic) and
    /// explicit partition knobs (`spec.shards` decides the shard count).
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>, spec: PartitionSpec) -> Self {
        let interner: SharedInterner = Arc::new(Mutex::new(HashMap::new()));
        let shards: Vec<Arc<Service>> = (0..spec.shards.max(1))
            .map(|_| {
                Arc::new(Service::with_clock_and_registry(
                    config,
                    Arc::clone(&clock),
                    GraphRegistry::with_interner(Arc::clone(&interner)),
                ))
            })
            .collect();
        let metrics = MetricsRegistry::new();
        let stats = ServiceStats::with_registry_prefixed(&metrics, "coordinator");
        let connections = metrics.gauge("coordinator.connections_open");
        Coordinator {
            shards,
            targets: RwLock::new(HashMap::new()),
            partition_spec: spec,
            interner,
            stats,
            metrics,
            admission: semaphore::Semaphore::new(config.max_in_flight.max(1)),
            clock,
            connections,
            config,
            event_log: RwLock::new(None),
        }
    }

    /// Number of shards this coordinator fans out over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard services, in shard order (tests and the metrics
    /// aggregation read these).
    pub fn shards(&self) -> &[Arc<Service>] {
        &self.shards
    }

    /// The partition knobs `LOAD` applies.
    pub fn partition_spec(&self) -> &PartitionSpec {
        &self.partition_spec
    }

    /// The coordinator's own metrics registry (`coordinator.*`); shard
    /// metrics live in each shard's registry and are aggregated under
    /// `shard.*` only at `METRICS` time.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time snapshot of the coordinator-level counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn log_event(&self, line: &str) {
        if let Some(log) = self
            .event_log
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
        {
            log.record(line);
        }
    }

    /// Loads and partitions a target file (the sharded `LOAD` verb): parses
    /// once through the shared interner, partitions with the configured
    /// [`PartitionSpec`], and registers one compacted shard graph per shard
    /// service.  Returns the aggregate info (full node/edge counts, bitmap
    /// footprints summed over shards, `capped` when **any** shard capped)
    /// plus the per-shard infos in shard order.
    pub fn load_target(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        bitmap_cap: Option<usize>,
    ) -> Result<(GraphInfo, Vec<GraphInfo>), ServiceError> {
        let mut config = self.config.bitmaps;
        if let Some(cap) = bitmap_cap {
            config.max_bytes = cap;
        }
        let text = std::fs::read_to_string(path).map_err(ServiceError::Io)?;
        let graph = {
            let mut interner = self
                .interner
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            parse_graph_with_interner(&text, &mut interner)?
        };
        Ok(self.insert_partitioned(name, graph, &config))
    }

    /// Partitions and registers an in-memory graph under the coordinator's
    /// default bitmap config — the simulator's entry point (scenarios never
    /// touch the filesystem).
    pub fn insert_target(
        &self,
        name: &str,
        graph: sge_graph::Graph,
    ) -> (GraphInfo, Vec<GraphInfo>) {
        self.insert_partitioned(name, graph, &self.config.bitmaps)
    }

    fn insert_partitioned(
        &self,
        name: &str,
        graph: sge_graph::Graph,
        config: &sge_graph::BitmapConfig,
    ) -> (GraphInfo, Vec<GraphInfo>) {
        let nodes = graph.num_nodes();
        let edges = graph.num_edges();
        let partition = Partition::new(&graph, &self.partition_spec);
        let mut shard_infos = Vec::with_capacity(self.shards.len());
        let mut remaps = Vec::with_capacity(self.shards.len());
        for (service, shard) in self.shards.iter().zip(partition.shards) {
            let info = service.registry().insert_shard(
                name,
                shard.graph,
                config,
                Arc::new(shard.owned),
                partition.replication_hops,
            );
            remaps.push(Arc::new(shard.to_global));
            shard_infos.push(info);
        }
        for (index, info) in shard_infos.iter().enumerate() {
            if info.bitmap_capped {
                self.log_event(
                    &Json::obj(vec![
                        ("event", Json::str("shard_bitmap_cap_fallback")),
                        ("target", Json::str(name)),
                        ("shard", Json::U64(index as u64)),
                        ("cap_bytes", Json::U64(config.max_bytes as u64)),
                    ])
                    .render(),
                );
            }
        }
        self.targets
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(
                name.to_string(),
                TargetState {
                    nodes,
                    edges,
                    remaps,
                },
            );
        let total = GraphInfo {
            name: name.to_string(),
            nodes,
            edges,
            bitmap_rows: shard_infos.iter().map(|i| i.bitmap_rows).sum(),
            bitmap_bytes: shard_infos.iter().map(|i| i.bitmap_bytes).sum(),
            bitmap_capped: shard_infos.iter().any(|i| i.bitmap_capped),
        };
        (total, shard_infos)
    }

    fn remaps_for(&self, target: &str) -> Result<Vec<Arc<Vec<NodeId>>>, ServiceError> {
        self.targets
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(target)
            .map(|state| state.remaps.clone())
            .ok_or_else(|| ServiceError::UnknownTarget(target.to_string()))
    }

    /// Acquires a coordinator-level admission permit, recording the wait
    /// under `coordinator.admission*` — the shard services record their own
    /// waits under `service.*`, and the two families never alias.
    fn admit(&self) -> semaphore::Permit<'_> {
        let wait_started = self.clock.now();
        let permit = self.admission.acquire();
        let waited = self.clock.now().saturating_sub(wait_started);
        self.stats.record_admission_wait(waited.as_secs_f64());
        permit
    }

    /// Executes one buffered query on every shard and merges: counts sum,
    /// collected mappings are remapped to global ids, concatenated and
    /// sorted (byte-identical to the unsharded engine's sorted collection on
    /// complete runs), `cache_hit` is the conjunction.  Returns the merged
    /// outcome plus the per-shard outcomes in shard order.
    pub fn run_query(
        &self,
        target: &str,
        spec: &QuerySpec,
    ) -> Result<(QueryOutcome, Vec<QueryOutcome>), ServiceError> {
        let started = self.clock.now();
        let result = self.run_query_inner(target, spec, started);
        if result.is_err() {
            self.stats.record_error();
        }
        result
    }

    fn run_query_inner(
        &self,
        target: &str,
        spec: &QuerySpec,
        started: std::time::Duration,
    ) -> Result<(QueryOutcome, Vec<QueryOutcome>), ServiceError> {
        let remaps = self.remaps_for(target)?;
        let _permit = self.admit();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut all_mappings: Vec<Vec<NodeId>> = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let mut outcome = shard.run_query(target, spec)?;
            let map = &remaps[index];
            for mapping in &mut outcome.outcome.mappings {
                for node in mapping.iter_mut() {
                    *node = map[*node as usize];
                }
            }
            all_mappings.append(&mut outcome.outcome.mappings);
            per_shard.push(outcome);
        }
        let mut merged = merge_query_outcomes(&per_shard);
        all_mappings.sort_unstable();
        if spec.run.collect_mappings > 0 {
            all_mappings.truncate(spec.run.collect_mappings);
        }
        merged.outcome.mappings = all_mappings;
        merged.latency_seconds = self.clock.now().saturating_sub(started).as_secs_f64();
        self.stats
            .record_query(merged.outcome.matches, merged.latency_seconds);
        Ok((merged, per_shard))
    }

    /// Executes one streamed query with scatter-gather delivery: one thread
    /// per shard enumerates into a bounded channel (rows remapped to global
    /// ids shard-side), and the calling thread forwards frames to `sink`
    /// strictly in shard order.  All shard headers are collected **before**
    /// the merged header goes out, so a pre-run failure on any shard still
    /// degrades to a single error line.  A failing `sink` write cancels the
    /// remaining shards cooperatively.  Returns the merged outcome plus the
    /// per-shard outcomes (whose `rows_sent` count shard-side handoffs).
    pub fn run_query_streaming(
        &self,
        target: &str,
        spec: &QuerySpec,
        sink: &mut dyn StreamSink,
    ) -> Result<(StreamedQueryOutcome, Vec<StreamedQueryOutcome>), ServiceError> {
        let started = self.clock.now();
        let result = self.run_query_streaming_inner(target, spec, sink, started);
        if result.is_err() {
            self.stats.record_error();
        }
        result
    }

    fn run_query_streaming_inner(
        &self,
        target: &str,
        spec: &QuerySpec,
        sink: &mut dyn StreamSink,
        started: std::time::Duration,
    ) -> Result<(StreamedQueryOutcome, Vec<StreamedQueryOutcome>), ServiceError> {
        let remaps = self.remaps_for(target)?;
        let _permit = self.admit();
        let mut receivers = Vec::with_capacity(self.shards.len());
        let mut handles = Vec::with_capacity(self.shards.len());
        for (index, shard) in self.shards.iter().enumerate() {
            let (tx, rx) = sync_channel::<ShardMsg>(STREAM_BUFFER_FRAMES);
            let shard = Arc::clone(shard);
            let to_global = Arc::clone(&remaps[index]);
            let target = target.to_string();
            let spec = spec.clone();
            handles.push(std::thread::spawn(move || {
                let mut sink = ChannelSink { tx, to_global };
                shard.run_query_streaming(&target, &spec, &mut sink)
            }));
            receivers.push(rx);
        }

        // Phase 1: every shard must announce its header before the merged
        // header goes to the client — a shard that fails pre-run (radius
        // violation, bad pattern) never opens its stream, and the whole
        // query must then answer with one error line, not a broken stream.
        let mut headers = Vec::with_capacity(receivers.len());
        for rx in &receivers {
            match rx.recv() {
                Ok(ShardMsg::Begin(header)) => headers.push(header),
                Ok(ShardMsg::Rows(_)) | Err(_) => break,
            }
        }
        if headers.len() < receivers.len() {
            drop(receivers); // sever the bridges so in-flight shards cancel
            let mut first_err = None;
            for handle in handles {
                if let Ok(Err(err)) = handle.join() {
                    first_err = first_err.or(Some(err));
                }
            }
            return Err(first_err.unwrap_or_else(|| {
                ServiceError::Protocol("shard stream ended before its header".to_string())
            }));
        }

        let chunk = spec.chunk.clamp(1, MAX_STREAM_CHUNK);
        let header = StreamHeader {
            target: target.to_string(),
            chunk,
            cache_hit: headers.iter().all(|h| h.cache_hit),
            pattern_hash: headers[0].pattern_hash,
            algorithm: headers[0].algorithm,
            strategy: headers[0].strategy,
            scheduler: headers[0].scheduler,
            routed: headers[0].routed,
        };
        if let Err(err) = sink.begin(&header) {
            drop(receivers);
            for handle in handles {
                let _ = handle.join();
            }
            // The client vanished before the header went out: nothing of the
            // stream reached the wire, so the connection is simply dead.
            return Err(ServiceError::Io(err));
        }

        // Phase 2: forward frames strictly in shard order on this thread —
        // deterministic output bytes, and the bounded channels throttle the
        // shards we have not reached yet.
        let mut rows_sent: u64 = 0;
        let mut client_alive = true;
        'shards: for rx in &receivers {
            while let Ok(msg) = rx.recv() {
                let ShardMsg::Rows(rows) = msg else { continue };
                if sink.rows(&rows).is_ok() {
                    rows_sent += rows.len() as u64;
                } else {
                    client_alive = false;
                    break 'shards;
                }
            }
        }
        // Dropping the receivers makes every still-streaming shard's next
        // send fail, which its service surfaces as a cooperative cancel.
        drop(receivers);

        // Phase 3: join and merge the per-shard outcomes.
        let mut per_shard = Vec::with_capacity(handles.len());
        for handle in handles {
            if let Ok(Ok(outcome)) = handle.join() {
                per_shard.push(outcome);
            }
        }
        let cancelled = !client_alive
            || per_shard.len() < self.shards.len()
            || per_shard.iter().any(|s| s.cancelled);
        let queries: Vec<QueryOutcome> = per_shard.iter().map(|s| s.query.clone()).collect();
        let mut merged_query = merge_query_outcomes(&queries);
        merged_query.latency_seconds = self.clock.now().saturating_sub(started).as_secs_f64();
        self.stats
            .record_query(merged_query.outcome.matches, merged_query.latency_seconds);
        self.stats.record_stream(rows_sent, cancelled);
        Ok((
            StreamedQueryOutcome {
                query: merged_query,
                rows_sent,
                cancelled,
            },
            per_shard,
        ))
    }

    /// Runs a [`QuerySet`] through the merged query path, one query at a
    /// time (each query already fans out over every shard).
    pub fn run_batch(&self, set: &QuerySet) -> BatchOutcome {
        let started = self.clock.now();
        let results = set
            .queries
            .iter()
            .map(|spec| self.run_query(&set.target, spec).map(|(merged, _)| merged))
            .collect();
        let wall_seconds = self.clock.now().saturating_sub(started).as_secs_f64();
        self.stats.record_batch();
        BatchOutcome {
            target: set.target.clone(),
            results,
            wall_seconds,
            workers: 1,
        }
    }
}

/// Merges per-shard query outcomes: counts and kernel usage sum, flags OR,
/// `cache_hit` ANDs, `workers` is the per-shard maximum, and identity fields
/// (target, hash, algorithm/strategy/scheduler) come from shard 0 — every
/// shard prepared the same pattern under the same variant.  Mappings are
/// **not** merged here (the buffered path remaps and sorts them itself).
fn merge_query_outcomes(outcomes: &[QueryOutcome]) -> QueryOutcome {
    let mut merged = outcomes[0].clone();
    merged.outcome.mappings.clear();
    for outcome in &outcomes[1..] {
        let o = &outcome.outcome;
        merged.cache_hit &= outcome.cache_hit;
        merged.routed |= outcome.routed;
        merged.outcome.matches += o.matches;
        merged.outcome.states += o.states;
        merged.outcome.preprocess_seconds += o.preprocess_seconds;
        merged.outcome.match_seconds += o.match_seconds;
        merged.outcome.timed_out |= o.timed_out;
        merged.outcome.limit_hit |= o.limit_hit;
        merged.outcome.cancelled |= o.cancelled;
        merged.outcome.steals += o.steals;
        merged.outcome.steal_requests += o.steal_requests;
        merged.outcome.workers = merged.outcome.workers.max(o.workers);
        merged.outcome.worker_states_stddev = merged
            .outcome
            .worker_states_stddev
            .max(o.worker_states_stddev);
        merged
            .outcome
            .worker_stats
            .extend(o.worker_stats.iter().cloned());
        merged.outcome.kernels.bitmap += o.kernels.bitmap;
        merged.outcome.kernels.gallop += o.kernels.gallop;
        merged.outcome.kernels.merge += o.kernels.merge;
        merged.outcome.kernels.prefilter_rejected += o.kernels.prefilter_rejected;
    }
    merged
}

/// One message over a shard's stream bridge.
enum ShardMsg {
    /// The shard's stream header (always the first message).
    Begin(StreamHeader),
    /// One frame of mappings, already remapped to **global** node ids.
    Rows(Vec<Vec<NodeId>>),
}

/// [`StreamSink`] bridging one shard's stream into the coordinator's
/// bounded channel, remapping local node ids to global on the shard thread.
struct ChannelSink {
    tx: SyncSender<ShardMsg>,
    to_global: Arc<Vec<NodeId>>,
}

impl ChannelSink {
    fn closed() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "coordinator dropped the shard stream",
        )
    }
}

impl StreamSink for ChannelSink {
    fn begin(&mut self, header: &StreamHeader) -> std::io::Result<()> {
        self.tx
            .send(ShardMsg::Begin(header.clone()))
            .map_err(|_| Self::closed())
    }

    fn rows(&mut self, rows: &[Vec<NodeId>]) -> std::io::Result<()> {
        let remapped = rows
            .iter()
            .map(|mapping| {
                mapping
                    .iter()
                    .map(|&node| self.to_global[node as usize])
                    .collect()
            })
            .collect();
        self.tx
            .send(ShardMsg::Rows(remapped))
            .map_err(|_| Self::closed())
    }
}

/// Appends a `"shards"` array to an object response.
fn push_shards(response: &mut Json, entries: Vec<Json>) {
    if let Json::Obj(pairs) = response {
        pairs.push(("shards".to_string(), Json::Arr(entries)));
    }
}

/// The per-shard breakdown entry of merged QUERY responses and stream
/// footers.
fn shard_query_entry(index: usize, outcome: &QueryOutcome) -> Json {
    Json::obj(vec![
        ("shard", Json::U64(index as u64)),
        ("matches", Json::U64(outcome.outcome.matches)),
        ("states", Json::U64(outcome.outcome.states)),
        ("cache_hit", Json::Bool(outcome.cache_hit)),
        ("latency_seconds", Json::F64(outcome.latency_seconds)),
    ])
}

/// Merges two histogram summaries conservatively: counts sum, the mean is
/// count-weighted, min/max are exact, and the percentiles take the per-shard
/// maximum (an upper bound — per-shard bucket histograms cannot be re-merged
/// exactly from summaries).
fn merge_histograms(a: &HistogramSummary, b: &HistogramSummary) -> HistogramSummary {
    let count = a.count + b.count;
    let mean_seconds = if count == 0 {
        0.0
    } else {
        (a.mean_seconds * a.count as f64 + b.mean_seconds * b.count as f64) / count as f64
    };
    let min_seconds = if a.count == 0 {
        b.min_seconds
    } else if b.count == 0 {
        a.min_seconds
    } else {
        a.min_seconds.min(b.min_seconds)
    };
    HistogramSummary {
        count,
        mean_seconds,
        min_seconds,
        max_seconds: a.max_seconds.max(b.max_seconds),
        p50_seconds: a.p50_seconds.max(b.p50_seconds),
        p90_seconds: a.p90_seconds.max(b.p90_seconds),
        p99_seconds: a.p99_seconds.max(b.p99_seconds),
    }
}

fn merge_metric(into: &mut MetricValue, value: MetricValue) {
    match (into, value) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => *a = merge_histograms(a, &b),
        // Mismatched kinds under one name cannot happen within one process
        // (names are registered with fixed kinds); keep the first.
        _ => {}
    }
}

impl Backend for Coordinator {
    fn load_json(&self, name: &str, path: &str, bitmap_cap: Option<usize>) -> Json {
        match self.load_target(name, path, bitmap_cap) {
            Ok((total, shard_infos)) => {
                let mut response = load_response(&total);
                let entries = shard_infos
                    .iter()
                    .enumerate()
                    .map(|(index, info)| {
                        Json::obj(vec![
                            ("shard", Json::U64(index as u64)),
                            ("nodes", Json::U64(info.nodes as u64)),
                            ("edges", Json::U64(info.edges as u64)),
                            ("bitmap_rows", Json::U64(info.bitmap_rows as u64)),
                            ("bitmap_bytes", Json::U64(info.bitmap_bytes as u64)),
                            ("bitmap_capped", Json::Bool(info.bitmap_capped)),
                        ])
                    })
                    .collect();
                push_shards(&mut response, entries);
                response
            }
            Err(err) => error_response(&err),
        }
    }

    fn query_json(&self, target: &str, spec: &QuerySpec) -> Json {
        match self.run_query(target, spec) {
            Ok((merged, per_shard)) => {
                let mut response = query_response(&merged);
                if let Json::Obj(pairs) = &mut response {
                    let latency_max = per_shard
                        .iter()
                        .map(|s| s.latency_seconds)
                        .fold(0.0, f64::max);
                    pairs.push(("latency_max_seconds".to_string(), Json::F64(latency_max)));
                }
                push_shards(
                    &mut response,
                    per_shard
                        .iter()
                        .enumerate()
                        .map(|(index, outcome)| shard_query_entry(index, outcome))
                        .collect(),
                );
                response
            }
            Err(err) => error_response(&err),
        }
    }

    fn query_stream_json(
        &self,
        target: &str,
        spec: &QuerySpec,
        sink: &mut dyn StreamSink,
    ) -> Result<Json, ServiceError> {
        let (merged, per_shard) = self.run_query_streaming(target, spec, sink)?;
        let mut footer = stream_footer_response(&merged);
        let entries = per_shard
            .iter()
            .enumerate()
            .map(|(index, streamed)| {
                Json::obj(vec![
                    ("shard", Json::U64(index as u64)),
                    ("matches", Json::U64(streamed.query.outcome.matches)),
                    ("states", Json::U64(streamed.query.outcome.states)),
                    ("rows_sent", Json::U64(streamed.rows_sent)),
                    ("cancelled", Json::Bool(streamed.cancelled)),
                    ("cache_hit", Json::Bool(streamed.query.cache_hit)),
                    ("latency_seconds", Json::F64(streamed.query.latency_seconds)),
                ])
            })
            .collect();
        push_shards(&mut footer, entries);
        Ok(footer)
    }

    fn explain_json(&self, target: &str, spec: &QuerySpec) -> Json {
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            match shard.explain(target, spec) {
                Ok(outcome) => outcomes.push(outcome),
                Err(err) => return error_response(&err),
            }
        }
        // The full plan shape comes from shard 0 (all shards plan the same
        // pattern under the same variant); the breakdown carries what
        // differs per shard — cost estimates over each shard's subgraph.
        let mut response = explain_response(&outcomes[0]);
        let entries = outcomes
            .iter()
            .enumerate()
            .map(|(index, outcome)| {
                let plan = outcome.engine.plan();
                Json::obj(vec![
                    ("shard", Json::U64(index as u64)),
                    ("est_total_states", Json::F64(plan.cost.est_total_states)),
                    ("impossible", Json::Bool(outcome.engine.impossible())),
                    ("cache_hit", Json::Bool(outcome.cache_hit)),
                ])
            })
            .collect();
        push_shards(&mut response, entries);
        response
    }

    fn explain_analyze_json(&self, target: &str, spec: &QuerySpec) -> Json {
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            match shard.explain_analyze(target, spec) {
                Ok(outcome) => outcomes.push(outcome),
                Err(err) => return error_response(&err),
            }
        }
        let mut response = explain_analyze_response(&outcomes[0]);
        if let Json::Obj(pairs) = &mut response {
            // Shard 0's own counts stay in place for shape compatibility;
            // the union totals ride alongside.
            let total_matches: u64 = outcomes.iter().map(|o| o.outcome.matches).sum();
            let total_states: u64 = outcomes.iter().map(|o| o.outcome.states).sum();
            pairs.push(("total_matches".to_string(), Json::U64(total_matches)));
            pairs.push(("total_states".to_string(), Json::U64(total_states)));
        }
        let entries = outcomes
            .iter()
            .enumerate()
            .map(|(index, outcome)| {
                Json::obj(vec![
                    ("shard", Json::U64(index as u64)),
                    ("matches", Json::U64(outcome.outcome.matches)),
                    ("states", Json::U64(outcome.outcome.states)),
                    ("cache_hit", Json::Bool(outcome.cache_hit)),
                    ("latency_seconds", Json::F64(outcome.latency_seconds)),
                ])
            })
            .collect();
        push_shards(&mut response, entries);
        response
    }

    fn batch_json(&self, set: &QuerySet) -> Json {
        batch_response(&self.run_batch(set))
    }

    fn stats_json(&self) -> Json {
        let snapshot = self.stats.snapshot();
        let targets: Vec<Json> = {
            let targets = self
                .targets
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let mut entries: Vec<(&String, &TargetState)> = targets.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            entries
                .into_iter()
                .map(|(name, state)| {
                    Json::obj(vec![
                        ("name", Json::str(name.clone())),
                        ("nodes", Json::U64(state.nodes as u64)),
                        ("edges", Json::U64(state.edges as u64)),
                    ])
                })
                .collect()
        };
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("coordinator", Json::Bool(true)),
            ("shard_count", Json::U64(self.shards.len() as u64)),
            ("queries_served", Json::U64(snapshot.queries_served)),
            ("batches_served", Json::U64(snapshot.batches_served)),
            ("total_matches", Json::U64(snapshot.total_matches)),
            ("errors", Json::U64(snapshot.errors)),
            ("streams_served", Json::U64(snapshot.streams_served)),
            ("rows_streamed", Json::U64(snapshot.rows_streamed)),
            ("streams_cancelled", Json::U64(snapshot.streams_cancelled)),
            ("admissions", Json::U64(snapshot.admissions)),
            (
                "admission_wait_seconds",
                Json::F64(snapshot.admission_wait_seconds),
            ),
            ("connections_open", Json::U64(self.connections.value())),
            ("targets", Json::Arr(targets)),
            (
                "latency",
                Json::obj(vec![
                    ("count", Json::U64(snapshot.queries_served)),
                    ("mean_seconds", Json::F64(snapshot.latency_mean_seconds)),
                    ("min_seconds", Json::F64(snapshot.latency_min_seconds)),
                    ("max_seconds", Json::F64(snapshot.latency_max_seconds)),
                    ("p50_seconds", Json::F64(snapshot.latency_p50_seconds)),
                    ("p90_seconds", Json::F64(snapshot.latency_p90_seconds)),
                    ("p99_seconds", Json::F64(snapshot.latency_p99_seconds)),
                ]),
            ),
        ];
        let shard_entries: Vec<Json> = self
            .shards
            .iter()
            .map(|shard| Json::obj(stats_fields(shard)))
            .collect();
        pairs.push(("shards", Json::Arr(shard_entries)));
        Json::obj(pairs)
    }

    fn metrics_json(&self) -> Json {
        // The coordinator's own `coordinator.*` cells, plus every shard's
        // metrics aggregated across shards under a `shard.` prefix —
        // counters and gauges sum, histograms merge conservatively.
        let mut aggregated: BTreeMap<String, MetricValue> = BTreeMap::new();
        for shard in &self.shards {
            for (name, value) in shard.metrics_snapshot() {
                match aggregated.entry(format!("shard.{name}")) {
                    std::collections::btree_map::Entry::Occupied(mut entry) => {
                        merge_metric(entry.get_mut(), value);
                    }
                    std::collections::btree_map::Entry::Vacant(entry) => {
                        entry.insert(value);
                    }
                }
            }
        }
        let mut snapshot = self.metrics.snapshot();
        snapshot.extend(aggregated);
        snapshot.sort_by(|a, b| a.0.cmp(&b.0));
        metrics_json(snapshot)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    fn set_event_log(&self, log: Arc<EventLog>) {
        for shard in &self.shards {
            shard.set_event_log(Arc::clone(&log));
        }
        *self
            .event_log
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(log);
    }

    fn connections_gauge(&self) -> Gauge {
        self.connections.clone()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}
