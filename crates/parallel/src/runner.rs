//! High-level parallel enumeration API.

use crate::problem::SubgraphProblem;
use sge_graph::NodeId;
use sge_ri::{Algorithm, MatchVisitor, SearchContext};
use sge_stealing::{run, EngineConfig, WorkerStats};
use sge_util::CancelToken;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a parallel enumeration run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of worker threads (the paper sweeps 1, 2, 4, 8, 16).
    ///
    /// Under planner-routed scheduling this is *sized from the corrected
    /// cost estimate* (`sge-plan`'s `RoutingConfig::states_per_worker`)
    /// rather than fixed per deployment: small trees never reach this
    /// runner at all, and large ones arrive with just enough workers that
    /// each has a meaningful share of estimated states to chew through —
    /// the regime where the paper's stealing actually amortizes.
    pub workers: usize,
    /// Task-group (coalescing) size; the paper settles on 4.
    pub task_group_size: usize,
    /// Work stealing on (the paper's scheduler) or off (static initial
    /// partition, the Fig. 3 baseline).
    pub steal_enabled: bool,
    /// Stop cooperatively after this many matches (`None` = enumerate all).
    /// The reported count is exactly `min(max_matches, total)`.
    pub max_matches: Option<u64>,
    /// Optional wall-clock limit for the matching phase.
    pub time_limit: Option<Duration>,
    /// Collect up to this many full mappings in the result.
    pub collect_limit: usize,
    /// External cooperative cancellation, polled alongside the match budget
    /// and deadline; matches found after the token fires are discarded and
    /// the result reports `cancelled`.
    pub cancel: Option<Arc<CancelToken>>,
    /// Seed for victim selection.
    pub seed: u64,
}

impl Default for ParallelConfig {
    /// All available cores, task groups of 4, stealing enabled, no match or
    /// time limit.
    fn default() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            task_group_size: 4,
            steal_enabled: true,
            max_matches: None,
            time_limit: None,
            collect_limit: 0,
            cancel: None,
            seed: 0xC0FF_EE00,
        }
    }
}

impl ParallelConfig {
    /// Sets the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the task-group size.
    pub fn with_task_group_size(mut self, size: usize) -> Self {
        self.task_group_size = size.max(1);
        self
    }

    /// Enables or disables work stealing.
    pub fn with_stealing(mut self, enabled: bool) -> Self {
        self.steal_enabled = enabled;
        self
    }

    /// Sets a match-count limit (cooperative early stop across all workers).
    pub fn with_max_matches(mut self, limit: u64) -> Self {
        self.max_matches = Some(limit);
        self
    }

    /// Sets a matching-phase time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Collects up to `limit` mappings.
    pub fn with_collected_mappings(mut self, limit: usize) -> Self {
        self.collect_limit = limit;
        self
    }

    /// Attaches an external cancellation token.
    pub fn with_cancel_token(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Outcome of a parallel enumeration run.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Number of workers used.
    pub workers: usize,
    /// Number of embeddings found.
    pub matches: u64,
    /// Total states visited across all workers.
    pub states: u64,
    /// Matching (parallel search) wall-clock time in seconds.
    pub match_seconds: f64,
    /// Whether the time limit cut the search short.
    pub timed_out: bool,
    /// Whether the match limit stopped the search early.
    pub limit_hit: bool,
    /// Whether an external [`CancelToken`] stopped the search early.
    pub cancelled: bool,
    /// Total successful steals.
    pub steals: u64,
    /// Total steal requests issued.
    pub steal_requests: u64,
    /// Standard deviation of per-worker visited states (the Fig. 3 load
    /// imbalance metric).
    pub worker_states_stddev: f64,
    /// Per-worker counters.
    pub worker_stats: Vec<WorkerStats>,
    /// Collected mappings, if requested — sorted lexicographically, so that a
    /// complete (non-truncated) collection is byte-identical across worker
    /// counts, task-group sizes and scheduler seeds.
    pub mappings: Vec<Vec<NodeId>>,
}

impl ParallelResult {
    pub(crate) fn empty(algorithm: Algorithm, workers: usize) -> Self {
        ParallelResult {
            algorithm,
            workers,
            matches: 0,
            states: 0,
            match_seconds: 0.0,
            timed_out: false,
            limit_hit: false,
            cancelled: false,
            steals: 0,
            steal_requests: 0,
            worker_states_stddev: 0.0,
            worker_stats: Vec::new(),
            mappings: Vec::new(),
        }
    }

    /// States visited per second of matching time.
    pub fn states_per_second(&self) -> f64 {
        if self.match_seconds > 0.0 {
            self.states as f64 / self.match_seconds
        } else {
            0.0
        }
    }
}

/// Uniform handling of the zero-position (empty pattern) edge case: exactly
/// one empty embedding exists, it counts against the match budget, and the
/// visitor / collector observe it like any other match — so every scheduler
/// agrees with the sequential matcher.
pub(crate) fn empty_pattern_outcome(
    config: &ParallelConfig,
    visitor: Option<&dyn MatchVisitor>,
    result: &mut ParallelResult,
) {
    if config.max_matches == Some(0) {
        result.limit_hit = true;
        return;
    }
    result.matches = 1;
    result.limit_hit = config.max_matches == Some(1);
    let mapping: Vec<NodeId> = Vec::new();
    if let Some(visitor) = visitor {
        visitor.on_match(0, &mapping);
    }
    if config.collect_limit > 0 {
        result.mappings.push(mapping);
    }
}

/// Runs the work-stealing scheduler over an already-prepared
/// [`SearchContext`] — the prepared-artifact entry point the unified
/// `sge::Engine` builds on.  Preprocessing cost is *not* re-paid here.
///
/// The algorithm is the context's.  When `visitor` is given it observes
/// every match from whichever worker found it.
pub fn enumerate_prepared(
    ctx: &SearchContext<'_>,
    config: &ParallelConfig,
    visitor: Option<&dyn MatchVisitor>,
) -> ParallelResult {
    let mut result = ParallelResult::empty(ctx.algorithm(), config.workers);

    if ctx.num_positions() == 0 {
        empty_pattern_outcome(config, visitor, &mut result);
        return result;
    }
    if ctx.impossible() {
        return result;
    }

    let mut problem = SubgraphProblem::new(ctx);
    if config.collect_limit > 0 {
        problem = problem.with_collection(config.collect_limit);
    }
    if let Some(visitor) = visitor {
        problem = problem.with_visitor(visitor);
    }

    let mut engine = EngineConfig::with_workers(config.workers)
        .task_group_size(config.task_group_size)
        .steal(config.steal_enabled);
    engine.seed = config.seed;
    if let Some(limit) = config.time_limit {
        engine = engine.time_limit(limit);
    }
    if let Some(limit) = config.max_matches {
        engine = engine.max_solutions(limit);
    }
    if let Some(token) = &config.cancel {
        engine = engine.cancel_token(Arc::clone(token));
    }

    let run_result = run(&problem, &engine);

    result.matches = run_result.solutions;
    result.states = run_result.states;
    result.match_seconds = run_result.elapsed_seconds;
    result.timed_out = run_result.timed_out;
    result.limit_hit = run_result.limit_hit;
    result.cancelled = run_result.cancelled;
    result.steals = run_result.steals;
    result.steal_requests = run_result.steal_requests;
    result.worker_states_stddev = run_result.worker_states_stddev();
    result.worker_stats = run_result.workers;
    // Scheduler-level counters are only known after the workers joined; fold
    // them into the attached trace sink (per-position candidate/state counts
    // were recorded live through the shared context).
    if let Some(sink) = ctx.trace_sink() {
        sink.add_steals(result.steals);
        sink.add_steal_requests(result.steal_requests);
        sink.add_tasks(result.worker_stats.iter().map(|w| w.tasks_executed).sum());
    }
    result.mappings = problem.take_collected();
    // Workers race for the collector, so the raw order is schedule-dependent;
    // sorting restores determinism (see `ParallelResult::mappings`).
    result.mappings.sort_unstable();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph};
    use sge_ri::{search_prepared, CandidateMode, Planner, QueryPlan, SearchLimits};

    fn plan(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> QueryPlan {
        Planner::default().plan(pattern, target, algorithm)
    }

    fn context<'a>(
        pattern: &'a Graph,
        target: &'a Graph,
        plan: &'a QueryPlan,
    ) -> SearchContext<'a> {
        SearchContext::new(pattern, target, plan, CandidateMode::default(), None, None)
    }

    /// Plans `algorithm` and runs the work-stealing scheduler once.
    fn enumerate(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        config: &ParallelConfig,
    ) -> ParallelResult {
        let plan = plan(pattern, target, algorithm);
        enumerate_prepared(&context(pattern, target, &plan), config, None)
    }

    fn sequential_matches(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> (u64, u64) {
        let plan = plan(pattern, target, algorithm);
        let r = search_prepared(
            &context(pattern, target, &plan),
            &SearchLimits::default(),
            |_, _| {},
        );
        (r.matches, r.states)
    }

    #[test]
    fn parallel_counts_equal_sequential_for_all_algorithms() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            let (matches, states) = sequential_matches(&pattern, &target, algorithm);
            for workers in [1usize, 2, 4] {
                let config = ParallelConfig::default().with_workers(workers);
                let result = enumerate(&pattern, &target, algorithm, &config);
                assert_eq!(result.matches, matches, "{algorithm} workers={workers}");
                assert_eq!(result.states, states, "{algorithm} workers={workers}");
                assert!(!result.timed_out);
            }
        }
    }

    #[test]
    fn prepared_context_is_reusable_across_runs() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let plan = plan(&pattern, &target, Algorithm::RiDsSiFc);
        let ctx = context(&pattern, &target, &plan);
        let (matches, states) = sequential_matches(&pattern, &target, Algorithm::RiDsSiFc);
        for workers in [1usize, 2, 3] {
            let config = ParallelConfig::default().with_workers(workers);
            let result = enumerate_prepared(&ctx, &config, None);
            assert_eq!(result.matches, matches, "workers={workers}");
            assert_eq!(result.states, states, "workers={workers}");
        }
    }

    #[test]
    fn task_group_size_does_not_change_counts() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let (matches, _) = sequential_matches(&pattern, &target, Algorithm::RiDsSiFc);
        for group_size in [1usize, 2, 4, 8, 16] {
            let config = ParallelConfig::default()
                .with_workers(3)
                .with_task_group_size(group_size);
            let result = enumerate(&pattern, &target, Algorithm::RiDsSiFc, &config);
            assert_eq!(result.matches, matches, "group_size={group_size}");
        }
    }

    #[test]
    fn no_stealing_finds_the_same_matches() {
        let pattern = generators::undirected_path(3, 0);
        let target = generators::grid(3, 4);
        let (matches, states) = sequential_matches(&pattern, &target, Algorithm::Ri);
        let config = ParallelConfig::default()
            .with_workers(4)
            .with_stealing(false);
        let result = enumerate(&pattern, &target, Algorithm::Ri, &config);
        assert_eq!(result.matches, matches);
        assert_eq!(result.states, states);
        assert_eq!(result.steals, 0);
    }

    #[test]
    fn impossible_instances_short_circuit() {
        let mut pb = sge_graph::GraphBuilder::new();
        pb.add_node(77);
        let pattern = pb.build();
        let target = generators::clique(5, 0);
        let config = ParallelConfig::default().with_workers(2);
        let result = enumerate(&pattern, &target, Algorithm::RiDsSiFc, &config);
        assert_eq!(result.matches, 0);
        assert_eq!(result.states, 0);
    }

    #[test]
    fn empty_pattern_has_one_match() {
        let pattern = sge_graph::GraphBuilder::new().build();
        let target = generators::clique(4, 0);
        let config = ParallelConfig::default().with_workers(2);
        let result = enumerate(&pattern, &target, Algorithm::Ri, &config);
        assert_eq!(result.matches, 1);
    }

    #[test]
    fn max_matches_stops_workers_cooperatively() {
        // A single directed edge in K12 has 132 embeddings; ask for 17.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0);
        for workers in [1usize, 2, 4] {
            let config = ParallelConfig::default()
                .with_workers(workers)
                .with_max_matches(17);
            let result = enumerate(&pattern, &target, Algorithm::Ri, &config);
            assert_eq!(result.matches, 17, "workers={workers}");
            assert!(result.limit_hit);
        }
    }

    #[test]
    fn collected_mappings_are_embeddings_and_sorted() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let config = ParallelConfig::default()
            .with_workers(3)
            .with_collected_mappings(7);
        let result = enumerate(&pattern, &target, Algorithm::RiDs, &config);
        assert_eq!(result.mappings.len(), 7);
        let mut sorted = result.mappings.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, result.mappings, "mappings must come back sorted");
        for mapping in &result.mappings {
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }

    #[test]
    fn complete_collections_are_identical_across_worker_counts() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        // 60 matches; collect them all under several schedules.
        let reference = enumerate(
            &pattern,
            &target,
            Algorithm::Ri,
            &ParallelConfig::default()
                .with_workers(1)
                .with_collected_mappings(100),
        );
        assert_eq!(reference.mappings.len(), 60);
        for workers in [2usize, 4] {
            let result = enumerate(
                &pattern,
                &target,
                Algorithm::Ri,
                &ParallelConfig::default()
                    .with_workers(workers)
                    .with_collected_mappings(100),
            );
            assert_eq!(result.mappings, reference.mappings, "workers={workers}");
        }
    }

    #[test]
    fn result_accessors_are_consistent() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let config = ParallelConfig::default().with_workers(2);
        let result = enumerate(&pattern, &target, Algorithm::Ri, &config);
        assert!(result.match_seconds >= 0.0);
        assert!(result.states_per_second() >= 0.0);
        assert_eq!(
            result.worker_stats.iter().map(|w| w.states).sum::<u64>(),
            result.states
        );
    }

    #[test]
    fn time_limit_is_respected() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(5, 5);
        let config = ParallelConfig::default()
            .with_workers(2)
            .with_time_limit(Duration::from_millis(1));
        let result = enumerate(&pattern, &target, Algorithm::Ri, &config);
        // Either it finished very quickly or it was cut off.
        let full = sequential_matches(&pattern, &target, Algorithm::Ri).0;
        if result.timed_out {
            assert!(result.matches <= full);
        } else {
            assert_eq!(result.matches, full);
        }
    }
}
