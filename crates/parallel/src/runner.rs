//! The paper's work-stealing scheduler over a prepared search context.

use crate::problem::SubgraphProblem;
use sge_ri::{settle_trivial, MatchSink, SearchContext, SearchCounts};
use sge_stealing::{run, EngineConfig, RunResult, WorkerStats};
use sge_util::RunControl;
use std::time::Instant;

/// One worker's counters from a search that reported only its counts.
pub fn worker_stats(worker_id: usize, counts: SearchCounts) -> WorkerStats {
    WorkerStats {
        worker_id,
        states: counts.states,
        solutions: counts.matches,
        ..WorkerStats::default()
    }
}

/// The result of a run [`settle_trivial`] settled without searching.
pub(crate) fn settled(counts: SearchCounts, start: Instant) -> RunResult {
    RunResult::from_workers(vec![worker_stats(0, counts)], start.elapsed().as_secs_f64())
}

/// Runs the work-stealing scheduler over an already-prepared
/// [`SearchContext`] — the prepared-artifact entry point the unified
/// `sge::Engine` builds on.  Preprocessing cost is *not* re-paid here.
///
/// `control` bounds the run and reports what stopped it; every counted match
/// goes to `sink`, from whichever worker found it.
pub fn enumerate_prepared(
    ctx: &SearchContext<'_>,
    config: &EngineConfig,
    control: &RunControl,
    sink: &MatchSink<'_>,
) -> RunResult {
    let start = Instant::now();
    if let Some(counts) = settle_trivial(ctx, control, sink) {
        return settled(counts, start);
    }
    let result = run(&SubgraphProblem::new(ctx, sink), config, control);
    // Scheduler-level counters are only known after the workers joined; fold
    // them into the attached trace sink (per-position candidate/state counts
    // were recorded live through the shared context).
    if let Some(trace) = ctx.trace_sink() {
        trace.add_steals(result.steals);
        trace.add_steal_requests(result.steal_requests);
        trace.add_tasks(result.workers.iter().map(|w| w.tasks_executed).sum());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph, NodeId};
    use sge_ri::{search_sequential, Algorithm, CandidateMode, Planner, QueryPlan};
    use std::time::Duration;

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

    fn unlimited() -> RunControl {
        RunControl::new(None, None, None)
    }

    /// Plans `algorithm` and runs the work-stealing scheduler once under
    /// `control`, collecting up to `collect` mappings.
    fn enumerate(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        config: &EngineConfig,
        control: &RunControl,
        collect: usize,
    ) -> (RunResult, Vec<Vec<NodeId>>) {
        let plan = plan(pattern, target, algorithm);
        let sink = MatchSink::new(None, collect);
        let result = enumerate_prepared(&context(pattern, target, &plan), config, control, &sink);
        (result, sink.take_sorted())
    }

    /// Plans `algorithm` and runs it to completion on `workers`.
    fn enumerate_all(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        workers: usize,
    ) -> RunResult {
        let config = EngineConfig::with_workers(workers);
        enumerate(pattern, target, algorithm, &config, &unlimited(), 0).0
    }

    fn sequential_matches(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> (u64, u64) {
        let plan = plan(pattern, target, algorithm);
        let ctx = context(pattern, target, &plan);
        let counts = search_sequential(&ctx, &unlimited(), &MatchSink::new(None, 0));
        (counts.matches, counts.states)
    }

    #[test]
    fn parallel_counts_equal_sequential_for_all_algorithms() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            let (matches, states) = sequential_matches(&pattern, &target, algorithm);
            for workers in [1usize, 2, 4] {
                let control = unlimited();
                let config = EngineConfig::with_workers(workers);
                let (result, _) = enumerate(&pattern, &target, algorithm, &config, &control, 0);
                assert_eq!(result.solutions, matches, "{algorithm} workers={workers}");
                assert_eq!(result.states, states, "{algorithm} workers={workers}");
                assert!(!control.timed_out());
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
            let config = EngineConfig::with_workers(workers);
            let result = enumerate_prepared(&ctx, &config, &unlimited(), &MatchSink::new(None, 0));
            assert_eq!(result.solutions, matches, "workers={workers}");
            assert_eq!(result.states, states, "workers={workers}");
        }
    }

    #[test]
    fn task_group_size_does_not_change_counts() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        let (matches, _) = sequential_matches(&pattern, &target, Algorithm::RiDsSiFc);
        for group_size in [1usize, 2, 4, 8, 16] {
            let config = EngineConfig::with_workers(3).task_group_size(group_size);
            let (result, _) = enumerate(
                &pattern,
                &target,
                Algorithm::RiDsSiFc,
                &config,
                &unlimited(),
                0,
            );
            assert_eq!(result.solutions, matches, "group_size={group_size}");
        }
    }

    #[test]
    fn no_stealing_finds_the_same_matches() {
        let pattern = generators::undirected_path(3, 0);
        let target = generators::grid(3, 4);
        let (matches, states) = sequential_matches(&pattern, &target, Algorithm::Ri);
        let config = EngineConfig::with_workers(4).steal(false);
        let (result, _) = enumerate(&pattern, &target, Algorithm::Ri, &config, &unlimited(), 0);
        assert_eq!(result.solutions, matches);
        assert_eq!(result.states, states);
        assert_eq!(result.steals, 0);
    }

    #[test]
    fn impossible_instances_short_circuit() {
        let mut pb = sge_graph::GraphBuilder::new();
        pb.add_node(77);
        let pattern = pb.build();
        let target = generators::clique(5, 0);
        let result = enumerate_all(&pattern, &target, Algorithm::RiDsSiFc, 2);
        assert_eq!(result.solutions, 0);
        assert_eq!(result.states, 0);
    }

    #[test]
    fn empty_pattern_has_one_match() {
        let pattern = sge_graph::GraphBuilder::new().build();
        let target = generators::clique(4, 0);
        let result = enumerate_all(&pattern, &target, Algorithm::Ri, 2);
        assert_eq!(result.solutions, 1);
    }

    #[test]
    fn max_matches_stops_workers_cooperatively() {
        // A single directed edge in K12 has 132 embeddings; ask for 17.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0);
        for workers in [1usize, 2, 4] {
            let control = RunControl::new(Some(17), None, None);
            let config = EngineConfig::with_workers(workers);
            let (result, _) = enumerate(&pattern, &target, Algorithm::Ri, &config, &control, 0);
            assert_eq!(result.solutions, 17, "workers={workers}");
            assert!(control.limit_hit());
        }
    }

    #[test]
    fn collected_mappings_are_embeddings_and_sorted() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let config = EngineConfig::with_workers(3);
        let (_, mappings) = enumerate(&pattern, &target, Algorithm::RiDs, &config, &unlimited(), 7);
        assert_eq!(mappings.len(), 7);
        let mut sorted = mappings.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, mappings, "mappings must come back sorted");
        for mapping in &mappings {
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
        let collect = |workers: usize| {
            let config = EngineConfig::with_workers(workers);
            enumerate(&pattern, &target, Algorithm::Ri, &config, &unlimited(), 100).1
        };
        let reference = collect(1);
        assert_eq!(reference.len(), 60);
        for workers in [2usize, 4] {
            assert_eq!(collect(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn result_accessors_are_consistent() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let result = enumerate_all(&pattern, &target, Algorithm::Ri, 2);
        assert!(result.elapsed_seconds >= 0.0);
        assert!(result.states_per_second() >= 0.0);
        assert_eq!(
            result.workers.iter().map(|w| w.states).sum::<u64>(),
            result.states
        );
    }

    #[test]
    fn time_limit_is_respected() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(5, 5);
        let control = RunControl::new(None, Some(Duration::from_millis(1)), None);
        let config = EngineConfig::with_workers(2);
        let (result, _) = enumerate(&pattern, &target, Algorithm::Ri, &config, &control, 0);
        // Either it finished very quickly or it was cut off.
        let full = sequential_matches(&pattern, &target, Algorithm::Ri).0;
        if control.timed_out() {
            assert!(result.solutions <= full);
        } else {
            assert_eq!(result.solutions, full);
        }
    }
}
