//! Library-scheduler comparator: first-level dynamic parallelism.
//!
//! The paper's scheduler is a bespoke private-deque work-stealing runtime.  A
//! natural question for a Rust reproduction is how much of its benefit one
//! gets "for free" from a generic library scheduler à la rayon.  This module
//! parallelizes only the *first level* of the state-space tree: the root
//! tasks (`µ1 ↦ v_t`) form a shared queue that worker threads drain with an
//! atomic cursor — exactly the load-balancing granularity `rayon::par_iter`
//! achieves on this workload — and each claimed subtree is searched by the
//! sequential driver (`sge_ri::SubtreeSearch`, count-only last-depth
//! shortcut included).  Unlike the paper's engine, a single large subtree
//! can never be split once it is running, which is the situation the paper's
//! Fig. 3/4 analysis shows matters on irregular instances.
//!
//! (The build environment is offline, so the real `rayon` crate is not a
//! dependency; the scheduler below reproduces its observable behaviour on
//! this first-level workload with `std::thread` and an atomic cursor.)
//!
//! The experiment harness uses this as an ablation baseline; it is not part
//! of the reproduction of any specific figure.

use crate::runner::{settled, worker_stats};
use sge_ri::{settle_trivial, MatchSink, SearchContext, SubtreeSearch};
use sge_stealing::{RunResult, WorkerStats};
use sge_util::RunControl;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs the first-level dynamic scheduler on `workers` threads over an
/// already-prepared [`SearchContext`] (preprocessing is not re-paid), under
/// the same `control` and `sink` contract as every other scheduler.  Steal
/// counters in the result are always 0.
pub fn enumerate_rayon_prepared(
    ctx: &SearchContext<'_>,
    workers: usize,
    control: &RunControl,
    sink: &MatchSink<'_>,
) -> RunResult {
    let start = Instant::now();
    if let Some(counts) = settle_trivial(ctx, control, sink) {
        return settled(counts, start);
    }
    let mut roots = Vec::new();
    ctx.candidates(0, &ctx.new_state(), &mut roots);
    let cursor = AtomicUsize::new(0);

    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|worker_id| {
                let roots = &roots;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut search = SubtreeSearch::new(ctx, control, sink, worker_id);
                    let mut state = ctx.new_state();
                    while !control.is_stopped() {
                        let index = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(root) = roots.get(index) else {
                            break;
                        };
                        search.run(&mut state, 0, std::slice::from_ref(root));
                    }
                    worker_stats(worker_id, search.counts())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("rayon-pool worker panicked"))
            .collect()
    });
    RunResult::from_workers(worker_stats, start.elapsed().as_secs_f64())
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

    /// Runs the first-level pool once on `workers` under `control`,
    /// collecting up to `collect` mappings.
    fn pool(
        ctx: &SearchContext<'_>,
        workers: usize,
        control: &RunControl,
        collect: usize,
    ) -> (RunResult, Vec<Vec<NodeId>>) {
        let sink = MatchSink::new(None, collect);
        let result = enumerate_rayon_prepared(ctx, workers, control, &sink);
        (result, sink.take_sorted())
    }

    /// Plans `algorithm` and runs the first-level pool once on `workers`.
    fn enumerate_rayon(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        workers: usize,
    ) -> RunResult {
        let plan = plan(pattern, target, algorithm);
        pool(&context(pattern, target, &plan), workers, &unlimited(), 0).0
    }

    #[test]
    fn rayon_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(6, 0);
        for algorithm in [Algorithm::Ri, Algorithm::RiDsSiFc] {
            let plan = plan(&pattern, &target, algorithm);
            let sequential = search_sequential(
                &context(&pattern, &target, &plan),
                &unlimited(),
                &MatchSink::new(None, 0),
            );
            let result = enumerate_rayon(&pattern, &target, algorithm, 2);
            assert_eq!(result.solutions, sequential.matches, "{algorithm}");
            assert_eq!(result.states, sequential.states, "{algorithm}");
        }
    }

    #[test]
    fn rayon_handles_empty_and_impossible_patterns() {
        let empty = sge_graph::GraphBuilder::new().build();
        let target = generators::clique(4, 0);
        assert_eq!(
            enumerate_rayon(&empty, &target, Algorithm::Ri, 2).solutions,
            1
        );

        let mut pb = sge_graph::GraphBuilder::new();
        pb.add_node(99);
        let impossible = pb.build();
        assert_eq!(
            enumerate_rayon(&impossible, &target, Algorithm::RiDs, 2).solutions,
            0
        );
    }

    #[test]
    fn rayon_respects_max_matches() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(10, 0); // 90 embeddings
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        for workers in [1usize, 3] {
            let control = RunControl::new(Some(11), None, None);
            let (result, _) = pool(&ctx, workers, &control, 0);
            assert_eq!(result.solutions, 11, "workers={workers}");
            assert!(control.limit_hit());
        }
    }

    #[test]
    fn rayon_collects_sorted_mappings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0); // 24 embeddings
        let plan = plan(&pattern, &target, Algorithm::RiDs);
        let ctx = context(&pattern, &target, &plan);
        let (_, mappings) = pool(&ctx, 3, &unlimited(), 100);
        assert_eq!(mappings.len(), 24);
        let mut sorted = mappings.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, mappings);
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
    fn rayon_time_limit_is_reported() {
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(5, 5);
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let control = RunControl::new(None, Some(Duration::from_millis(1)), None);
        let (limited, _) = pool(&ctx, 2, &control, 0);
        let (full, _) = pool(&ctx, 2, &unlimited(), 0);
        if control.timed_out() {
            assert!(limited.solutions <= full.solutions);
        } else {
            assert_eq!(limited.solutions, full.solutions);
        }
    }
}
