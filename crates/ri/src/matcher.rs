//! The sequential enumeration driver.
//!
//! [`SubtreeSearch`] runs the depth-first search below any state of a
//! [`SearchContext`] under a shared [`RunControl`], handing every match to a
//! [`MatchSink`].  The sequential scheduler ([`search_sequential`]) runs it
//! from the root; the rayon-style pool runs it once per claimed root.  Both
//! report the quantities the paper's evaluation is built on: the match count
//! and the *search space size* (states visited, i.e. consistency checks
//! performed).

use crate::search::{SearchContext, SearchCounts, WorkerState};
use crate::visitor::MatchSink;
use sge_graph::NodeId;
use sge_util::{RunControl, POLL_INTERVAL};

// The algorithm selector moved to the planning crate with the rest of the
// preprocessing machinery; re-exported here so `sge_ri::Algorithm` and
// `sge_ri::matcher::Algorithm` keep working.
pub use sge_plan::Algorithm;

/// Settles the runs that need no search, identically for every scheduler:
/// an empty pattern has exactly one embedding, the empty mapping, which is
/// claimed against the budget and recorded like any other match; a context
/// whose preprocessing proved infeasibility has none.  `None` means the
/// search must run.
pub fn settle_trivial(
    ctx: &SearchContext<'_>,
    control: &RunControl,
    sink: &MatchSink<'_>,
) -> Option<SearchCounts> {
    if ctx.num_positions() == 0 {
        let mut counts = SearchCounts::default();
        if control.claim() {
            counts.matches = 1;
            sink.record(0, ctx, &ctx.new_state());
        }
        return Some(counts);
    }
    ctx.impossible().then(SearchCounts::default)
}

/// One worker's depth-first search: candidate buffers per position, the
/// worker's counts, and the run's shared control and sink.
pub struct SubtreeSearch<'r, 'c> {
    ctx: &'r SearchContext<'c>,
    control: &'r RunControl,
    sink: &'r MatchSink<'r>,
    worker_id: usize,
    observed: bool,
    count_final: bool,
    buffers: Vec<Vec<NodeId>>,
    counts: SearchCounts,
}

impl<'r, 'c> SubtreeSearch<'r, 'c> {
    /// A search for worker `worker_id` of the run `control` governs.
    pub fn new(
        ctx: &'r SearchContext<'c>,
        control: &'r RunControl,
        sink: &'r MatchSink<'r>,
        worker_id: usize,
    ) -> Self {
        SubtreeSearch {
            ctx,
            control,
            sink,
            worker_id,
            // A count-only sink would drop every match anyway.
            observed: !sink.is_count_only(),
            // Last-depth counting shortcut: when nothing observes individual
            // matches and nothing can interrupt mid-position, the final
            // position's states and matches come straight off the bitmap
            // popcount or the candidate list (byte-identical counts, see
            // `SearchContext::count_final_candidates`).
            count_final: sink.is_count_only() && control.is_unbounded(),
            buffers: vec![Vec::new(); ctx.num_positions()],
            counts: SearchCounts::default(),
        }
    }

    /// States visited and matches counted by this worker so far.
    pub fn counts(&self) -> SearchCounts {
        self.counts
    }

    /// Searches the subtrees rooted at mapping position `depth` onto each of
    /// `roots` in turn, until they are exhausted or the run stops.  `state`
    /// must have positions `0..depth` assigned; it is restored on return.
    /// Every root is a visited state (its consistency check counts).
    pub fn run(&mut self, state: &mut WorkerState, depth: usize, roots: &[NodeId]) {
        let last = depth + 1 == self.ctx.num_positions();
        for &vt in roots {
            if self.control.is_stopped()
                || (self.counts.states.is_multiple_of(POLL_INTERVAL) && self.control.poll())
            {
                break;
            }
            self.counts.states += 1;
            if !self.ctx.is_consistent(depth, vt, state) {
                continue;
            }
            state.assign(depth, vt);
            if !last {
                self.expand(state, depth + 1);
            } else if self.control.claim() {
                self.counts.matches += 1;
                if self.observed {
                    self.sink.record(self.worker_id, self.ctx, state);
                }
            }
            state.unassign(depth);
        }
    }

    fn expand(&mut self, state: &mut WorkerState, depth: usize) {
        let count_final = self.count_final && depth + 1 == self.ctx.num_positions();
        if count_final {
            if let Some(count) = self.ctx.count_final_candidates(depth, state) {
                self.add(count);
                return;
            }
        }
        let mut candidates = std::mem::take(&mut self.buffers[depth]);
        self.ctx.candidates(depth, state, &mut candidates);
        let counted = if count_final {
            self.ctx
                .final_count_from_candidates(depth, state, &candidates)
        } else {
            None
        };
        match counted {
            Some(count) => self.add(count),
            None => self.run(state, depth, &candidates),
        }
        self.buffers[depth] = candidates;
    }

    fn add(&mut self, count: SearchCounts) {
        self.counts.states += count.states;
        self.counts.matches += count.matches;
    }
}

/// The sequential scheduler: the whole search tree on the calling thread, as
/// worker 0, over an already-prepared [`SearchContext`] (preprocessing —
/// domains, forward checking, ordering — happened when its plan was built).
pub fn search_sequential(
    ctx: &SearchContext<'_>,
    control: &RunControl,
    sink: &MatchSink<'_>,
) -> SearchCounts {
    if let Some(counts) = settle_trivial(ctx, control, sink) {
        return counts;
    }
    let mut state = ctx.new_state();
    let mut roots = Vec::new();
    ctx.candidates(0, &state, &mut roots);
    let mut search = SubtreeSearch::new(ctx, control, sink, 0);
    search.run(&mut state, 0, &roots);
    search.counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CandidateMode;
    use crate::visitor::MatchVisitor;
    use sge_graph::{generators, Graph, GraphBuilder};
    use sge_plan::Planner;
    use sge_util::CancelToken;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn unlimited() -> RunControl {
        RunControl::new(None, None, None)
    }

    /// Plans with the default strategy, then searches sequentially under
    /// `control`, collecting up to `collect` mappings.
    fn run(
        pattern: &Graph,
        target: &Graph,
        algorithm: Algorithm,
        control: &RunControl,
        collect: usize,
    ) -> (SearchCounts, Vec<Vec<NodeId>>) {
        let plan = Planner::default().plan(pattern, target, algorithm);
        let ctx = SearchContext::new(pattern, target, &plan, CandidateMode::default(), None, None);
        let sink = MatchSink::new(None, collect);
        let counts = search_sequential(&ctx, control, &sink);
        (counts, sink.take_sorted())
    }

    fn count(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> u64 {
        run(pattern, target, algorithm, &unlimited(), 0).0.matches
    }

    fn states(pattern: &Graph, target: &Graph, algorithm: Algorithm) -> SearchCounts {
        run(pattern, target, algorithm, &unlimited(), 0).0
    }

    #[test]
    fn directed_edge_in_clique() {
        // K4 with symmetric directed edges: every ordered pair is an embedding
        // of a single directed edge.
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn triangle_in_clique() {
        // Directed 3-cycles in K4: choose 3 of 4 vertices (4 ways), each
        // triangle hosts 3! = 6 cyclic node assignments (both rotations of both
        // orientations exist since edges are symmetric).
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 24, "{algo}");
        }
    }

    #[test]
    fn path_in_path() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 4, "{algo}");
        }
    }

    #[test]
    fn labels_restrict_matches() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        // Target contains two labeled triangles, one with matching labels, one
        // rotated (labels 2,3,1 — which is the same cyclic labeling, so it also
        // matches with a rotated mapping) and one with a wrong label set.
        let mut tb = GraphBuilder::new();
        let a = tb.add_node(1);
        let b = tb.add_node(2);
        let c = tb.add_node(3);
        tb.add_edge(a, b, 0);
        tb.add_edge(b, c, 0);
        tb.add_edge(c, a, 0);
        let d = tb.add_node(1);
        let e = tb.add_node(2);
        let f = tb.add_node(2);
        tb.add_edge(d, e, 0);
        tb.add_edge(e, f, 0);
        tb.add_edge(f, d, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn edge_labels_must_match() {
        let mut pb = GraphBuilder::new();
        let p0 = pb.add_node(0);
        let p1 = pb.add_node(0);
        pb.add_edge(p0, p1, 7);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        let t2 = tb.add_node(0);
        tb.add_edge(t0, t1, 7);
        tb.add_edge(t1, t2, 8);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn no_match_when_pattern_too_large() {
        let pattern = generators::clique(5, 0);
        let target = generators::clique(4, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let pattern = GraphBuilder::new().build();
        let target = generators::clique(3, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 1, "{algo}");
        }
    }

    #[test]
    fn zero_match_instance_with_wrong_labels() {
        let mut pb = GraphBuilder::new();
        pb.add_node(99);
        let pattern = pb.build();
        let target = generators::clique(6, 0);
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 0, "{algo}");
        }
    }

    #[test]
    fn disconnected_pattern_counts_ordered_pairs() {
        // Two isolated pattern nodes in a 4-node edgeless target: 4*3 = 12
        // injective assignments.
        let mut pb = GraphBuilder::new();
        pb.add_nodes(2, 0);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_nodes(4, 0);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 12, "{algo}");
        }
    }

    #[test]
    fn max_matches_truncates_enumeration() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(6, 0);
        let control = RunControl::new(Some(5), None, None);
        let (result, _) = run(&pattern, &target, Algorithm::Ri, &control, 0);
        assert_eq!(result.matches, 5);
        assert!(control.limit_hit());
    }

    #[test]
    fn collected_mappings_are_valid_embeddings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let (_, mappings) = run(&pattern, &target, Algorithm::RiDsSiFc, &unlimited(), 10);
        assert_eq!(mappings.len(), 10);
        for mapping in &mappings {
            assert_eq!(mapping.len(), pattern.num_nodes());
            // Injective.
            let mut sorted = mapping.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), mapping.len());
            // Edge-preserving.
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }

    #[test]
    fn search_space_is_reported_and_nonzero() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let control = unlimited();
        let (result, _) = run(&pattern, &target, Algorithm::Ri, &control, 0);
        assert!(result.states > 0);
        assert!(result.matches > 0);
        assert!(!control.timed_out());
    }

    #[test]
    fn domain_variants_never_visit_more_states_than_ri_ds() {
        // The SI/FC improvements only prune; on a fixed instance their search
        // space must not exceed RI-DS's.
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        let ds = states(&pattern, &target, Algorithm::RiDs);
        let si = states(&pattern, &target, Algorithm::RiDsSi);
        let fc = states(&pattern, &target, Algorithm::RiDsSiFc);
        assert_eq!(ds.matches, si.matches);
        assert_eq!(ds.matches, fc.matches);
        assert!(
            fc.states <= ds.states.max(si.states) * 2,
            "FC should not blow up the search space"
        );
    }

    #[test]
    fn timeout_flag_set_for_tiny_deadline() {
        // The driver polls before its first state, so an expired deadline
        // stops the search with zero work instead of racing the cadence.
        let pattern = generators::undirected_cycle(6, 0);
        let target = generators::grid(6, 6);
        let control = RunControl::new(None, Some(Duration::ZERO), None);
        let (result, _) = run(&pattern, &target, Algorithm::Ri, &control, 0);
        assert!(control.timed_out());
        assert_eq!(result, SearchCounts::default());
    }

    #[test]
    fn cancel_token_stops_the_search_early() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::clique(12, 0); // 132 embeddings
        let plan = Planner::default().plan(&pattern, &target, Algorithm::Ri);
        let ctx = SearchContext::new(
            &pattern,
            &target,
            &plan,
            CandidateMode::default(),
            None,
            None,
        );
        /// Fires the token on the third match it observes.
        struct CancelOnThird {
            seen: AtomicU64,
            token: Arc<CancelToken>,
        }
        impl MatchVisitor for CancelOnThird {
            fn on_match(&self, _worker_id: usize, _mapping: &[NodeId]) {
                if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == 3 {
                    self.token.cancel();
                }
            }
        }
        let cancel = Arc::new(CancelToken::new());
        let control = RunControl::new(None, None, Some(Arc::clone(&cancel)));
        let visitor = CancelOnThird {
            seen: AtomicU64::new(0),
            token: cancel,
        };
        let run = search_sequential(&ctx, &control, &MatchSink::new(Some(&visitor), 0));
        assert!(control.cancelled());
        assert_eq!(run.matches, 3, "the search stops at the next match");
        assert!(!control.timed_out());
        assert!(!control.limit_hit());
        // A token that never fires changes nothing.
        let untouched = RunControl::new(None, None, Some(Arc::new(CancelToken::new())));
        let full = search_sequential(&ctx, &untouched, &MatchSink::new(None, 0));
        assert!(!untouched.cancelled());
        assert_eq!(full.matches, 132);
    }

    #[test]
    fn single_node_pattern_counts_label_occurrences() {
        let mut pb = GraphBuilder::new();
        pb.add_node(3);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(3);
        tb.add_node(3);
        tb.add_node(4);
        let target = tb.build();
        for algo in Algorithm::ALL {
            assert_eq!(count(&pattern, &target, algo), 2, "{algo}");
        }
    }
}
