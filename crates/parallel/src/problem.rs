//! Adapter exposing the RI search as a [`BacktrackProblem`].

use sge_graph::NodeId;
use sge_ri::{MatchSink, SearchContext, WorkerState};
use sge_stealing::BacktrackProblem;

/// The RI / RI-DS state-space search wrapped for the work-stealing engine.
///
/// Levels are positions of the static node ordering; choices are candidate
/// target nodes.  The per-worker state is `sge_ri::WorkerState` (partial
/// mapping + injectivity flags), which the engine reconstructs on a thief from
/// the transferred prefix of choices — exactly the paper's "copy the partial
/// mapping only for stolen tasks".  Solutions go to the run's [`MatchSink`].
pub struct SubgraphProblem<'a> {
    ctx: &'a SearchContext<'a>,
    sink: &'a MatchSink<'a>,
}

impl<'a> SubgraphProblem<'a> {
    /// Wraps a prepared search context, recording solutions into `sink`.
    pub fn new(ctx: &'a SearchContext<'a>, sink: &'a MatchSink<'a>) -> Self {
        SubgraphProblem { ctx, sink }
    }
}

impl BacktrackProblem for SubgraphProblem<'_> {
    type State = WorkerState;
    type Choice = NodeId;

    fn depth(&self) -> usize {
        self.ctx.num_positions()
    }

    fn new_state(&self) -> WorkerState {
        self.ctx.new_state()
    }

    fn candidates(&self, level: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        self.ctx.candidates(level, state, out);
    }

    fn is_consistent(&self, level: usize, choice: NodeId, state: &WorkerState) -> bool {
        self.ctx.is_consistent(level, choice, state)
    }

    fn apply(&self, level: usize, choice: NodeId, state: &mut WorkerState) {
        state.assign(level, choice);
    }

    fn undo(&self, level: usize, state: &mut WorkerState) {
        state.unassign(level);
    }

    fn on_solution(&self, worker_id: usize, state: &WorkerState) {
        self.sink.record(worker_id, self.ctx, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph};
    use sge_ri::{search_sequential, Algorithm, CandidateMode, Planner, QueryPlan};
    use sge_stealing::{run, EngineConfig};
    use sge_util::RunControl;

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

    #[test]
    fn problem_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let sink = MatchSink::new(None, 0);
        let sequential = search_sequential(&ctx, &unlimited(), &sink);
        let problem = SubgraphProblem::new(&ctx, &sink);
        let result = run(&problem, &EngineConfig::with_workers(2), &unlimited());
        assert_eq!(result.solutions, sequential.matches);
        assert_eq!(result.states, sequential.states);
    }

    #[test]
    fn collection_gathers_valid_mappings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
        let ctx = context(&pattern, &target, &plan);
        let sink = MatchSink::new(None, 5);
        let problem = SubgraphProblem::new(&ctx, &sink);
        let result = run(&problem, &EngineConfig::with_workers(3), &unlimited());
        assert_eq!(result.solutions, 24);
        let collected = sink.take_sorted();
        assert_eq!(collected.len(), 5);
        for mapping in collected {
            for (u, v, l) in pattern.edges() {
                assert_eq!(
                    target.edge_label(mapping[u as usize], mapping[v as usize]),
                    Some(l)
                );
            }
        }
    }
}
