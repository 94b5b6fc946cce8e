//! Adapter exposing the RI search as a [`BacktrackProblem`].

use sge_graph::NodeId;
use sge_ri::{CollectingVisitor, MatchVisitor, SearchContext, WorkerState};
use sge_stealing::BacktrackProblem;

/// The RI / RI-DS state-space search wrapped for the work-stealing engine.
///
/// Levels are positions of the static node ordering; choices are candidate
/// target nodes.  The per-worker state is `sge_ri::WorkerState` (partial
/// mapping + injectivity flags), which the engine reconstructs on a thief from
/// the transferred prefix of choices — exactly the paper's "copy the partial
/// mapping only for stolen tasks".
pub struct SubgraphProblem<'a> {
    ctx: &'a SearchContext<'a>,
    collector: Option<CollectingVisitor>,
    visitor: Option<&'a dyn MatchVisitor>,
}

impl<'a> SubgraphProblem<'a> {
    /// Wraps a prepared search context.
    pub fn new(ctx: &'a SearchContext<'a>) -> Self {
        SubgraphProblem {
            ctx,
            collector: None,
            visitor: None,
        }
    }

    /// Additionally collect up to `limit` full mappings (pattern node → target
    /// node).  Collection uses a mutex and is meant for modest limits.
    pub fn with_collection(mut self, limit: usize) -> Self {
        self.collector = Some(CollectingVisitor::new(limit));
        self
    }

    /// Streams every match to `visitor` (called concurrently from worker
    /// threads).
    pub fn with_visitor(mut self, visitor: &'a dyn MatchVisitor) -> Self {
        self.visitor = Some(visitor);
        self
    }

    /// The collected mappings (empty unless [`Self::with_collection`] was used).
    pub fn take_collected(&self) -> Vec<Vec<NodeId>> {
        self.collector
            .as_ref()
            .map(|c| c.take())
            .unwrap_or_default()
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
        // Build the mapping only for observers that still want it: once the
        // collector is full, a visitor-less run stops allocating per match.
        let collector = self.collector.as_ref().filter(|c| !c.is_full());
        if self.visitor.is_none() && collector.is_none() {
            return;
        }
        let mapping = self.ctx.mapping_by_pattern_node(state);
        if let Some(visitor) = self.visitor {
            visitor.on_match(worker_id, &mapping);
        }
        if let Some(collector) = collector {
            collector.on_match(worker_id, &mapping);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, Graph};
    use sge_ri::{search_prepared, Algorithm, CandidateMode, Planner, QueryPlan, SearchLimits};
    use sge_stealing::{run, EngineConfig};

    fn context<'a>(
        pattern: &'a Graph,
        target: &'a Graph,
        plan: &'a QueryPlan,
    ) -> SearchContext<'a> {
        SearchContext::new(pattern, target, plan, CandidateMode::default(), None, None)
    }

    #[test]
    fn problem_counts_match_sequential() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(5, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let sequential = search_prepared(&ctx, &SearchLimits::default(), |_, _| {});
        let problem = SubgraphProblem::new(&ctx);
        let result = run(&problem, &EngineConfig::with_workers(2));
        assert_eq!(result.solutions, sequential.matches);
        assert_eq!(result.states, sequential.states);
    }

    #[test]
    fn collection_gathers_valid_mappings() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
        let ctx = context(&pattern, &target, &plan);
        let problem = SubgraphProblem::new(&ctx).with_collection(5);
        let result = run(&problem, &EngineConfig::with_workers(3));
        assert_eq!(result.solutions, 24);
        let collected = problem.take_collected();
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
