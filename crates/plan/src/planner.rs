//! The [`Planner`]: preprocessing in, [`QueryPlan`] out.

use crate::algorithm::Algorithm;
use crate::cost::{self, PlanCost};
use crate::domains::Domains;
use crate::ordering::{finish_order, KernelChoice, MatchOrder};
use crate::strategy::{PlanningInput, Strategy};
use sge_graph::{Graph, GraphStats, NodeId};
use sge_util::Bitset;
use std::sync::Arc;
use std::time::Instant;

/// The self-contained outcome of planning one enumeration instance.
///
/// A plan is everything an executor needs — the match order with its
/// back-edge [`crate::CandidatePlan`], the domains, whether preprocessing
/// already proved infeasibility, and whether the executor must re-check
/// degrees during the search — plus the [`PlanCost`] estimates that make the
/// plan inspectable (`EXPLAIN`).  Domains sit behind an [`Arc`] so a plan
/// can be cloned into long-lived prepared engines without copying bitmasks.
#[derive(Clone)]
pub struct QueryPlan {
    /// The algorithm variant this plan was built for.
    pub algorithm: Algorithm,
    /// The ordering strategy that produced the match order.
    pub strategy: Strategy,
    /// The match order, parent links and back-edge constraint sets.
    pub order: MatchOrder,
    /// RI-DS domains (label + degree filter + arc consistency), when the
    /// algorithm computes them.
    pub domains: Option<Arc<Domains>>,
    /// `true` when preprocessing already proved that no match exists (an
    /// empty domain, or a forward-checking contradiction).
    pub impossible: bool,
    /// Plain RI checks degrees during the search; the RI-DS domains already
    /// encode the degree filter.
    pub check_degrees: bool,
    /// Per-position cost estimates for this order.
    pub cost: PlanCost,
    /// Target nodes the *root* position (position 0) may map to, or `None`
    /// for the whole target.  The sharded serving tier sets this to a
    /// shard's owned-node set so the union of per-shard enumerations is an
    /// exact, overlap-free partition of the match set.
    pub root_filter: Option<Arc<Bitset>>,
    /// Wall-clock seconds the planner spent building this plan (domains,
    /// forward checking, ordering, cost estimation) — the preprocessing
    /// cost an engine built from the plan reports.
    pub plan_seconds: f64,
}

impl QueryPlan {
    /// Number of positions (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.order.len()
    }

    /// `true` when at least one position is routed to the bitmap kernel —
    /// the plan can use a target bitmap sidecar.
    pub fn uses_bitmap_kernel(&self) -> bool {
        self.order
            .plan
            .steps
            .iter()
            .any(|step| step.kernel == KernelChoice::Bitmap)
    }
}

/// Builds [`QueryPlan`]s for a fixed [`Strategy`].
///
/// ```
/// use sge_graph::generators;
/// use sge_plan::{Algorithm, Planner, Strategy};
///
/// let pattern = generators::directed_cycle(3, 0);
/// let target = generators::clique(5, 0);
/// let plan = Planner::new(Strategy::RiGreedy).plan(&pattern, &target, Algorithm::RiDsSiFc);
/// assert_eq!(plan.num_positions(), 3);
/// assert!(!plan.impossible);
/// assert_eq!(plan.cost.positions.len(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner {
    strategy: Strategy,
}

impl Planner {
    /// A planner using `strategy` for its match orders.
    pub fn new(strategy: Strategy) -> Self {
        Planner { strategy }
    }

    /// The strategy this planner orders with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Plans `pattern` against `target`, computing the target statistics
    /// internally.  Callers that plan many patterns against one target
    /// should compute [`GraphStats`] once and use [`Planner::plan_with_stats`].
    pub fn plan(&self, pattern: &Graph, target: &Graph, algorithm: Algorithm) -> QueryPlan {
        self.plan_with_stats(pattern, target, &GraphStats::of(target), algorithm)
    }

    /// Plans with precomputed target statistics: domain computation and
    /// forward checking (as the algorithm requires), strategy ordering,
    /// back-edge plan construction, cost estimation.
    pub fn plan_with_stats(
        &self,
        pattern: &Graph,
        target: &Graph,
        target_stats: &GraphStats,
        algorithm: Algorithm,
    ) -> QueryPlan {
        let started = Instant::now();
        let mut impossible = false;
        let domains = if algorithm.uses_domains() {
            let mut domains = Domains::compute(pattern, target);
            if domains.any_empty()
                || (algorithm.uses_forward_checking() && !domains.forward_check())
            {
                impossible = true;
            }
            Some(Arc::new(domains))
        } else {
            None
        };
        let input = PlanningInput {
            target_stats,
            domains: domains.as_deref(),
            domain_size_tie_break: algorithm.uses_domain_size_tie_break(),
        };
        let positions = self.strategy.implementation().positions(pattern, &input);
        let mut order = finish_order(pattern, positions);
        select_kernels(&mut order, target_stats);
        let cost = cost::estimate(pattern, &order, domains.as_deref(), target_stats);
        QueryPlan {
            algorithm,
            strategy: self.strategy,
            order,
            domains,
            impossible,
            check_degrees: !algorithm.uses_domains(),
            cost,
            root_filter: None,
            plan_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Plans with a *forced root*: `root` is pinned to position 0 and the
    /// rest of the order grows greedily from it (most connections into the
    /// prefix first, smaller id on ties), so a [`QueryPlan::root_filter`]
    /// restricting position 0 restricts exactly the chosen root vertex.
    ///
    /// The configured [`Strategy`] is bypassed — rooted orders are their own
    /// strategy — but domains, kernel selection and cost estimation run the
    /// same pipeline as [`Planner::plan_with_stats`].
    pub fn plan_rooted(
        &self,
        pattern: &Graph,
        target: &Graph,
        target_stats: &GraphStats,
        algorithm: Algorithm,
        root: NodeId,
        root_filter: Option<Arc<Bitset>>,
    ) -> QueryPlan {
        let started = Instant::now();
        let mut impossible = false;
        let domains = if algorithm.uses_domains() {
            let mut domains = Domains::compute(pattern, target);
            if domains.any_empty()
                || (algorithm.uses_forward_checking() && !domains.forward_check())
            {
                impossible = true;
            }
            Some(Arc::new(domains))
        } else {
            None
        };
        let positions = rooted_positions(pattern, root);
        let mut order = finish_order(pattern, positions);
        select_kernels(&mut order, target_stats);
        let cost = cost::estimate(pattern, &order, domains.as_deref(), target_stats);
        QueryPlan {
            algorithm,
            strategy: self.strategy,
            order,
            domains,
            impossible,
            check_degrees: !algorithm.uses_domains(),
            cost,
            root_filter,
            plan_seconds: started.elapsed().as_secs_f64(),
        }
    }
}

/// The undirected eccentricity of `v` in `graph`: the longest shortest-path
/// distance from `v`, ignoring edge direction.  `None` when some node is
/// unreachable from `v` (the graph is disconnected).
pub fn undirected_eccentricity(graph: &Graph, v: NodeId) -> Option<usize> {
    let n = graph.num_nodes();
    if n == 0 {
        return None;
    }
    let mut depth = vec![usize::MAX; n];
    depth[v as usize] = 0;
    let mut frontier = vec![v];
    let mut level = 0usize;
    let mut visited = 1usize;
    let mut neighbors = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            graph.undirected_neighbors_into(u, &mut neighbors);
            for &w in &neighbors {
                if depth[w as usize] == usize::MAX {
                    depth[w as usize] = level + 1;
                    visited += 1;
                    next.push(w);
                }
            }
        }
        if !next.is_empty() {
            level += 1;
        }
        frontier = next;
    }
    (visited == n).then_some(level)
}

/// The pattern node with minimum undirected eccentricity (smallest id on
/// ties) and that eccentricity — the natural root for sharded planning,
/// since it minimizes the replication radius a shard must provide.  `None`
/// for empty or disconnected patterns, which the sharded tier rejects.
pub fn min_eccentricity_root(pattern: &Graph) -> Option<(NodeId, usize)> {
    let mut best: Option<(NodeId, usize)> = None;
    for v in pattern.nodes() {
        let ecc = undirected_eccentricity(pattern, v)?;
        if best.is_none_or(|(_, b)| ecc < b) {
            best = Some((v, ecc));
        }
    }
    best
}

/// A position sequence growing greedily outward from a forced root: each
/// next node maximizes its number of undirected neighbors already placed
/// (smaller id on ties).  On a connected pattern every non-root position
/// has at least one placed neighbor, so every step after the root carries
/// back-edge constraints.
fn rooted_positions(pattern: &Graph, root: NodeId) -> Vec<NodeId> {
    let n = pattern.num_nodes();
    let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (v, list) in neighbors.iter_mut().enumerate() {
        pattern.undirected_neighbors_into(v as NodeId, list);
    }
    let mut in_order = vec![false; n];
    let mut positions = Vec::with_capacity(n);
    in_order[root as usize] = true;
    positions.push(root);
    while positions.len() < n {
        let mut best: Option<(usize, NodeId)> = None;
        for v in 0..n as NodeId {
            if in_order[v as usize] {
                continue;
            }
            let placed = neighbors[v as usize]
                .iter()
                .filter(|&&w| in_order[w as usize])
                .count();
            let better = match best {
                None => true,
                Some((bp, bv)) => placed > bp || (placed == bp && v < bv),
            };
            if better {
                best = Some((placed, v));
            }
        }
        let (_, chosen) = best.expect("unordered node remains");
        in_order[chosen as usize] = true;
        positions.push(chosen);
    }
    positions
}

/// Mean total degree at or above which a target counts as kernel-dense.
const BITMAP_DEGREE_MEAN_MIN: f64 = 16.0;

/// Routes each constrained position to the bitmap kernel when the target's
/// degree distribution says dense neighborhoods dominate.
///
/// The rule is deliberately coarse: mean total degree at least
/// [`BITMAP_DEGREE_MEAN_MIN`] *and* at least a quarter of the node count —
/// i.e. adjacency bitmap rows are reasonably full, so a word-wise AND beats
/// galloping over the CSR lists.  Sparse targets (grids, cycles, the PPI
/// collections) keep the default gallop kernel.  Positions without back-edge
/// constraints scan domains or the whole node set and never intersect, so
/// their kernel hint stays `Gallop`.
fn select_kernels(order: &mut MatchOrder, stats: &GraphStats) {
    let dense = stats.nodes > 0
        && stats.degree_mean >= BITMAP_DEGREE_MEAN_MIN
        && stats.degree_mean >= stats.nodes as f64 / 4.0;
    if !dense {
        return;
    }
    for step in &mut order.plan.steps {
        if !step.constraints.is_empty() {
            step.kernel = KernelChoice::Bitmap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_graph::{generators, GraphBuilder};

    #[test]
    fn plans_carry_consistent_metadata() {
        let pattern = generators::undirected_cycle(4, 0);
        let target = generators::grid(4, 4);
        for algorithm in Algorithm::ALL {
            for strategy in Strategy::ALL {
                let plan = Planner::new(strategy).plan(&pattern, &target, algorithm);
                assert_eq!(plan.algorithm, algorithm);
                assert_eq!(plan.strategy, strategy);
                assert_eq!(plan.num_positions(), 4);
                assert_eq!(plan.cost.positions.len(), 4);
                assert_eq!(plan.domains.is_some(), algorithm.uses_domains());
                assert_eq!(plan.check_degrees, !algorithm.uses_domains());
                assert!(!plan.impossible);
            }
        }
    }

    #[test]
    fn impossible_detected_through_domains() {
        let mut pb = GraphBuilder::new();
        pb.add_node(42);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
        assert!(plan.impossible);
        // Plain RI has no domains, so planning alone cannot prove it.
        let plan = Planner::default().plan(&pattern, &target, Algorithm::Ri);
        assert!(!plan.impossible);
    }

    #[test]
    fn dense_targets_route_constrained_positions_to_bitmap() {
        let pattern = generators::directed_cycle(4, 0);
        let dense = generators::clique(32, 0); // mean degree 62 ≥ 16 and ≥ 32/4
        let plan = Planner::default().plan(&pattern, &dense, Algorithm::RiDs);
        for (i, step) in plan.order.plan.steps.iter().enumerate() {
            let expect = if step.constraints.is_empty() {
                KernelChoice::Gallop
            } else {
                KernelChoice::Bitmap
            };
            assert_eq!(step.kernel, expect, "position {i}");
        }
        assert!(plan
            .order
            .plan
            .steps
            .iter()
            .any(|s| s.kernel == KernelChoice::Bitmap));
    }

    #[test]
    fn sparse_targets_keep_the_gallop_kernel() {
        let pattern = generators::directed_cycle(4, 0);
        for target in [generators::grid(8, 8), generators::clique(5, 0)] {
            let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDs);
            assert!(plan
                .order
                .plan
                .steps
                .iter()
                .all(|s| s.kernel == KernelChoice::Gallop));
        }
    }

    #[test]
    fn strategies_reorder_but_cover_the_same_nodes() {
        let pattern = generators::grid(3, 3);
        let target = generators::grid(5, 5);
        let mut orders = Vec::new();
        for strategy in Strategy::ALL {
            let plan = Planner::new(strategy).plan(&pattern, &target, Algorithm::RiDsSiFc);
            let mut sorted = plan.order.positions.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "{strategy}");
            orders.push(plan.order.positions.clone());
        }
        assert_eq!(orders.len(), 3);
    }
}
