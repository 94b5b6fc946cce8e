//! Shared search machinery: candidate generation and consistency checking.
//!
//! Both the sequential matcher ([`crate::matcher`]) and the parallel runtime
//! (`sge-parallel`) drive the same [`SearchContext`], so they explore exactly
//! the same state-space tree.  A *state* in the paper's terminology is a
//! `(position, candidate target node)` pair for which a consistency check is
//! performed; the caller counts those.
//!
//! A context *executes* a [`QueryPlan`] produced by `sge-plan`: the plan
//! fixes the match order, the back-edge constraint sets and the domains; the
//! context adds the target-graph machinery (adjacency intersection,
//! consistency checks).  It borrows the plan, so one prepared plan serves
//! any number of runs, each through its own cheap context.
//!
//! [`WorkerState`] is the per-worker mutable part: the partial mapping `M`
//! (target node per ordered position) and the injectivity flags.  In the
//! parallel runtime it is private to a worker and *never copied for private
//! tasks*; only when a task is stolen does the prefix of `M` travel to the
//! thief (Section 3 of the paper).

use crate::kernels::{self, GallopRoute, KernelCells, KernelUsage};
use crate::matcher::Algorithm;
use sge_graph::{AdjacencyBitmaps, EdgeRef, Graph, NodeId};
use sge_obs::TraceSink;
use sge_plan::ordering::{KernelChoice, MatchOrder, PlanStep, PrefilterSpec};
use sge_plan::{Domains, QueryPlan, Strategy};
use std::cell::RefCell;

thread_local! {
    /// Per-thread word buffer for the bitmap kernel's row AND accumulation.
    /// Thread-local so parallel workers sharing one [`SearchContext`] never
    /// contend, and reused across candidate fills so the hot path does not
    /// allocate.
    static BITMAP_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// How raw candidates are generated for positions with ordered neighbors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CandidateMode {
    /// Multi-parent intersection (the default): candidates are the galloping
    /// intersection of the adjacency lists of *every* already-mapped pattern
    /// neighbor (smallest adjacency first), filtered through the RI-DS domain
    /// bitset.  Edges back into the prefix are then guaranteed by
    /// construction, so [`SearchContext::is_consistent`] skips its per-edge
    /// probe loop.
    #[default]
    Intersection,
    /// The legacy scheme: candidates come from a *single* parent's adjacency
    /// list and every remaining back-edge is re-verified per candidate with a
    /// binary-searched `edge_label` probe.  Kept as a comparator for property
    /// tests and the bench harness.
    SingleParent,
}

impl std::fmt::Display for CandidateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CandidateMode::Intersection => "intersection",
            CandidateMode::SingleParent => "single-parent",
        })
    }
}

impl std::str::FromStr for CandidateMode {
    type Err = String;

    /// Parses `intersection` / `single-parent` (case-insensitive, `_` and
    /// `-` interchangeable).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text.to_ascii_lowercase().replace('_', "-").as_str() {
            "intersection" => Ok(CandidateMode::Intersection),
            "single-parent" => Ok(CandidateMode::SingleParent),
            other => Err(format!(
                "unknown candidate mode '{other}' (expected intersection or single-parent)"
            )),
        }
    }
}

/// States visited and matches found by (part of) a search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// States visited: consistency checks performed.
    pub states: u64,
    /// Matches counted.
    pub matches: u64,
}

/// The per-run view of one prepared enumeration instance.
///
/// Everything prepared is *borrowed* from whoever owns the instance
/// (normally `sge_engine::Engine`): the pattern, the target, the
/// [`QueryPlan`] being executed (ordering, domains, cost estimates) and the
/// optional bitmap sidecar.  The context owns only this run's observation
/// state — the kernel counters and the optional [`TraceSink`] — so building
/// one copies nothing, and concurrent runs of one shared engine never mix
/// their counters.
pub struct SearchContext<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    plan: &'a QueryPlan,
    // The plan parts the hot path reads, one load away from the context.
    steps: &'a [PlanStep],
    positions: &'a [NodeId],
    domains: Option<&'a Domains>,
    check_degrees: bool,
    /// Candidate generation scheme (intersection by default).
    mode: CandidateMode,
    /// Optional dense-adjacency bitmap sidecar of the target.  Required for
    /// the bitmap kernel and the candidate prefilter; when absent every
    /// position gallops over CSR and no candidates are prefiltered.
    bitmaps: Option<&'a AdjacencyBitmaps>,
    /// Optional per-run observation sink.  When attached, candidate
    /// generation and consistency checks record per-position counters; when
    /// absent the cost is one predictable branch per call.
    sink: Option<&'a TraceSink>,
    /// This run's kernel-invocation counters (always on; workers accumulate
    /// locally per candidate fill and flush a handful of relaxed adds).
    kernels: KernelCells,
}

impl<'a> SearchContext<'a> {
    /// A ready-to-search view of `plan` executed against `pattern` and
    /// `target` under `mode`.
    ///
    /// The graphs must be the ones the plan was built from (or structurally
    /// identical copies); the ordering and domains reference their node ids
    /// directly.  `bitmaps`, when given, must describe `target`; steps the
    /// plan routes to the bitmap kernel gallop over CSR without it.  With a
    /// `sink` attached every candidate list generated and every consistency
    /// check performed through this context is recorded per position; all
    /// schedulers drive the same context, so the recorded totals are
    /// schedule-invariant on complete runs.
    pub fn new(
        pattern: &'a Graph,
        target: &'a Graph,
        plan: &'a QueryPlan,
        mode: CandidateMode,
        bitmaps: Option<&'a AdjacencyBitmaps>,
        sink: Option<&'a TraceSink>,
    ) -> Self {
        SearchContext {
            pattern,
            target,
            plan,
            steps: &plan.order.plan.steps,
            positions: &plan.order.positions,
            domains: plan.domains.as_deref(),
            check_degrees: plan.check_degrees,
            mode,
            bitmaps,
            sink,
            kernels: KernelCells::default(),
        }
    }

    /// Kernel-invocation counters accumulated through this context so far
    /// (across all workers).
    pub fn kernel_totals(&self) -> KernelUsage {
        self.kernels.snapshot()
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&'a TraceSink> {
        self.sink
    }

    /// The attached bitmap sidecar, if any.
    pub fn bitmaps(&self) -> Option<&'a AdjacencyBitmaps> {
        self.bitmaps
    }

    /// The candidate generation scheme this context uses.
    pub fn candidate_mode(&self) -> CandidateMode {
        self.mode
    }

    /// The pattern graph.
    pub fn pattern(&self) -> &Graph {
        self.pattern
    }

    /// The algorithm variant this context was prepared for.
    pub fn algorithm(&self) -> Algorithm {
        self.plan.algorithm
    }

    /// The target graph.
    pub fn target(&self) -> &Graph {
        self.target
    }

    /// The full query plan this context executes.
    pub fn plan(&self) -> &'a QueryPlan {
        self.plan
    }

    /// The ordering strategy that planned this context.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The static node ordering.
    pub fn order(&self) -> &MatchOrder {
        &self.plan.order
    }

    /// The domains, when the algorithm uses them.
    pub fn domains(&self) -> Option<&Domains> {
        self.domains
    }

    /// Number of positions to fill (= pattern nodes).
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// `true` when preprocessing proved there are no matches; the search can be
    /// skipped entirely.
    pub fn impossible(&self) -> bool {
        self.plan.impossible || self.pattern.num_nodes() > self.target.num_nodes()
    }

    /// Creates a fresh per-worker state.
    pub fn new_state(&self) -> WorkerState {
        WorkerState {
            mapping: vec![NodeId::MAX; self.num_positions()],
            used: vec![false; self.target.num_nodes()],
        }
    }

    /// Raw candidate target nodes for position `depth`, given the current
    /// partial state (all referenced parents' images must already be assigned).
    ///
    /// * positions with ordered neighbors: under the default
    ///   [`CandidateMode::Intersection`], the sorted intersection of the
    ///   adjacency lists of *every* already-mapped pattern neighbor (starting
    ///   from the smallest list, galloping through the others), filtered
    ///   through the RI-DS domain bitset; under
    ///   [`CandidateMode::SingleParent`], the out-/in-neighbors of the single
    ///   parent's image,
    /// * parentless positions with domains (RI-DS): the domain members,
    /// * parentless positions without domains (RI): every target node.
    ///
    /// Candidates are *raw*: they still need [`Self::is_consistent`].
    pub fn candidates(&self, depth: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        self.fill_candidates(depth, state, out);
        if let Some(sink) = &self.sink {
            sink.record_candidates(depth, out.len() as u64);
        }
    }

    fn fill_candidates(&self, depth: usize, state: &WorkerState, out: &mut Vec<NodeId>) {
        out.clear();
        let step = &self.steps[depth];
        let mut local = KernelUsage::default();
        if step.constraints.is_empty() {
            let vp = self.positions[depth];
            match self.domains {
                Some(domains) => {
                    out.extend(domains.set(vp).iter().map(|v| v as NodeId));
                }
                None => out.extend(0..self.target.num_nodes() as NodeId),
            }
            if let Some((maps, spec)) = self.active_prefilter(step) {
                let before = out.len();
                out.retain(|&v| prefilter_pass(maps, spec, self.target, v));
                local.prefilter_rejected += (before - out.len()) as u64;
                self.kernels.flush(local);
            }
            // Shard-ownership restriction: only the plan root (position 0)
            // is filtered, so deeper parentless positions — which rooted
            // plans never produce on connected patterns — stay unrestricted.
            if depth == 0 {
                if let Some(filter) = &self.plan.root_filter {
                    out.retain(|&v| filter.contains(v as usize));
                }
            }
            return;
        }
        match self.mode {
            CandidateMode::SingleParent => {
                let link =
                    self.plan.order.parents[depth].expect("constrained position has a parent");
                let parent_image = state.mapping[link.parent_pos];
                debug_assert_ne!(parent_image, NodeId::MAX, "parent must be assigned");
                let edges = if link.out_from_parent {
                    self.target.out_edges(parent_image)
                } else {
                    self.target.in_edges(parent_image)
                };
                out.extend(edges.iter().map(|e| e.node));
            }
            CandidateMode::Intersection => {
                let vp = self.positions[depth];
                self.intersect_candidates(vp, step, state, out, &mut local);
                self.kernels.flush(local);
            }
        }
    }

    /// The prefilter to apply at a position: present only when a sidecar is
    /// attached (signatures live there) and the spec can reject anything.
    #[inline]
    fn active_prefilter<'s>(
        &'s self,
        step: &'s PlanStep,
    ) -> Option<(&'s AdjacencyBitmaps, &'s PrefilterSpec)> {
        let maps = self.bitmaps?;
        if step.prefilter.is_trivial() {
            return None;
        }
        Some((maps, &step.prefilter))
    }

    /// The adjacency list a constraint selects for the current state.
    #[inline]
    fn constraint_adjacency(
        &self,
        c: &sge_plan::EdgeConstraint,
        state: &WorkerState,
    ) -> &[EdgeRef] {
        let image = state.mapping[c.parent_pos];
        debug_assert_ne!(image, NodeId::MAX, "constraint parent must be assigned");
        if c.out_from_parent {
            self.target.out_edges(image)
        } else {
            self.target.in_edges(image)
        }
    }

    /// Multi-parent candidate generation, dispatched on the planner's
    /// [`KernelChoice`] for the step.
    ///
    /// The bitmap path ANDs the constraint rows of the target's sidecar
    /// word-by-word (plus the domain bitset) and runs only when every
    /// constraint has a row; otherwise — and always under
    /// [`KernelChoice::Gallop`] — the CSR path seeds `out` from the smallest
    /// adjacency list among the constraints (filtered by edge label, domain /
    /// node-label membership and the prefilter), then intersects with each
    /// remaining list through the width-bucketed
    /// [`kernels::intersect_gallop`].  Both paths produce byte-identical
    /// candidate sets (see the kernel parity suites).
    fn intersect_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        state: &WorkerState,
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) {
        if step.kernel == KernelChoice::Bitmap
            && self.bitmap_candidates(vp, step, state, out, local)
        {
            return;
        }
        // Seed from the smallest adjacency list (smallest-degree-first); every
        // adjacency list is sorted by node id, so the buffer stays sorted
        // through all intersections.
        let mut seed = 0;
        let mut seed_len = usize::MAX;
        for (i, c) in step.constraints.iter().enumerate() {
            let len = self.constraint_adjacency(c, state).len();
            if len < seed_len {
                seed_len = len;
                seed = i;
            }
        }
        // The seed fill also applies the domain (or node-label) filter and
        // the prefilter, so later intersections gallop over the smallest
        // possible buffer and `is_consistent` need not re-test membership.
        let c0 = &step.constraints[seed];
        let adj0 = self.constraint_adjacency(c0, state);
        let prefilter = self.active_prefilter(step);
        let passes = |v: NodeId, local: &mut KernelUsage| match prefilter {
            Some((maps, spec)) => {
                let pass = prefilter_pass(maps, spec, self.target, v);
                local.prefilter_rejected += !pass as u64;
                pass
            }
            None => true,
        };
        match self.domains {
            Some(domains) => {
                for e in adj0 {
                    if e.label == c0.label && domains.contains(vp, e.node) && passes(e.node, local)
                    {
                        out.push(e.node);
                    }
                }
            }
            None => {
                let label = self.pattern.label(vp);
                for e in adj0 {
                    if e.label == c0.label
                        && self.target.label(e.node) == label
                        && passes(e.node, local)
                    {
                        out.push(e.node);
                    }
                }
            }
        }
        for (i, c) in step.constraints.iter().enumerate() {
            if i == seed {
                continue;
            }
            if out.is_empty() {
                return;
            }
            match kernels::intersect_gallop(out, self.constraint_adjacency(c, state), c.label) {
                GallopRoute::Merge => local.merge += 1,
                GallopRoute::Gallop | GallopRoute::GallopSwapped => local.gallop += 1,
            }
        }
    }

    /// The bitmap row a constraint selects for the current state, if built.
    #[inline]
    fn constraint_row<'m>(
        &self,
        maps: &'m AdjacencyBitmaps,
        c: &sge_plan::EdgeConstraint,
        state: &WorkerState,
    ) -> Option<&'m [u64]> {
        let image = state.mapping[c.parent_pos];
        debug_assert_ne!(image, NodeId::MAX, "constraint parent must be assigned");
        if c.out_from_parent {
            maps.out_row(image, c.label)
        } else {
            maps.in_row(image, c.label)
        }
    }

    /// Bitmap-kernel candidate generation: word-wise AND of every
    /// constraint's sidecar row and the domain bitset, then a single pass
    /// over the set bits (label check when domains are absent, plus the
    /// prefilter).  Returns `false` — leaving `out` empty — when the sidecar
    /// or any row is missing, in which case the caller gallops over CSR.
    fn bitmap_candidates(
        &self,
        vp: NodeId,
        step: &PlanStep,
        state: &WorkerState,
        out: &mut Vec<NodeId>,
        local: &mut KernelUsage,
    ) -> bool {
        let Some(maps) = self.bitmaps else {
            return false;
        };
        let words = maps.words_per_row();
        if words == 0 {
            return false;
        }
        // Every constraint needs a row; lookups are cheap binary searches,
        // so verify all of them before touching the scratch buffer.
        for c in &step.constraints {
            if self.constraint_row(maps, c, state).is_none() {
                return false;
            }
        }
        BITMAP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(words, 0u64);
            let mut first = true;
            for c in &step.constraints {
                let row = self
                    .constraint_row(maps, c, state)
                    .expect("row presence checked above");
                if first {
                    scratch.copy_from_slice(row);
                    first = false;
                } else {
                    kernels::and_rows(&mut scratch, row);
                }
                local.bitmap += 1;
            }
            if let Some(domains) = self.domains {
                kernels::and_rows(&mut scratch, domains.set(vp).words());
            }
            let check_label = self.domains.is_none();
            let label = self.pattern.label(vp);
            let prefilter = self.active_prefilter(step);
            for (w, &word) in scratch.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = (w * 64 + bits.trailing_zeros() as usize) as NodeId;
                    bits &= bits - 1;
                    if check_label && self.target.label(v) != label {
                        continue;
                    }
                    if let Some((maps, spec)) = prefilter {
                        if !prefilter_pass(maps, spec, self.target, v) {
                            local.prefilter_rejected += 1;
                            continue;
                        }
                    }
                    out.push(v);
                }
            }
        });
        true
    }

    /// Last-depth counting fast path: the number of states and matches the
    /// final position would contribute, computed straight off the bitmap
    /// words without materializing candidates.
    ///
    /// At the last depth every pattern edge of the position's node points
    /// back into the mapped prefix, so a candidate surviving the
    /// constraint-row AND (plus the domain bitset) provably passes every
    /// remaining per-candidate check except injectivity:
    ///
    /// * domain membership already covers the node label, and the
    ///   prefilter's degree / signature minimums are implied by the
    ///   satisfied back-edges (one distinct neighbor per pattern edge), so
    ///   `prefilter_rejected` stays untouched — exactly like enumerating;
    /// * `check_degrees` holds for the same reason;
    /// * self-loops are excluded by construction (they return `None`).
    ///
    /// The counts are therefore byte-identical to the enumerating path:
    /// `states` is the popcount of the AND (every set bit would have been a
    /// generated candidate), and `matches` subtracts the already-used
    /// targets whose bits survived (each would have been visited and
    /// rejected by the injectivity check).  The kernel counters advance by
    /// one bitmap AND per constraint row, as in [`Self::candidates`].
    ///
    /// Returns `None` whenever any guarantee is missing — legacy candidate
    /// mode, no domains, no sidecar row for some constraint, a self-loop, a
    /// non-bitmap kernel, or an attached trace sink (which must observe
    /// every candidate fill and consistency check individually).
    pub(crate) fn count_final_candidates(
        &self,
        depth: usize,
        state: &WorkerState,
    ) -> Option<SearchCounts> {
        debug_assert_eq!(depth + 1, self.num_positions());
        if self.mode != CandidateMode::Intersection || self.sink.is_some() {
            return None;
        }
        let step = &self.steps[depth];
        if step.kernel != KernelChoice::Bitmap
            || step.constraints.is_empty()
            || step.self_loop.is_some()
        {
            return None;
        }
        let domains = self.domains?;
        let maps = self.bitmaps?;
        let words = maps.words_per_row();
        if words == 0 {
            return None;
        }
        for c in &step.constraints {
            self.constraint_row(maps, c, state)?;
        }
        let vp = self.positions[depth];
        let count = BITMAP_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.resize(words, 0u64);
            let mut first = true;
            for c in &step.constraints {
                let row = self
                    .constraint_row(maps, c, state)
                    .expect("row presence checked above");
                if first {
                    scratch.copy_from_slice(row);
                    first = false;
                } else {
                    kernels::and_rows(&mut scratch, row);
                }
            }
            kernels::and_rows(&mut scratch, domains.set(vp).words());
            let states: u64 = scratch.iter().map(|w| u64::from(w.count_ones())).sum();
            let used = state.mapping[..depth]
                .iter()
                .filter(|&&vt| scratch[vt as usize / 64] >> (vt % 64) & 1 == 1)
                .count() as u64;
            SearchCounts {
                states,
                matches: states - used,
            }
        });
        self.kernels.flush(KernelUsage {
            bitmap: step.constraints.len() as u64,
            ..KernelUsage::default()
        });
        Some(count)
    }

    /// The gallop-side companion of [`Self::count_final_candidates`]: counts
    /// the final position's contribution from an already-generated candidate
    /// list.  The same soundness argument applies regardless of which kernel
    /// produced the list — a constrained intersection-mode candidate at the
    /// last depth satisfies every pattern edge of its node (labels and
    /// directions included), so only the injectivity check can still reject
    /// it.  Candidates are sorted ascending (both kernels emit them that
    /// way), so the used-prefix overlap is a handful of binary searches.
    ///
    /// `None` when a guarantee is missing: legacy candidate mode, a
    /// self-loop, an attached trace sink (which must observe each
    /// consistency check), or an unconstrained position whose candidates
    /// still need the label / domain test in [`Self::is_consistent`].
    pub(crate) fn final_count_from_candidates(
        &self,
        depth: usize,
        state: &WorkerState,
        candidates: &[NodeId],
    ) -> Option<SearchCounts> {
        debug_assert_eq!(depth + 1, self.num_positions());
        if self.mode != CandidateMode::Intersection || self.sink.is_some() {
            return None;
        }
        let step = &self.steps[depth];
        if step.constraints.is_empty() || step.self_loop.is_some() {
            return None;
        }
        let states = candidates.len() as u64;
        let used = state.mapping[..depth]
            .iter()
            .filter(|&&vt| candidates.binary_search(&vt).is_ok())
            .count() as u64;
        Some(SearchCounts {
            states,
            matches: states - used,
        })
    }

    /// Full consistency check for mapping the pattern node at `depth` onto
    /// `vt`, given the already-assigned prefix in `state`.
    ///
    /// Checks are ordered cheap → expensive, as in RI: injectivity, label (or
    /// domain membership), degrees (plain RI only), the self-loop when the
    /// pattern node carries one, and — under
    /// [`CandidateMode::SingleParent`] only — every pattern edge between this
    /// node and already-mapped pattern nodes.  Under the default intersection
    /// mode those back-edges are already guaranteed by
    /// [`Self::candidates`], so the per-edge probe loop is skipped.
    pub fn is_consistent(&self, depth: usize, vt: NodeId, state: &WorkerState) -> bool {
        if let Some(sink) = &self.sink {
            sink.record_state(depth);
        }
        let vp = self.positions[depth];
        if state.used[vt as usize] {
            return false;
        }
        let step = &self.steps[depth];
        // Under intersection mode, constrained candidates were already pushed
        // through the domain / node-label filter by `candidates`; re-testing
        // is only needed for parentless positions and the legacy path.
        if self.mode == CandidateMode::SingleParent || step.constraints.is_empty() {
            match self.domains {
                Some(domains) => {
                    if !domains.contains(vp, vt) {
                        return false;
                    }
                }
                None => {
                    if self.pattern.label(vp) != self.target.label(vt) {
                        return false;
                    }
                }
            }
        }
        if self.check_degrees
            && (self.target.out_degree(vt) < self.pattern.out_degree(vp)
                || self.target.in_degree(vt) < self.pattern.in_degree(vp))
        {
            return false;
        }
        if let Some(label) = step.self_loop {
            match self.target.edge_label(vt, vt) {
                Some(l) if l == label => {}
                _ => return false,
            }
        }
        if self.mode == CandidateMode::Intersection {
            // Back-edges (and their labels) are guaranteed by the candidate
            // intersection; nothing left to probe.
            return true;
        }
        // Legacy path: probe every edge from vp to already-mapped nodes.
        for c in &step.constraints {
            let wt = state.mapping[c.parent_pos];
            let found = if c.out_from_parent {
                self.target.edge_label(wt, vt)
            } else {
                self.target.edge_label(vt, wt)
            };
            match found {
                Some(l) if l == c.label => {}
                _ => return false,
            }
        }
        true
    }

    /// Extracts the current mapping as `pattern node -> target node`.
    pub fn mapping_by_pattern_node(&self, state: &WorkerState) -> Vec<NodeId> {
        let mut out = vec![NodeId::MAX; self.num_positions()];
        for (pos, &vt) in state.mapping.iter().enumerate() {
            let vp = self.positions[pos];
            out[vp as usize] = vt;
        }
        out
    }
}

/// O(1) candidate feasibility test: directed-degree minimums plus the
/// Bloom-style label-signature superset tests of [`PrefilterSpec`].  A
/// failing candidate provably cannot complete to a match (its neighborhood
/// lacks a label some pattern edge requires), so rejections change state
/// counts but never the match set.
#[inline]
fn prefilter_pass(
    maps: &AdjacencyBitmaps,
    spec: &PrefilterSpec,
    target: &Graph,
    v: NodeId,
) -> bool {
    target.out_degree(v) >= spec.min_out_degree as usize
        && target.in_degree(v) >= spec.min_in_degree as usize
        && spec.out_sig & !maps.out_sig(v) == 0
        && spec.in_sig & !maps.in_sig(v) == 0
}

/// Mutable per-worker search state: the partial mapping (indexed by ordered
/// position) and the injectivity flags over target nodes.
#[derive(Clone, Debug)]
pub struct WorkerState {
    mapping: Vec<NodeId>,
    used: Vec<bool>,
}

impl WorkerState {
    /// Assigns `vt` to position `depth`.
    #[inline]
    pub fn assign(&mut self, depth: usize, vt: NodeId) {
        debug_assert!(!self.used[vt as usize], "target node already used");
        self.mapping[depth] = vt;
        self.used[vt as usize] = true;
    }

    /// Undoes the assignment at `depth`.
    #[inline]
    pub fn unassign(&mut self, depth: usize) {
        let vt = self.mapping[depth];
        if vt != NodeId::MAX {
            self.used[vt as usize] = false;
            self.mapping[depth] = NodeId::MAX;
        }
    }

    /// The target node assigned at `depth` (`NodeId::MAX` when unassigned).
    #[inline]
    pub fn assigned(&self, depth: usize) -> NodeId {
        self.mapping[depth]
    }

    /// The mapping prefix `[0, depth)` — what must travel with a stolen task.
    pub fn prefix(&self, depth: usize) -> Vec<NodeId> {
        self.mapping[..depth].to_vec()
    }

    /// Clears every assignment at positions `>= depth` (rewinding to an
    /// ancestor task in DFS order).
    pub fn rewind_to(&mut self, depth: usize) {
        for pos in depth..self.mapping.len() {
            self.unassign(pos);
        }
    }

    /// Replaces the whole state with the given prefix (installing a stolen
    /// task's context on the thief).
    pub fn install_prefix(&mut self, prefix: &[NodeId]) {
        self.rewind_to(0);
        for (depth, &vt) in prefix.iter().enumerate() {
            self.assign(depth, vt);
        }
    }

    /// Raw view of the mapping indexed by position.
    pub fn mapping(&self) -> &[NodeId] {
        &self.mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Algorithm;
    use sge_graph::{generators, GraphBuilder};
    use sge_plan::Planner;

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

    #[test]
    fn candidates_from_parent_neighborhood() {
        let pattern = generators::directed_path(2, 0);
        let target = generators::star(3, 0, 0); // center 0 -> leaves 1,2,3
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let mut state = ctx.new_state();

        let mut roots = Vec::new();
        ctx.candidates(0, &state, &mut roots);
        assert_eq!(
            roots.len(),
            target.num_nodes(),
            "RI roots = all target nodes"
        );

        // Map the first pattern node onto the star center and check the child
        // candidates are exactly the center's out-neighbors.
        let first = ctx.order().positions[0];
        assert!(ctx.is_consistent(0, 0, &state));
        state.assign(0, 0);
        let mut children = Vec::new();
        ctx.candidates(1, &state, &mut children);
        let link = ctx.order().parents[1].unwrap();
        assert_eq!(link.parent_pos, 0);
        if pattern.has_edge(first, ctx.order().positions[1]) {
            assert_eq!(children, vec![1, 2, 3]);
        } else {
            assert!(children.is_empty());
        }
    }

    #[test]
    fn consistency_rejects_used_and_wrong_labels() {
        let pattern = generators::labeled_triangle(1, 2, 3);
        let mut tb = GraphBuilder::new();
        let a = tb.add_node(1);
        let b = tb.add_node(2);
        let c = tb.add_node(3);
        let d = tb.add_node(2);
        tb.add_edge(a, b, 0);
        tb.add_edge(b, c, 0);
        tb.add_edge(c, a, 0);
        tb.add_edge(a, d, 0);
        let target = tb.build();

        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let mut state = ctx.new_state();
        let pos0 = ctx.order().positions[0];
        let image0 = match pattern.label(pos0) {
            1 => a,
            2 => b,
            _ => c,
        };
        assert!(ctx.is_consistent(0, image0, &state));
        state.assign(0, image0);
        // Re-using the same target node must fail at any later depth.
        assert!(!ctx.is_consistent(1, image0, &state));
    }

    #[test]
    fn consistency_checks_edges_to_mapped_nodes() {
        // Pattern: directed edge 0 -> 1 (same labels); target: two nodes with
        // the edge the wrong way round.
        let pattern = generators::directed_path(2, 0);
        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        tb.add_edge(t1, t0, 0);
        let target = tb.build();
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let mut state = ctx.new_state();

        // Whatever the ordering, mapping both nodes must fail somewhere.
        let mut total = 0u32;
        let mut cands = Vec::new();
        ctx.candidates(0, &state, &mut cands);
        for &c0 in &cands {
            if !ctx.is_consistent(0, c0, &state) {
                continue;
            }
            state.assign(0, c0);
            let mut inner = Vec::new();
            ctx.candidates(1, &state, &mut inner);
            for &c1 in &inner {
                if ctx.is_consistent(1, c1, &state) {
                    total += 1;
                }
            }
            state.unassign(0);
        }
        assert_eq!(total, 1, "exactly one directed embedding exists");
    }

    #[test]
    fn self_loop_in_pattern_requires_self_loop_in_target() {
        let mut pb = GraphBuilder::new();
        let p = pb.add_node(0);
        pb.add_edge(p, p, 0);
        let pattern = pb.build();

        let mut tb = GraphBuilder::new();
        let t0 = tb.add_node(0);
        let t1 = tb.add_node(0);
        tb.add_edge(t0, t0, 0);
        tb.add_edge(t0, t1, 0);
        let target = tb.build();

        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let state = ctx.new_state();
        assert!(ctx.is_consistent(0, t0, &state));
        assert!(!ctx.is_consistent(0, t1, &state));
    }

    #[test]
    fn impossible_when_pattern_larger_than_target() {
        let pattern = generators::clique(4, 0);
        let target = generators::clique(3, 0);
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        assert!(ctx.impossible());
    }

    #[test]
    fn impossible_when_domain_empty() {
        let mut pb = GraphBuilder::new();
        pb.add_node(9);
        let pattern = pb.build();
        let target = generators::clique(3, 0);
        let plan = plan(&pattern, &target, Algorithm::RiDs);
        let ctx = context(&pattern, &target, &plan);
        assert!(ctx.impossible());
    }

    #[test]
    fn worker_state_prefix_and_rewind() {
        let pattern = generators::directed_path(3, 0);
        let target = generators::directed_path(5, 0);
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let mut state = ctx.new_state();
        state.assign(0, 2);
        state.assign(1, 3);
        assert_eq!(state.prefix(2), vec![2, 3]);
        assert_eq!(state.assigned(1), 3);

        let mut other = ctx.new_state();
        other.install_prefix(&state.prefix(2));
        assert_eq!(other.assigned(0), 2);
        assert_eq!(other.assigned(1), 3);

        state.rewind_to(1);
        assert_eq!(state.assigned(0), 2);
        assert_eq!(state.assigned(1), NodeId::MAX);
        assert_eq!(state.prefix(1), vec![2]);
        // Target node 3 is free again: re-assigning it must not trip the
        // injectivity debug assertion.
        state.assign(1, 3);
        assert_eq!(state.assigned(1), 3);
    }

    #[test]
    fn domain_candidates_for_parentless_position() {
        // Disconnected pattern: two isolated labeled nodes; RI-DS candidates
        // for the second root come from its domain, not the whole target.
        let mut pb = GraphBuilder::new();
        pb.add_node(1);
        pb.add_node(2);
        let pattern = pb.build();
        let mut tb = GraphBuilder::new();
        tb.add_node(1);
        tb.add_node(2);
        tb.add_node(2);
        tb.add_node(3);
        let target = tb.build();

        let plan = plan(&pattern, &target, Algorithm::RiDs);
        let ctx = context(&pattern, &target, &plan);
        let state = ctx.new_state();
        let mut cands = Vec::new();
        ctx.candidates(0, &state, &mut cands);
        let vp0 = ctx.order().positions[0];
        let expected = if pattern.label(vp0) == 1 { 1 } else { 2 };
        assert_eq!(cands.len(), expected);
    }

    #[test]
    fn mapping_by_pattern_node_inverts_the_order() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::directed_cycle(3, 0);
        let plan = plan(&pattern, &target, Algorithm::Ri);
        let ctx = context(&pattern, &target, &plan);
        let mut state = ctx.new_state();
        // Assign positions 0..3 to target nodes equal to the pattern node they
        // represent (the identity embedding exists in a 3-cycle).
        for depth in 0..3 {
            let vp = ctx.order().positions[depth];
            assert!(ctx.is_consistent(depth, vp, &state));
            state.assign(depth, vp);
        }
        let by_node = ctx.mapping_by_pattern_node(&state);
        assert_eq!(by_node, vec![0, 1, 2]);
    }

    #[test]
    fn candidate_mode_parses_and_displays() {
        assert_eq!(
            "intersection".parse::<CandidateMode>().unwrap(),
            CandidateMode::Intersection
        );
        assert_eq!(
            "Single_Parent".parse::<CandidateMode>().unwrap(),
            CandidateMode::SingleParent
        );
        assert!("legacy".parse::<CandidateMode>().is_err());
        assert_eq!(CandidateMode::Intersection.to_string(), "intersection");
        assert_eq!(CandidateMode::SingleParent.to_string(), "single-parent");
    }

    #[test]
    fn context_carries_strategy_and_plan() {
        let pattern = generators::directed_cycle(3, 0);
        let target = generators::clique(4, 0);
        let plan =
            Planner::new(Strategy::DegreeDescending).plan(&pattern, &target, Algorithm::RiDs);
        let ctx = SearchContext::new(
            &pattern,
            &target,
            &plan,
            CandidateMode::SingleParent,
            None,
            None,
        );
        assert_eq!(ctx.strategy(), Strategy::DegreeDescending);
        assert_eq!(ctx.algorithm(), Algorithm::RiDs);
        assert_eq!(ctx.candidate_mode(), CandidateMode::SingleParent);
        assert_eq!(ctx.plan().cost.positions.len(), 3);
        assert_eq!(ctx.order().positions, plan.order.positions);
        assert!(ctx.trace_sink().is_none());
        assert_eq!(ctx.kernel_totals(), KernelUsage::default());
    }
}
