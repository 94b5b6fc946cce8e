//! The library calls the benchmark makes, in one place: prepare through the
//! planner with registry-style shared target stats and bitmap sidecar, then
//! run under a scheduler, counting or visiting every match.

use crate::inputs::mapping_hash;
use crate::spans::{SpanId, Tracer};
use sge_engine::{EnumerationOutcome, PreparedEngine, RunConfig, Scheduler};
use sge_graph::{AdjacencyBitmaps, Graph, GraphStats, NodeId};
use sge_plan::{Algorithm, Planner, Strategy};
use sge_ri::{CandidateMode, MatchVisitor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A prepared instance plus what the plan said about it.
pub struct Prepared {
    pub engine: PreparedEngine,
    /// The planner's estimate of the search-tree size.
    pub est_states: f64,
    /// Mean domain size over pattern nodes (0 without domains).
    pub domain_size_mean: f64,
    pub impossible: bool,
}

/// Where a traced call records its spans.
pub struct SpanCtx<'t> {
    pub tracer: &'t mut Tracer,
    pub parent: SpanId,
    pub request: u64,
}

/// `Planner::plan_with_stats` followed by `PreparedEngine::from_plan` — the
/// same two calls the serving cache makes on a miss.
pub fn prepare(
    pattern: Arc<Graph>,
    target: &Arc<Graph>,
    stats: &GraphStats,
    bitmaps: &Arc<AdjacencyBitmaps>,
    mut trace: Option<&mut SpanCtx<'_>>,
) -> Prepared {
    let span = trace.as_deref_mut().map(|t| {
        t.tracer
            .open("plan.plan_with_stats", Some(t.parent), t.request)
    });
    let plan = Planner::new(Strategy::default()).plan_with_stats(
        &pattern,
        target,
        stats,
        Algorithm::RiDsSiFc,
    );
    if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
        t.tracer.close(id);
    }
    let est_states = plan.cost.est_total_states;
    let impossible = plan.impossible;
    let domain_size_mean = plan.domains.as_ref().map_or(0.0, |d| {
        d.total_size() as f64 / d.pattern_nodes().max(1) as f64
    });
    let span = trace
        .as_deref_mut()
        .map(|t| t.tracer.open("engine.from_plan", Some(t.parent), t.request));
    let engine = PreparedEngine::from_plan(
        pattern,
        Arc::clone(target),
        Some(Arc::clone(bitmaps)),
        plan,
        CandidateMode::default(),
    );
    if let (Some(t), Some(id)) = (trace, span) {
        t.tracer.close(id);
    }
    Prepared {
        engine,
        est_states,
        domain_size_mean,
        impossible,
    }
}

/// Runs `prepared` under `scheduler`, counting only (`visitor` = `None`) or
/// delivering every match to `visitor`.  When traced, the run span gets a
/// child for the search itself (`ri.search` or `parallel.search`, lasting
/// the outcome's `match_seconds`), so the run span's self time is the
/// engine's dispatch overhead.
pub fn run(
    prepared: &Prepared,
    scheduler: Scheduler,
    visitor: Option<&dyn MatchVisitor>,
    trace: Option<&mut SpanCtx<'_>>,
) -> EnumerationOutcome {
    let config = RunConfig::new(scheduler);
    let Some(t) = trace else {
        return match visitor {
            Some(v) => prepared.engine.run_with(&config, v),
            None => prepared.engine.run(&config),
        };
    };
    let span = t.tracer.open("engine.run", Some(t.parent), t.request);
    let outcome = match visitor {
        Some(v) => prepared.engine.run_with(&config, v),
        None => prepared.engine.run(&config),
    };
    t.tracer.close(span);
    let start = t.tracer.start_ns(span);
    let name = if scheduler.is_sequential() {
        "ri.search"
    } else {
        "parallel.search"
    };
    let search_ns = (outcome.match_seconds * 1e9) as u64;
    t.tracer
        .record(name, start, start + search_ns, Some(span), t.request);
    outcome
}

/// Folds an order-independent fingerprint of every visited match.  Each
/// worker adds into its own cache line, so the visitor itself does not
/// serialize the parallel schedulers.
pub struct FingerprintVisitor {
    slots: Vec<PaddedSlot>,
}

#[repr(align(64))]
#[derive(Default)]
struct PaddedSlot {
    sum: AtomicU64,
}

impl FingerprintVisitor {
    pub fn new(workers: usize) -> FingerprintVisitor {
        FingerprintVisitor {
            slots: (0..workers.max(1)).map(|_| PaddedSlot::default()).collect(),
        }
    }

    /// The wrapping sum of all mapping hashes seen so far.
    pub fn value(&self) -> u64 {
        self.slots.iter().fold(0u64, |acc, s| {
            acc.wrapping_add(s.sum.load(Ordering::Relaxed))
        })
    }
}

impl MatchVisitor for FingerprintVisitor {
    fn on_match(&self, worker_id: usize, mapping: &[NodeId]) {
        let slot = &self.slots[worker_id % self.slots.len()];
        slot.sum.fetch_add(mapping_hash(mapping), Ordering::Relaxed);
    }
}
