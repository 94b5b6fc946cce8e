//! Worker-count scaling on a synthetic GRAEMLIN32-like instance.
//!
//! Reproduces, on one instance, what the paper's Tables 2/3 report per
//! collection: the speedup of the work-stealing parallelization as the worker
//! count grows, together with the number of steals and the per-worker load
//! balance.  The instance is prepared **once**; every worker count reuses the
//! same [`Engine`], so preprocessing is excluded from the comparison by
//! construction.  (On a single-core host the wall-clock speedup will stay
//! near 1; the steal counts and the balanced per-worker state counts still
//! demonstrate the scheduler.)
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_scaling
//! ```

use sge::datasets::{graemlin32_like, Collection};
use sge::prelude::*;
use std::sync::Arc;

fn main() {
    let collection = Collection::generate(&graemlin32_like(0.3, 7));
    // Choose the largest-pattern instance so there is enough work to share.
    let instance = collection
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .expect("non-empty collection");
    let target = collection.target_of(instance);

    println!(
        "instance {}: pattern {} nodes / {} edges, target {} nodes / {} edges",
        instance.id,
        instance.pattern.num_nodes(),
        instance.pattern.num_edges(),
        target.num_nodes(),
        target.num_edges()
    );

    let engine = Engine::prepare(
        Arc::new(instance.pattern.clone()),
        Arc::new(target.clone()),
        Algorithm::RiDsSiFc,
    );
    println!(
        "preprocessing: {:.6} s (paid once, reused below)",
        engine.preprocess_seconds()
    );

    let baseline = engine.run(&RunConfig::new(Scheduler::work_stealing(1)));
    println!(
        "\n1 worker reference: {} matches, {} states, {:.4} s match time\n",
        baseline.matches, baseline.states, baseline.match_seconds
    );

    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "workers", "match (s)", "speedup", "steals", "states σ/worker", "matches"
    );
    for workers in [1usize, 2, 4, 8, 16] {
        let result = engine.run(&RunConfig::new(Scheduler::work_stealing(workers)));
        assert_eq!(
            result.matches, baseline.matches,
            "parallel count must not depend on workers"
        );
        let speedup = baseline.match_seconds / result.match_seconds.max(1e-9);
        println!(
            "{workers:>8} {:>12.4} {:>10.2} {:>12} {:>14.1} {:>12}",
            result.match_seconds,
            speedup,
            result.steals,
            result.worker_states_stddev,
            result.matches
        );
    }

    // What a library scheduler gets you on the same prepared instance.
    let rayon = engine.run(&RunConfig::new(Scheduler::Rayon { workers: 4 }));
    println!(
        "\nrayon-style comparator (4 workers): {} matches, {:.4} s match time",
        rayon.matches, rayon.match_seconds
    );
}
