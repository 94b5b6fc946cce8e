//! Enumerate motifs in a synthetic protein-protein interaction network.
//!
//! This mirrors the workload the paper's introduction motivates: a dense,
//! labeled biochemical target (our PPIS32 analogue) queried with patterns
//! extracted from it, comparing RI-DS with this paper's improved
//! RI-DS-SI-FC preprocessing — all through the unified [`Engine`].
//!
//! Run with:
//! ```text
//! cargo run --release --example protein_interaction
//! ```

use sge::datasets::{ppis32_like, Collection};
use sge::prelude::*;
use sge::ri::Domains;
use std::sync::Arc;

fn main() {
    // A small PPIS32-like collection (deterministic in the seed).
    let spec = ppis32_like(0.25, 2024);
    let collection = Collection::generate(&spec);
    let stats = collection.stats();
    println!(
        "collection {}: {} targets ({}..{} nodes, {}..{} edges), degree µ={:.2} σ={:.2}",
        collection.kind,
        stats.graphs,
        stats.nodes_min,
        stats.nodes_max,
        stats.edges_min,
        stats.edges_max,
        stats.degree_mean,
        stats.degree_stddev
    );

    // Pick a mid-sized instance and inspect its domains.
    let instance = collection
        .instances
        .iter()
        .find(|i| i.requested_edges == 16)
        .expect("collection contains 16-edge patterns");
    let pattern = Arc::new(instance.pattern.clone());
    let target = Arc::new(collection.target_of(instance).clone());
    println!(
        "\ninstance {}: pattern {} nodes / {} edges ({}), target {}",
        instance.id,
        instance.pattern.num_nodes(),
        instance.pattern.num_edges(),
        instance.class.name(),
        target.name()
    );

    let mut domains = Domains::compute(&pattern, &target);
    let before: usize = domains.total_size();
    let consistent = domains.forward_check();
    println!(
        "domain sizes: total {before} before forward checking, {} after (consistent: {consistent})",
        domains.total_size()
    );

    println!(
        "\n{:<14} {:>10} {:>12} {:>12} {:>12}",
        "algorithm", "matches", "states", "total (s)", "states/s"
    );
    for algorithm in [Algorithm::RiDs, Algorithm::RiDsSi, Algorithm::RiDsSiFc] {
        let engine = Engine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
        let result = engine.run(&RunConfig::new(Scheduler::Sequential));
        println!(
            "{:<14} {:>10} {:>12} {:>12.4} {:>12.0}",
            algorithm.name(),
            result.matches,
            result.states,
            result.total_seconds(),
            result.states_per_second()
        );
    }

    // And the parallel schedulers on the best variant: prepare once, run both.
    let engine = Engine::prepare(
        Arc::clone(&pattern),
        Arc::clone(&target),
        Algorithm::RiDsSiFc,
    );
    let stealing = engine.run(&RunConfig::new(Scheduler::work_stealing(4)));
    println!(
        "\nwork-stealing RI-DS-SI-FC (4 workers): {} matches, {} states, {} steals, {:.4} s total",
        stealing.matches,
        stealing.states,
        stealing.steals,
        stealing.total_seconds()
    );
    // Stream the first few matches instead of collecting everything.
    let first = engine.run(
        &RunConfig::new(Scheduler::work_stealing(4))
            .with_max_matches(3)
            .with_collected_mappings(3),
    );
    println!(
        "first {} mappings (sorted): {:?}",
        first.mappings.len(),
        first.mappings
    );
}
