//! How RI-DS domains, domain-size ordering and forward checking prune the
//! search space (the paper's Section 4 / Fig. 7 story on one instance).
//!
//! Run with:
//! ```text
//! cargo run --release --example domain_pruning
//! ```

use sge::datasets::{pdbsv1_like, Collection};
use sge::prelude::*;
use sge::ri::{greatest_constraint_first, Domains};
use std::sync::Arc;

fn main() {
    let collection = Collection::generate(&pdbsv1_like(0.3, 99));
    let instance = collection
        .instances
        .iter()
        .filter(|i| i.pattern.num_nodes() >= 6)
        .max_by_key(|i| i.pattern.num_nodes())
        .expect("collection contains a reasonably sized pattern");
    let target = Arc::new(collection.target_of(instance).clone());
    let pattern = Arc::new(instance.pattern.clone());

    println!(
        "pattern {} nodes / {} edges  —  target {} nodes / {} edges",
        pattern.num_nodes(),
        pattern.num_edges(),
        target.num_nodes(),
        target.num_edges()
    );

    // Domain assignment (label + degree filter + arc consistency).
    let mut domains = Domains::compute(&pattern, &target);
    println!("\nper-pattern-node domain sizes after arc consistency:");
    println!("  {:?}", domains.sizes());
    println!("  total = {}", domains.total_size());

    // Forward checking: singleton domains force removals elsewhere.
    let consistent = domains.forward_check();
    println!("\nafter forward checking (consistent = {consistent}):");
    println!("  {:?}", domains.sizes());
    println!("  total = {}", domains.total_size());

    // The SI ordering prefers small domains when degrees tie.
    let plain = greatest_constraint_first(&pattern, Some(&domains), false);
    let si = greatest_constraint_first(&pattern, Some(&domains), true);
    println!(
        "\nGreatestConstraintFirst order (RI-DS): {:?}",
        plain.positions
    );
    println!("GreatestConstraintFirst order (SI):    {:?}", si.positions);

    // Effect on the search space, through the unified engine.
    println!(
        "\n{:<14} {:>10} {:>12} {:>12}",
        "algorithm", "matches", "states", "total (s)"
    );
    for algorithm in Algorithm::ALL {
        let engine = Engine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
        let result = engine.run(&RunConfig::new(Scheduler::Sequential));
        println!(
            "{:<14} {:>10} {:>12} {:>12.4}",
            algorithm.name(),
            result.matches,
            result.states,
            result.total_seconds()
        );
    }
}
