//! Quickstart: prepare a small instance once with the unified [`Engine`],
//! then run it sequentially and in parallel, printing what the paper's
//! evaluation measures for every instance (matches, search-space size,
//! preprocessing vs matching time).
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use sge::graph::generators;
use sge::prelude::*;
use std::sync::Arc;

fn main() {
    // Pattern: an undirected 4-cycle (stored as symmetric directed edges).
    // Target: a 6x6 grid — every unit square hosts 8 embeddings.
    let pattern = Arc::new(generators::undirected_cycle(4, 0));
    let target = Arc::new(generators::grid(6, 6));

    println!(
        "pattern: {} nodes / {} edges",
        pattern.num_nodes(),
        pattern.num_edges()
    );
    println!(
        "target:  {} nodes / {} edges",
        target.num_nodes(),
        target.num_edges()
    );
    println!();

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "algorithm", "matches", "states", "preproc (s)", "match (s)"
    );
    for algorithm in Algorithm::ALL {
        // Preprocessing runs once per algorithm; every scheduler below reuses it.
        let engine = Engine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
        let result = engine.run(&RunConfig::new(Scheduler::Sequential));
        println!(
            "{:<14} {:>10} {:>12} {:>12.6} {:>12.6}",
            algorithm.name(),
            result.matches,
            result.states,
            result.preprocess_seconds,
            result.match_seconds
        );
    }
    println!();

    // The same instance with the paper's parallel scheduler and the
    // rayon-style comparator — one engine, three schedulers.
    let engine = Engine::prepare(
        Arc::clone(&pattern),
        Arc::clone(&target),
        Algorithm::RiDsSiFc,
    );
    for workers in [1usize, 2, 4] {
        let result = engine.run(&RunConfig::new(Scheduler::work_stealing(workers)));
        println!(
            "work-stealing RI-DS-SI-FC, {workers:>2} workers: {} matches, {} states, {} steals, {:.6} s",
            result.matches, result.states, result.steals, result.match_seconds
        );
    }
    let rayon = engine.run(&RunConfig::new(Scheduler::Rayon { workers: 4 }));
    println!(
        "rayon-style   RI-DS-SI-FC,  4 workers: {} matches, {} states, {} steals, {:.6} s",
        rayon.matches, rayon.states, rayon.steals, rayon.match_seconds
    );
}
