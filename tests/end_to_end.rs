//! End-to-end pipeline tests: generate a synthetic collection, run every
//! algorithm variant through the unified engine under several schedulers, and
//! check that they all agree with each other and with the independent VF2
//! oracle.

use sge::datasets::{graemlin32_like, pdbsv1_like, ppis32_like, Collection};
use sge::prelude::*;
use std::sync::Arc;

/// Runs every variant on a handful of instances from `collection` and checks
/// agreement.  Instances are capped (`max_edges`, `max_instances`) so the test
/// stays fast in debug builds.
fn check_collection(collection: &Collection, max_edges: usize, max_instances: usize) {
    // Every instance of a target shares one handle to it.
    let targets: Vec<Arc<Graph>> = collection.targets.iter().cloned().map(Arc::new).collect();
    let mut checked = 0usize;
    for instance in &collection.instances {
        if instance.pattern.num_edges() > max_edges {
            continue;
        }
        if checked >= max_instances {
            break;
        }
        checked += 1;
        let pattern = Arc::new(instance.pattern.clone());
        let target = &targets[instance.target_index];

        let oracle = sge::vf2::count_matches(&pattern, target);
        assert!(oracle >= 1, "extracted instance {} must embed", instance.id);

        for algorithm in Algorithm::ALL {
            // One preparation per (instance, algorithm); every scheduler
            // reuses it.
            let engine = Engine::prepare(Arc::clone(&pattern), Arc::clone(target), algorithm);
            let sequential = engine.run(&RunConfig::default());
            assert_eq!(
                sequential.matches, oracle,
                "{algorithm} disagrees with VF2 on {}",
                instance.id
            );

            for scheduler in [
                Scheduler::work_stealing(2),
                Scheduler::work_stealing(4),
                Scheduler::Rayon { workers: 2 },
            ] {
                let outcome = engine.run(&RunConfig::new(scheduler));
                assert_eq!(
                    outcome.matches, oracle,
                    "{scheduler} {algorithm} disagrees on {}",
                    instance.id
                );
                assert_eq!(
                    outcome.states, sequential.states,
                    "{scheduler} {algorithm} explores a different search space on {}",
                    instance.id
                );
            }
        }
    }
    assert!(checked > 0, "no instance satisfied the test filters");
}

#[test]
fn pdbsv1_like_pipeline_agrees() {
    let collection = Collection::generate(&pdbsv1_like(0.15, 31));
    check_collection(&collection, 16, 6);
}

#[test]
fn graemlin32_like_pipeline_agrees() {
    let collection = Collection::generate(&graemlin32_like(0.12, 32));
    check_collection(&collection, 8, 5);
}

#[test]
fn ppis32_like_pipeline_agrees() {
    let collection = Collection::generate(&ppis32_like(0.12, 33));
    check_collection(&collection, 8, 5);
}

#[test]
fn graph_text_format_roundtrip_preserves_match_counts() {
    let collection = Collection::generate(&pdbsv1_like(0.12, 77));
    let instance = &collection.instances[0];
    let target = collection.target_of(instance);

    let target_text = sge::graph::io::write_graph(target);
    let pattern_text = sge::graph::io::write_graph(&instance.pattern);
    // Pattern and target must share one label interner so their label ids stay
    // consistent across the two files.
    let mut interner = std::collections::HashMap::new();
    let target2 = sge::graph::io::parse_graph_with_interner(&target_text, &mut interner)
        .expect("target roundtrip");
    let pattern2 = sge::graph::io::parse_graph_with_interner(&pattern_text, &mut interner)
        .expect("pattern roundtrip");

    let before = Engine::prepare(
        Arc::new(instance.pattern.clone()),
        Arc::new(target.clone()),
        Algorithm::RiDs,
    )
    .count();
    let after = Engine::prepare(Arc::new(pattern2), Arc::new(target2), Algorithm::RiDs).count();
    assert_eq!(before, after);
}

#[test]
fn time_limited_runs_report_consistent_lower_bounds() {
    let collection = Collection::generate(&graemlin32_like(0.2, 55));
    let instance = collection
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .unwrap();
    let target = collection.target_of(instance);
    let engine = Engine::prepare(
        Arc::new(instance.pattern.clone()),
        Arc::new(target.clone()),
        Algorithm::RiDs,
    );
    let limited =
        engine.run(&RunConfig::default().with_time_limit(std::time::Duration::from_millis(5)));
    let full = engine.run(&RunConfig::default());
    assert!(limited.matches <= full.matches);
    assert!(limited.states <= full.states);
}
