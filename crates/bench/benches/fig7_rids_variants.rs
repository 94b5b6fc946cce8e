//! Criterion bench for Figs. 7/8/9: the sequential RI-DS variants (DS, SI,
//! SI-FC) on one instance per collection, through the unified engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::{Engine, RunConfig};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_fig7(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let mut group = c.benchmark_group("fig7_rids_variants");
    group.sample_size(10);
    for kind in CollectionKind::ALL {
        let coll = collection(kind, &config);
        let instance = coll
            .instances
            .iter()
            .max_by_key(|i| i.pattern.num_edges())
            .expect("non-empty collection");
        let target = Arc::new(coll.target_of(instance).clone());
        let pattern = Arc::new(instance.pattern.clone());
        for algorithm in [Algorithm::RiDs, Algorithm::RiDsSi, Algorithm::RiDsSiFc] {
            let engine = Engine::prepare(Arc::clone(&pattern), Arc::clone(&target), algorithm);
            group.bench_with_input(
                BenchmarkId::new(kind.name(), algorithm.name()),
                &algorithm,
                |b, _| b.iter(|| std::hint::black_box(engine.run(&RunConfig::default()).states)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
