//! Criterion bench for Table 3: parallel RI-DS-SI-FC across worker counts on
//! GRAEMLIN32-like and PPIS32-like instances, through the unified engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_table3(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let mut group = c.benchmark_group("table3_parallel_ridssifc");
    group.sample_size(10);
    for kind in [CollectionKind::Graemlin32, CollectionKind::Ppis32] {
        let coll = collection(kind, &config);
        let instance = coll
            .instances
            .iter()
            .max_by_key(|i| i.pattern.num_edges())
            .expect("non-empty collection");
        let target = Arc::new(coll.target_of(instance).clone());
        let pattern = Arc::new(instance.pattern.clone());
        let engine = Engine::prepare(
            Arc::clone(&pattern),
            Arc::clone(&target),
            Algorithm::RiDsSiFc,
        );
        for workers in [1usize, 2, 4] {
            group.bench_with_input(BenchmarkId::new(kind.name(), workers), &workers, |b, &w| {
                b.iter(|| {
                    let run = RunConfig::new(Scheduler::work_stealing(w));
                    std::hint::black_box(engine.run(&run).matches)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
