//! Criterion bench for Table 2: parallel RI on a PDBSv1-like instance across
//! worker counts.  The instance is prepared once with [`Engine::prepare`];
//! the timed region is pure matching, as in the paper's speedup tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_table2(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let coll = collection(CollectionKind::PdbsV1, &config);
    let instance = coll
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .expect("non-empty collection");
    let target = Arc::new(coll.target_of(instance).clone());
    let engine = Engine::prepare(Arc::new(instance.pattern.clone()), target, Algorithm::Ri);

    let mut group = c.benchmark_group("table2_parallel_ri");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let run = RunConfig::new(Scheduler::work_stealing(w));
                std::hint::black_box(engine.run(&run).matches)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
