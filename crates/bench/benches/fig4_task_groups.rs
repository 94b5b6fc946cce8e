//! Criterion bench for Fig. 4: the task-group (coalescing) size sweep,
//! through the unified engine (one preparation, many group sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_fig4(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let coll = collection(CollectionKind::Graemlin32, &config);
    let instance = coll
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .expect("non-empty collection");
    let target = Arc::new(coll.target_of(instance).clone());
    let engine = Engine::prepare(Arc::new(instance.pattern.clone()), target, Algorithm::RiDs);

    let mut group = c.benchmark_group("fig4_task_groups");
    group.sample_size(10);
    for group_size in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(group_size),
            &group_size,
            |b, &size| {
                b.iter(|| {
                    let run = RunConfig::new(Scheduler::WorkStealing {
                        workers: 4,
                        task_group_size: size,
                        stealing: true,
                    });
                    std::hint::black_box(engine.run(&run).matches)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
