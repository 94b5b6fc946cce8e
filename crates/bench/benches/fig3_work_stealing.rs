//! Criterion bench for Fig. 3: the paper's scheduler with and without work
//! stealing on a PPIS32-like instance, through the unified engine.

use criterion::{criterion_group, criterion_main, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_fig3(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let coll = collection(CollectionKind::Ppis32, &config);
    let instance = coll
        .instances
        .iter()
        .max_by_key(|i| i.pattern.num_edges())
        .expect("non-empty collection");
    let target = Arc::new(coll.target_of(instance).clone());
    let engine = Engine::prepare(Arc::new(instance.pattern.clone()), target, Algorithm::RiDs);

    let mut group = c.benchmark_group("fig3_work_stealing");
    group.sample_size(10);
    for (name, steal) in [("no_stealing", false), ("stealing", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let run = RunConfig::new(Scheduler::WorkStealing {
                    workers: 4,
                    task_group_size: 4,
                    stealing: steal,
                });
                std::hint::black_box(engine.run(&run).matches)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
