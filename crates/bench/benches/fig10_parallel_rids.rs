//! Criterion bench for Figs. 10/11/12: parallel RI-DS vs parallel RI-DS-SI-FC
//! vs sequential RI-DS on GRAEMLIN32-like and PPIS32-like instances, through
//! the unified engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sge::{Engine, RunConfig, Scheduler};
use sge_bench::experiments::collection;
use sge_bench::ExperimentConfig;
use sge_datasets::CollectionKind;
use sge_ri::Algorithm;
use std::sync::Arc;

fn bench_fig10(c: &mut Criterion) {
    let config = ExperimentConfig::smoke();
    let mut group = c.benchmark_group("fig10_parallel_rids");
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

        let rids = Engine::prepare(Arc::clone(&pattern), Arc::clone(&target), Algorithm::RiDs);
        let rids_si_fc = Engine::prepare(
            Arc::clone(&pattern),
            Arc::clone(&target),
            Algorithm::RiDsSiFc,
        );

        group.bench_with_input(
            BenchmarkId::new(kind.name(), "sequential_rids"),
            &(),
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(rids.run(&RunConfig::new(Scheduler::Sequential)).matches)
                })
            },
        );
        for (label, engine) in [
            ("parallel_rids", &rids),
            ("parallel_rids_si_fc", &rids_si_fc),
        ] {
            group.bench_with_input(BenchmarkId::new(kind.name(), label), &(), |b, _| {
                b.iter(|| {
                    let run = RunConfig::new(Scheduler::work_stealing(4));
                    std::hint::black_box(engine.run(&run).matches)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
