//! Criterion benches of the whole simulator: instructions simulated per
//! second per generation (the tool a user sizes their experiments with).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{standard_suite, SlicePlan};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_slice");
    group.sample_size(10);
    group.throughput(Throughput::Elements(10_000));
    let suite = standard_suite(1);
    let slice = suite.iter().find(|s| s.name.starts_with("mobile/")).unwrap();
    for cfg in [CoreConfig::m1(), CoreConfig::m3(), CoreConfig::m6()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cfg.gen.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
                    let mut gen = slice.build().unwrap();
                    sim.run_slice(&mut *gen, SlicePlan::new(1_000, 10_000))
                        .expect("clean bench slice")
                        .ipc
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
