//! Criterion bench of the raw `Simulator::step` hot path: instructions
//! stepped per second on M3 and M6, with no slice-plan bookkeeping around
//! it — the number the step-loop optimizations move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::standard_suite;

const STEPS: u64 = 20_000;

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(STEPS));
    let suite = standard_suite(1);
    let slice = suite
        .iter()
        .find(|s| s.name.starts_with("specint/"))
        .expect("standard suite has a specint slice");
    for cfg in [CoreConfig::m3(), CoreConfig::m6()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cfg.gen.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
                    let mut gen = slice.build().unwrap();
                    let mut last = 0;
                    for _ in 0..STEPS {
                        let inst = gen.next_inst();
                        last = sim.step(&inst).expect("clean bench step");
                    }
                    last
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
