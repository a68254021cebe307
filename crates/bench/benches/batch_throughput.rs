//! Criterion bench of the batched lockstep engine: population-steps per
//! second at batch widths 1, 4 and 16 versus the scalar per-member loop
//! over the same total work. The batched path decodes each trace chunk
//! once per group (through a zero-budget chunk cache, as production
//! sweeps do); the scalar path regenerates it once per member — the gap
//! between the two curves is exactly the amortized generation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exynos_bench::batch::PopulationBatch;
use exynos_core::batch::{CachedStream, ChunkCache};
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_trace::{standard_suite, SlicePlan};
use std::sync::Arc;

const PLAN: SlicePlan = SlicePlan { warmup: 2_000, detail: 2_000 };

fn members(width: usize) -> Vec<exynos_core::sim::Simulator> {
    let gens = CoreConfig::all_generations();
    (0..width)
        .map(|g| {
            SimBuilder::config(gens[g % gens.len()].clone())
                .build()
                .expect("bench member builds")
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    let suite = standard_suite(1);
    let slice = &suite[0];
    for width in [1usize, 4, 16] {
        // Total simulator steps performed per iteration, either way.
        group.throughput(Throughput::Elements(PLAN.total() * width as u64));
        group.bench_with_input(BenchmarkId::new("scalar", width), &width, |b, &width| {
            b.iter(|| {
                let mut last = 0u64;
                for mut sim in members(width) {
                    let mut gen = slice.build().unwrap();
                    let r = sim.run_slice(&mut *gen, PLAN).expect("clean bench slice");
                    last = r.instructions;
                }
                last
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", width), &width, |b, &width| {
            b.iter(|| {
                let mut batch = PopulationBatch::new();
                for sim in members(width) {
                    batch.push(sim);
                }
                let cache = Arc::new(ChunkCache::with_budget(Some(0)));
                let mut stream = CachedStream::for_slice(cache, slice);
                let r = batch.run_slice(&mut stream, PLAN).expect("clean bench slice");
                r.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
