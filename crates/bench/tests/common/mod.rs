//! Scalar oracles the sweep engine is tested against.
//!
//! Production sweeps run every slice as one lockstep group over a shared
//! stream (`PopulationBatch::run_slice`). These references take the
//! slowest, most direct route instead: every (generation, slice) pair
//! builds its own simulator and its own freshly seeded generator and
//! runs `Simulator::run_slice`, and the warm reference resumes each job
//! from its checkpoint *image* (the snapshot codec) rather than cloning
//! the pool's resident state.

// Each test binary includes this module and uses a subset of it.
#![allow(dead_code)]

use exynos_bench::experiments::{must, SliceRecord, WarmPool};
use exynos_bench::sweep;
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_core::sim::{Simulator, SliceResult};
use exynos_trace::{standard_suite, SlicePlan, SliceSpec};

/// Compare two record sets for bit-identity, naming the first mismatch.
pub fn assert_records_eq(want: &[SliceRecord], got: &[SliceRecord], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: record count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        let at = format!("{label}: record {i} ({}/{})", a.name, a.gen);
        assert_eq!(a.name, b.name, "{at} out of order");
        assert_eq!(a.gen, b.gen, "{at} generation mismatch");
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{at} ipc {} vs {}", a.ipc, b.ipc);
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits(), "{at} mpki {} vs {}", a.mpki, b.mpki);
        assert_eq!(
            a.load_latency.to_bits(),
            b.load_latency.to_bits(),
            "{at} load latency {} vs {}",
            a.load_latency,
            b.load_latency
        );
    }
}

fn record(slice: &SliceSpec, cfg: &CoreConfig, r: &SliceResult) -> SliceRecord {
    SliceRecord {
        name: slice.name.clone(),
        gen: cfg.gen.name(),
        ipc: r.ipc,
        mpki: r.mpki,
        load_latency: r.avg_load_latency,
    }
}

/// The scalar cold sweep: one independent `Simulator::run_slice` job per
/// (generation, slice), in catalog order (generation-major,
/// slice-minor).
pub fn scalar_sweep(
    suite: &[SliceSpec],
    warmup: u64,
    detail: u64,
    threads: usize,
) -> Vec<SliceRecord> {
    let gens = CoreConfig::all_generations();
    let per_gen = suite.len();
    sweep::run_indexed(gens.len() * per_gen, threads, |i| {
        let cfg = &gens[i / per_gen];
        let slice = &suite[i % per_gen];
        let mut sim = must(SimBuilder::config(cfg.clone()).build());
        let mut gen = slice.build().unwrap();
        record(slice, cfg, &must(sim.run_slice(&mut *gen, SlicePlan::new(warmup, detail))))
    })
}

/// The scalar warm sweep: every (generation, slice) job resumes its own
/// checkpoint image from `pool` and fast-forwards its own generator past
/// the pool's warmup before measuring `detail` instructions.
pub fn scalar_warm_sweep(pool: &WarmPool, detail: u64, threads: usize) -> Vec<SliceRecord> {
    let suite = standard_suite(pool.scale());
    let gens = CoreConfig::all_generations();
    let per_gen = suite.len();
    sweep::run_indexed(gens.len() * per_gen, threads, |i| {
        let cfg = &gens[i / per_gen];
        let slice = &suite[i % per_gen];
        let mut sim = match Simulator::resume_with_config(cfg.clone(), pool.image(i)) {
            Ok(sim) => sim,
            Err(e) => panic!("warm pool image {i} failed to resume: {e}"),
        };
        assert_eq!(sim.stats().instructions, pool.warmup(), "image {i} warmup");
        let mut gen = slice.build().unwrap();
        for _ in 0..pool.warmup() {
            let _ = gen.next_inst();
        }
        record(slice, cfg, &must(sim.run_slice(&mut *gen, SlicePlan::new(0, detail))))
    })
}
