//! The batched lockstep engine's hard correctness gate: for every batch
//! width, member mix, fault plan, cache budget and warm-fork shape,
//! stepping N members over one shared decoded stream must produce
//! **byte-equal stats** to each member running alone over its own
//! freshly seeded generator.
//!
//! Stats are compared through their `Debug` rendering of the full
//! [`SliceResult`] — instructions, cycles, IPC/MPKI/latency floats and
//! the embedded frontend/memory stat blocks — so any divergence in any
//! counter fails, not just the three headline floats.

mod common;

use exynos_bench::batch::PopulationBatch;
use exynos_bench::experiments as exp;
use exynos_core::batch::{CachedStream, ChunkCache, CHUNK_LEN};
use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_core::fault::FaultPlan;
use exynos_core::sim::Simulator;
use exynos_trace::{standard_suite, SlicePlan, SliceSpec};
use std::sync::Arc;

/// A stall-injection fault plan: deterministic pipeline perturbation
/// with no error paths, so scalar and batched runs stay comparable.
fn stall_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.stall_every = 257;
    plan.stall_cycles = 9;
    plan
}

/// Build one simulator for generation-index `g` (cycling m1..m6), with
/// or without the stall fault plan attached.
fn member(g: usize, faults: bool) -> Simulator {
    let gens = CoreConfig::all_generations();
    let cfg = gens[g % gens.len()].clone();
    let mut b = SimBuilder::config(cfg);
    if faults {
        b = b.fault_profile(stall_plan());
    }
    match b.build() {
        Ok(sim) => sim,
        Err(e) => panic!("member {g} failed to build: {e}"),
    }
}

/// A cursor over `slice`'s stream through a cache that keeps nothing.
fn zero_budget_stream(slice: &SliceSpec) -> CachedStream {
    CachedStream::for_slice(Arc::new(ChunkCache::with_budget(Some(0))), slice)
}

/// Byte-equal digest of a slice result: the full Debug rendering.
fn digest(r: &exynos_core::sim::SliceResult) -> String {
    format!("{r:?}")
}

/// Scalar reference for one member: a private simulator and a private,
/// freshly seeded generator.
fn scalar_reference(g: usize, faults: bool, slice_idx: usize, plan: SlicePlan) -> String {
    let suite = standard_suite(1);
    let mut sim = member(g, faults);
    let mut gen = suite[slice_idx].build().unwrap();
    digest(&exp::must(sim.run_slice(&mut *gen, plan)))
}

fn assert_width_matches(width: usize, faults: bool, slice_idx: usize, plan: SlicePlan) {
    let suite = standard_suite(1);
    let mut batch = PopulationBatch::new();
    for g in 0..width {
        batch.push(member(g, faults));
    }
    let mut stream = zero_budget_stream(&suite[slice_idx]);
    let results = exp::must(batch.run_slice(&mut stream, plan));
    assert_eq!(results.len(), width);
    for (g, r) in results.iter().enumerate() {
        assert_eq!(
            scalar_reference(g, faults, slice_idx, plan),
            digest(r),
            "width {width} member {g} (faults: {faults}) diverged from scalar"
        );
    }
}

#[test]
fn widths_1_2_7_16_match_scalar() {
    let plan = SlicePlan::new(400, 600);
    for width in [1usize, 2, 7, 16] {
        assert_width_matches(width, false, 0, plan);
    }
}

#[test]
fn widths_match_scalar_under_fault_injection() {
    let plan = SlicePlan::new(400, 600);
    for width in [1usize, 2, 7, 16] {
        assert_width_matches(width, true, 1, plan);
    }
}

#[test]
fn all_six_generations_match_on_every_suite_family() {
    // One slice per suite family keeps the runtime bounded while still
    // covering every generator kind the catalog uses.
    let suite = standard_suite(1);
    let mut seen = Vec::new();
    let plan = SlicePlan::new(300, 500);
    for (idx, slice) in suite.iter().enumerate() {
        if seen.contains(&slice.suite) {
            continue;
        }
        seen.push(slice.suite);
        assert_width_matches(6, false, idx, plan);
    }
}

#[test]
fn batched_population_is_bit_identical_to_scalar_engine() {
    let suite = standard_suite(1);
    let scalar = common::scalar_sweep(&suite, 500, 800, 1);
    let batched = exp::run_suite_batched(&suite, 500, 800, 1);
    common::assert_records_eq(&scalar, &batched, "batched");
}

#[test]
fn warm_batches_forked_from_one_snapshot_match_scalar_forks() {
    let suite = standard_suite(1);
    let slice = &suite[2];
    let warmup = 1_500u64;
    let detail = 900u64;
    // One warmed snapshot, forked into a width-4 batch.
    let image = {
        let mut sim = member(3, false);
        let mut gen = slice.build().unwrap();
        exp::must(sim.run_warmup(&mut *gen, warmup));
        sim.checkpoint()
    };
    let resume = || match Simulator::resume(&image) {
        Ok(sim) => sim,
        Err(e) => panic!("snapshot failed to resume: {e}"),
    };
    let mut batch = PopulationBatch::new();
    for _ in 0..4 {
        batch.push(resume());
    }
    let mut stream = zero_budget_stream(slice);
    stream.skip(warmup);
    let batched = exp::must(batch.run_slice(&mut stream, SlicePlan::new(0, detail)));
    // Scalar forks: each resumes the same image with a private stream.
    for (m, b) in batched.iter().enumerate() {
        let mut sim = resume();
        let mut gen = slice.build().unwrap();
        for _ in 0..warmup {
            let _ = gen.next_inst();
        }
        let scalar = exp::must(sim.run_slice(&mut *gen, SlicePlan::new(0, detail)));
        assert_eq!(digest(&scalar), digest(b), "warm fork member {m} diverged");
    }
}

#[test]
fn warm_population_batched_matches_scalar_warm_and_cold() {
    let (scale, warmup, detail) = (1, 1_000u64, 700u64);
    let pool = exp::build_warm_pool(scale, warmup, 1);
    let cold = common::scalar_sweep(&standard_suite(scale), warmup, detail, 1);
    let warm_scalar = common::scalar_warm_sweep(&pool, detail, 1);
    let warm_batched = exp::run_population_warm(&pool, detail, 1);
    common::assert_records_eq(&cold, &warm_scalar, "warm scalar");
    common::assert_records_eq(&cold, &warm_batched, "warm batched");
}

/// The acceptance gate for program-driven traces: every embedded corpus
/// program, built through the unified `TraceSource` API, must run
/// bit-identically through the scalar and batched lockstep engines
/// across all six generations.
#[test]
fn program_slices_match_scalar_across_all_generations() {
    let slices = match exynos_asm::corpus_slices(SlicePlan::default(), 900) {
        Ok(s) => s,
        Err(e) => panic!("corpus failed to assemble: {e}"),
    };
    assert!(slices.len() >= 8, "corpus smaller than expected: {}", slices.len());
    let plan = SlicePlan::new(400, 800);
    for slice in &slices {
        let mut batch = PopulationBatch::new();
        for g in 0..6 {
            batch.push(member(g, false));
        }
        let mut stream = zero_budget_stream(slice);
        let results = exp::must(batch.run_slice(&mut stream, plan));
        for (g, b) in results.iter().enumerate() {
            let mut sim = member(g, false);
            let mut gen = slice.build().unwrap();
            let scalar = exp::must(sim.run_slice(&mut *gen, plan));
            assert_eq!(digest(&scalar), digest(b), "{} member {g} diverged", slice.name);
        }
    }
}

/// The mixed catalog (synthetic families + program slices) through the
/// production sweep: batched must stay bit-identical to scalar with
/// programs in the population.
#[test]
fn mixed_catalog_batched_matches_scalar() {
    let suite = exp::catalog_suite(1, true);
    assert!(suite.iter().any(|s| s.name.starts_with("program/")), "corpus missing from catalog");
    let scalar = common::scalar_sweep(&suite, 300, 500, 1);
    let batched = exp::run_suite_batched(&suite, 300, 500, 1);
    common::assert_records_eq(&scalar, &batched, "mixed catalog");
}

/// The chunk-cache acceptance matrix: the lockstep engine must be
/// bit-identical to the scalar reference for every cache budget — zero
/// (pure pass-through), one byte (every insert immediately evicted, so
/// chunks rematerialize constantly), exactly one chunk, and unbounded —
/// with all six generations in the batch, with and without fault
/// injection. The plan deliberately crosses a canonical chunk boundary
/// so block splits at the chunk edge and at the warmup/detail boundary
/// are both exercised.
#[test]
fn cached_budgets_match_scalar() {
    let chunk_bytes = (CHUNK_LEN * std::mem::size_of::<exynos_trace::Inst>()) as u64;
    let suite = standard_suite(1);
    let slice_idx = 0;
    let plan = SlicePlan::new(6_000, 4_000); // total 10k > CHUNK_LEN=8192
    for faults in [false, true] {
        let refs: Vec<String> =
            (0..6).map(|g| scalar_reference(g, faults, slice_idx, plan)).collect();
        for budget in [Some(0), Some(1), Some(chunk_bytes), None] {
            let cache = Arc::new(ChunkCache::with_budget(budget));
            let mut batch = PopulationBatch::new();
            for g in 0..6 {
                batch.push(member(g, faults));
            }
            let mut stream = CachedStream::for_slice(Arc::clone(&cache), &suite[slice_idx]);
            let results = exp::must(batch.run_slice(&mut stream, plan));
            for (g, r) in results.iter().enumerate() {
                assert_eq!(
                    refs[g],
                    digest(r),
                    "member {g} diverged (faults {faults}, budget {budget:?})"
                );
            }
            let stats = cache.stats();
            if budget == Some(1) {
                assert!(stats.evictions > 0, "1-byte budget must evict: {stats:?}");
            }
            if budget == Some(0) {
                assert_eq!(stats.bytes, 0, "zero budget must hold nothing: {stats:?}");
            }
        }
    }

    // A warmup that ends mid-chunk: the straddling chunk is read once
    // and split in place, so a zero-budget run of 30k records misses
    // exactly once per canonical chunk it touches.
    let plan = SlicePlan::new(10_000, 20_000);
    let cache = Arc::new(ChunkCache::with_budget(Some(0)));
    let mut batch = PopulationBatch::new();
    for g in 0..6 {
        batch.push(member(g, false));
    }
    let mut stream = CachedStream::for_slice(Arc::clone(&cache), &suite[slice_idx]);
    let results = exp::must(batch.run_slice(&mut stream, plan));
    for (g, r) in results.iter().enumerate() {
        assert_eq!(scalar_reference(g, false, slice_idx, plan), digest(r), "member {g} diverged");
    }
    let chunks = plan.total().div_ceil(CHUNK_LEN as u64);
    assert_eq!(chunks, 4);
    assert_eq!(cache.stats().misses, chunks, "each chunk materialized once: {:?}", cache.stats());
}

/// With the telemetry feature on, an instrumented scalar run must still
/// match the (uninstrumented) batched path — sampling is observation,
/// not perturbation.
#[cfg(feature = "telemetry")]
#[test]
fn telemetry_instrumented_scalar_matches_batched() {
    use exynos_telemetry::{Telemetry, TelemetryConfig};
    let suite = standard_suite(1);
    let slice = &suite[0];
    let plan = SlicePlan::new(400, 600);
    let mut batch = PopulationBatch::new();
    for g in 0..6 {
        batch.push(member(g, false));
    }
    let mut stream = CachedStream::for_slice(Arc::new(ChunkCache::unbounded()), slice);
    let batched = exp::must(batch.run_slice(&mut stream, plan));
    for (g, b) in batched.iter().enumerate() {
        let mut sim = member(g, false);
        let mut gen = slice.build().unwrap();
        let mut tel = Telemetry::new(TelemetryConfig { epoch_len: 250, event_capacity: 1 << 12 });
        let scalar = exp::must(sim.run_slice_with(&mut *gen, plan, &mut tel));
        assert_eq!(digest(&scalar), digest(b), "instrumented member {g} diverged");
    }
}
