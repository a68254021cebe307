//! The one seam between the benchmark and `exynos-bench`.
//!
//! Every call into the `exynos-bench` crate goes through this module, so
//! when its sweep entry points are renamed or merged into one engine only
//! this file changes. The timed (untraced) workloads call nothing else
//! of that crate.

use exynos_bench::experiments;
use exynos_trace::SliceSpec;

pub use exynos_bench::experiments::{SliceRecord, WarmPool, PROGRAM_REGION_BASE};
pub use exynos_bench::service_runner::BenchRunner;

/// A cold population sweep of `suite` across M1-M6 through the
/// production batched lockstep engine, on `threads` workers. Records are
/// generation-major, slice-minor.
pub fn cold_sweep(
    suite: &[SliceSpec],
    warmup: u64,
    detail: u64,
    threads: usize,
) -> Vec<SliceRecord> {
    experiments::run_suite_batched(suite, warmup, detail, threads)
}

/// Warm every (generation, slice) job of the standard suite at `scale`
/// for `warmup` instructions and keep the warmed states resident.
pub fn build_pool(scale: usize, warmup: u64, threads: usize) -> WarmPool {
    experiments::build_warm_pool(scale, warmup, threads)
}

/// A sweep forked from `pool`, measuring `detail` instructions per job.
pub fn warm_sweep(pool: &WarmPool, detail: u64, threads: usize) -> Vec<SliceRecord> {
    experiments::run_population_warm(pool, detail, threads)
}

/// The service tier's job runner, building shared pools on `threads`.
pub fn runner(threads: usize) -> BenchRunner {
    BenchRunner::new(threads)
}

/// The work-stealing executor: `job(i)` for every `i < jobs`, results in
/// index order.
pub fn run_indexed<T: Send>(
    jobs: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    exynos_bench::sweep::run_indexed(jobs, threads, job)
}

/// Job `i`'s warmed simulator, forked from the pool by clone.
pub fn fork(pool: &WarmPool, i: usize) -> exynos_core::Simulator {
    pool.resident(i)
}

/// Job `i`'s checkpoint image in the pool.
pub fn pool_image(pool: &WarmPool, i: usize) -> &[u8] {
    pool.image(i)
}

/// `(jobs, image bytes, warmup)` of a pool.
pub fn pool_shape(pool: &WarmPool) -> (usize, usize, u64) {
    (pool.jobs(), pool.bytes(), pool.warmup())
}
