//! Warm-start sweeps must be indistinguishable from cold-start sweeps:
//! forking every population job from its warmed state yields
//! bit-identical records to re-running the warmup.

mod common;

use exynos_bench::experiments as exp;
use exynos_trace::standard_suite;

#[test]
fn warm_sweep_matches_cold_sweep_bit_for_bit() {
    let (scale, warmup, detail) = (1, 3_000, 2_000);
    let cold = common::scalar_sweep(&standard_suite(scale), warmup, detail, 2);
    let pool = exp::build_warm_pool(scale, warmup, 2);
    assert_eq!(pool.jobs(), cold.len());
    assert_eq!(pool.warmup(), warmup);
    assert_eq!(pool.scale(), scale);
    let warm = exp::run_population_warm(&pool, detail, 2);
    common::assert_records_eq(&cold, &warm, "warm vs cold");
}
