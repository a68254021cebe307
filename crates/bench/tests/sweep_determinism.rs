//! The production sweep must be a pure scheduling change: for any thread
//! count, `run_suite_batched` must return exactly the records of the
//! scalar per-(generation, slice) oracle — same catalog order, and every
//! float identical to the bit.

mod common;

use exynos_bench::experiments::run_suite_batched;
use exynos_trace::standard_suite;

/// Small windows keep the debug-build run fast; determinism does not
/// depend on the window sizes.
const WARMUP: u64 = 500;
const DETAIL: u64 = 2_000;

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let suite = standard_suite(1);
    let oracle = common::scalar_sweep(&suite, WARMUP, DETAIL, 1);
    assert!(!oracle.is_empty(), "reference sweep produced no records");
    for threads in [1usize, 2, 8] {
        let batched = run_suite_batched(&suite, WARMUP, DETAIL, threads);
        common::assert_records_eq(&oracle, &batched, &format!("{threads} threads"));
    }
}
