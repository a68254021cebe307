//! Behaviour gate: one committed digest over the quick population's
//! results.
//!
//! The synthetic standard suite at scale 1 plus every embedded `asm/`
//! program runs across M1–M6 through the production batched sweep at
//! small windows, and each record's `(name, gen, ipc, mpki,
//! load_latency)` — floats by their exact bit patterns — is folded into
//! one FNV-1a/128 digest. A refactor or speed change must leave
//! [`RESULTS_DIGEST`] untouched. A model change that moves it updates
//! the constant and says, in CHANGES.md, which behaviour moved and why.

use exynos_bench::experiments as exp;
use exynos_trace::fingerprint::FingerprintHasher;

/// Warmup and detail windows: small enough for a debug-build test run,
/// long enough that every predictor, cache and prefetcher trains.
const WARMUP: u64 = 5_000;
const DETAIL: u64 = 5_000;

/// The digest of the quick population at [`WARMUP`]/[`DETAIL`].
const RESULTS_DIGEST: &str = "a6f0fe16d23c812bffcc677f1e53521f";

#[test]
fn quick_population_results_match_the_committed_digest() {
    let suite = exp::catalog_suite(1, true);
    assert!(
        suite.iter().any(|s| s.name.starts_with("program/")),
        "the asm corpus must be part of the digest"
    );
    let records = exp::run_suite_batched(&suite, WARMUP, DETAIL, 2);
    assert_eq!(
        records.len(),
        suite.len() * 6,
        "one record per slice and generation"
    );
    let mut h = FingerprintHasher::new();
    for r in &records {
        h.write_str(&r.name);
        h.write_str(r.gen);
        h.write_u64(r.ipc.to_bits());
        h.write_u64(r.mpki.to_bits());
        h.write_u64(r.load_latency.to_bits());
    }
    assert_eq!(
        h.finish().to_string(),
        RESULTS_DIGEST,
        "simulated results moved: a behaviour change must update the digest and say why"
    );
}
