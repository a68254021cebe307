//! The correctness gate: bit-exact checks against the scalar oracle and
//! the results digest that lets two commits compare exactly.

use crate::adapter::{self, SliceRecord};
use crate::stats::Rng;
use exynos_core::{CoreConfig, SimBuilder, SimError};
use exynos_trace::{Fingerprint, FingerprintHasher, SlicePlan, SliceSpec};

/// FNV-1a/128 digest of sweep records: names, generations and the bit
/// patterns of IPC, MPKI and load latency, in order.
pub fn digest_records(records: &[SliceRecord]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    for r in records {
        h.write_str(&r.name);
        h.write_str(r.gen);
        h.write_u64(r.ipc.to_bits());
        h.write_u64(r.mpki.to_bits());
        h.write_u64(r.load_latency.to_bits());
    }
    h.finish()
}

/// FNV-1a/128 digest of `(label, text)` pairs in order.
pub fn digest_texts<'a>(items: impl IntoIterator<Item = (&'a str, &'a str)>) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    for (label, text) in items {
        h.write_str(label);
        h.write_str(text);
    }
    h.finish()
}

/// Whether two records agree bit for bit.
pub fn same_record(a: &SliceRecord, b: &SliceRecord) -> bool {
    a.name == b.name
        && a.gen == b.gen
        && a.ipc.to_bits() == b.ipc.to_bits()
        && a.mpki.to_bits() == b.mpki.to_bits()
        && a.load_latency.to_bits() == b.load_latency.to_bits()
}

/// Slice groups (indices into the suite) whose records differ between
/// two sweeps of the same suite. Records are generation-major.
pub fn differing_groups(a: &[SliceRecord], b: &[SliceRecord], per_gen: usize) -> Vec<usize> {
    if a.len() != b.len() || per_gen == 0 {
        return (0..per_gen).collect();
    }
    let mut out: Vec<usize> = (0..a.len())
        .filter(|&i| !same_record(&a[i], &b[i]))
        .map(|i| i % per_gen)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// One (generation, slice) job re-simulated through the scalar
/// `Simulator::run_slice` path.
pub fn oracle(
    cfg: &CoreConfig,
    slice: &SliceSpec,
    warmup: u64,
    detail: u64,
) -> Result<SliceRecord, SimError> {
    let mut sim = SimBuilder::config(cfg.clone()).build()?;
    let mut gen = slice.build()?;
    let r = sim.run_slice(&mut *gen, SlicePlan::new(warmup, detail))?;
    Ok(SliceRecord {
        name: slice.name.clone(),
        gen: cfg.gen.name(),
        ipc: r.ipc,
        mpki: r.mpki,
        load_latency: r.avg_load_latency,
    })
}

/// `k` distinct seed-chosen record indices among `n` records.
pub fn sample_indices(seed: u64, stream: u64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut all);
    all.truncate(k.min(n));
    all
}

/// Re-simulate the records at `picks` through the oracle and describe
/// every record that differs.
pub fn check_oracle(
    records: &[SliceRecord],
    suite: &[SliceSpec],
    (warmup, detail): (u64, u64),
    picks: &[usize],
    threads: usize,
) -> Vec<String> {
    let gens = CoreConfig::all_generations();
    let per_gen = suite.len();
    let checks = adapter::run_indexed(picks.len(), threads, |k| {
        let i = picks[k];
        let (cfg, slice) = (&gens[i / per_gen], &suite[i % per_gen]);
        match (oracle(cfg, slice, warmup, detail), records.get(i)) {
            (Ok(want), Some(got)) if same_record(&want, got) => None,
            (Ok(want), got) => Some(format!(
                "{}/{}: oracle {want:?}, sweep {got:?}",
                slice.name,
                cfg.gen.name()
            )),
            (Err(e), _) => Some(format!(
                "{}/{}: oracle failed: {e}",
                slice.name,
                cfg.gen.name()
            )),
        }
    });
    checks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, ipc: f64) -> SliceRecord {
        SliceRecord {
            name: name.to_owned(),
            gen: "M1",
            ipc,
            mpki: 1.0,
            load_latency: 4.0,
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = vec![rec("x", 1.0), rec("y", 2.0)];
        let mut b = a.clone();
        assert_eq!(digest_records(&a), digest_records(&b));
        b[1].ipc = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(digest_records(&a), digest_records(&b));
        assert_eq!(differing_groups(&a, &b, 2), vec![1]);
        assert!(differing_groups(&a, &a, 2).is_empty());
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let s = sample_indices(5, 1, 30, 8);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        assert_eq!(s, sample_indices(5, 1, 30, 8));
        assert_eq!(sample_indices(5, 1, 3, 8).len(), 3);
    }
}
