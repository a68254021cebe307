//! Order statistics, the seeded RNG, and the metric-name rules.

/// Samples that must lie beyond a tail percentile before it is reported
/// as that percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Most end-to-end metrics one run may print.
pub const E2E_CAP: usize = 16;

/// Most per-layer metrics one run may print.
pub const LAYER_CAP: usize = 128;

/// Longest metric name.
pub const NAME_MAX: usize = 64;

/// 1-based nearest rank of the `q`-quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile of `v` (any order); NaN when `v` is empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), q) - 1]
}

/// Median (nearest rank, lower middle for an even count).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// How many of `n` samples lie strictly above the nearest-rank
/// `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond the
/// `q`-quantile, so the quantile is measured rather than the maximum.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= TAIL_SAMPLES
}

/// Smallest sample count for which the `q`-quantile is supported.
#[cfg(test)]
pub fn min_samples(q: f64) -> usize {
    (1..100_000)
        .find(|&n| tail_supported(n, q))
        .unwrap_or(usize::MAX)
}

/// Whether `name` is a legal metric name: 1..=64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= NAME_MAX
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent draws
    /// from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples(0.9), 100);
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_name_rule() {
        for ok in ["setup_s", "core.ipc.m1", "a", "9x", "x-y_z.w"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn rng_is_seeded_and_shuffles_a_permutation() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
