//! Property tests over the prefetch engines.

use exynos_prefetch::degree::DegreeController;
use exynos_prefetch::reorder::AddressReorderBuffer;
use exynos_prefetch::sms::{SmsConfig, SmsEngine};
use exynos_prefetch::standalone::{StandaloneConfig, StandalonePrefetcher};
use exynos_prefetch::stride::{MultiStrideEngine, StrideConfig};
use exynos_prefetch::twopass::TwoPassController;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The degree always stays within [min, max] under arbitrary
    /// confirm/issue interleavings.
    #[test]
    fn degree_stays_in_bounds(ops in prop::collection::vec(any::<bool>(), 400)) {
        let mut d = DegreeController::new(4, 2, 32);
        for confirm in ops {
            if confirm {
                d.on_confirm();
            } else {
                d.on_issue();
            }
            prop_assert!((2..=32).contains(&d.degree()), "degree {}", d.degree());
        }
    }

    /// The re-order buffer releases exactly the non-duplicate inserted
    /// lines, in sequence order, under any arrival permutation.
    #[test]
    fn reorder_releases_in_order(perm in prop::collection::vec(0usize..64, 64)) {
        // Build a permutation of 0..64 out of the raw vec.
        let mut order: Vec<usize> = (0..64).collect();
        for (i, &swap) in perm.iter().enumerate() {
            order.swap(i % 64, swap);
        }
        let mut buf = AddressReorderBuffer::new(64, 0); // no dup filter
        let mut released = Vec::new();
        let mut out = Vec::new();
        for &seq in &order {
            // Distinct line per sequence number.
            buf.insert_into(seq as u64, 1000 + seq as u64, &mut out);
            released.extend_from_slice(&out);
        }
        prop_assert_eq!(released.len(), 64, "all lines release once all arrive");
        for w in released.windows(2) {
            prop_assert!(w[0] < w[1], "program order preserved: {released:?}");
        }
    }

    /// Stride prefetches always land on the arithmetic lattice of the
    /// generating pattern once locked (no wild addresses).
    #[test]
    fn stride_prefetches_on_lattice(s1 in 1i64..6, r1 in 1u32..3, s2 in 1i64..6, r2 in 1u32..3) {
        let mut e = MultiStrideEngine::new(StrideConfig::m3());
        let pattern: Vec<i64> = std::iter::repeat(s1).take(r1 as usize)
            .chain(std::iter::repeat(s2).take(r2 as usize))
            .collect();
        let period: i64 = pattern.iter().sum();
        // Reachable offsets mod period.
        let mut offsets = vec![0i64];
        for d in &pattern[..pattern.len() - 1] {
            offsets.push(offsets.last().unwrap() + d);
        }
        let base = 1_000_000i64;
        let mut line = base;
        let mut idx = 0usize;
        let mut all = Vec::new();
        let mut out = Vec::new();
        for _ in 0..200 {
            e.on_demand_line_into(line as u64, &mut out);
            all.extend_from_slice(&out);
            line += pattern[idx % pattern.len()];
            idx += 1;
        }
        for p in all {
            let off = (p as i64 - base).rem_euclid(period);
            prop_assert!(offsets.contains(&off), "prefetch {p} off-lattice (off {off})");
        }
    }

    /// The SMS engine only ever prefetches within the 4 KiB region of the
    /// triggering primary load.
    #[test]
    fn sms_prefetches_stay_in_region(
        visits in prop::collection::vec((0u64..512, 0u64..64), 200),
    ) {
        let mut e = SmsEngine::new(SmsConfig::default());
        let mut out = Vec::new();
        for (region, off) in visits {
            let vaddr = region * 4096 + off * 64;
            e.on_demand_miss_into(0x4000, vaddr, false, &mut out);
            for pf in &out {
                prop_assert_eq!(pf.line / 64, region, "prefetch left its region");
            }
        }
    }

    /// The two-pass pending queue never exceeds its depth.
    #[test]
    fn twopass_queue_bounded(ops in prop::collection::vec((0u64..4096, any::<bool>(), 0u64..100), 300)) {
        let mut c = TwoPassController::new(16, 8);
        let mut now = 0u64;
        let mut out = Vec::new();
        for (line, drain, dur) in ops {
            now += 1;
            if drain {
                c.drain_ready_into(now, 4, &mut out);
            } else {
                let _ = c.enqueue(line, false, now + dur);
            }
            prop_assert!(c.pending_len() <= 16);
        }
    }

    /// The standalone prefetcher in low-confidence mode never issues.
    #[test]
    fn standalone_low_mode_is_silent(lines in prop::collection::vec(0u64..100_000, 100)) {
        let mut p = StandalonePrefetcher::new(StandaloneConfig {
            promote_score: i32::MAX, // stay in low confidence forever
            ..Default::default()
        });
        let mut out = Vec::new();
        for l in lines {
            p.on_l2_access_into(l, true, &mut out);
            prop_assert!(out.is_empty(), "low-confidence mode must not issue");
        }
    }
}
