//! Property tests over the branch-prediction structures.

use exynos_branch::btb::{BtbConfig, BtbEntry, BtbHierarchy};
use exynos_branch::config::FrontendConfig;
use exynos_branch::frontend::FrontEnd;
use exynos_branch::ras::Ras;
use exynos_branch::shp::{apply_bias_delta, Shp, ShpConfig, WEIGHT_MAX, WEIGHT_MIN};
use exynos_secure::context::{compute_context_hash, ContextId, EntropySources};
use exynos_trace::gen::web::{WebParams, WebWorkload};
use exynos_trace::{BranchKind, TraceGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SHP predictions stay within the mathematically possible sum range
    /// and bias deltas never overflow, under arbitrary training.
    #[test]
    fn shp_sum_bounded_under_random_training(
        outcomes in prop::collection::vec(any::<bool>(), 200),
        pcs in prop::collection::vec(0u64..4096, 200),
    ) {
        let mut shp = Shp::new(ShpConfig::m1());
        let h = shp.new_history();
        let mut bias = 0i8;
        let bound = 2 * 127 + 8 * 127; // bias_scale*|bias|max + tables*|w|max
        for (t, pc) in outcomes.iter().zip(&pcs) {
            let pred = shp.predict(*pc * 4, bias, &h);
            prop_assert!(pred.sum.abs() <= bound, "sum {} out of range", pred.sum);
            let d = shp.update(&pred, *t, false);
            bias = apply_bias_delta(bias, d);
            prop_assert!((WEIGHT_MIN..=WEIGHT_MAX).contains(&(bias as i32)));
        }
    }

    /// A RAS with capacity >= depth of nesting behaves exactly like a
    /// software stack (LIFO), including across arbitrary push/pop mixes.
    #[test]
    fn ras_matches_reference_stack(ops in prop::collection::vec(any::<Option<u16>>(), 120)) {
        let sources = EntropySources::from_seed(5);
        let key = compute_context_hash(&sources, ContextId::user(1, 0));
        let mut ras = Ras::new(256, key);
        let mut reference: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(addr) => {
                    let a = addr as u64 * 4;
                    ras.push(a);
                    reference.push(a);
                }
                None => {
                    let got = ras.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(ras.depth(), reference.len());
        prop_assert_eq!(ras.stats().overflows, 0);
    }

    /// The BTB hierarchy never stores duplicate PCs within a level and its
    /// occupancy never exceeds the configured capacities.
    #[test]
    fn btb_occupancy_bounded(pcs in prop::collection::vec(0u64..100_000, 400)) {
        let cfg = BtbConfig {
            mbtb_lines: 32,
            mbtb_ways: 4,
            vbtb_entries: 32,
            vbtb_ways: 4,
            l2btb_entries: 256,
            l2btb_ways: 4,
            l2_fill_latency: 4,
            l2_fill_bandwidth: 1,
        };
        let mut b = BtbHierarchy::new(cfg);
        for pc in pcs {
            let pc = pc * 4;
            let _ = b.lookup(pc);
            b.install(BtbEntry::discover(pc, pc + 64, BranchKind::CondDirect, true));
            let (m, v, l2) = b.occupancy();
            prop_assert!(m <= 32 * 8, "mBTB overflow: {m}");
            prop_assert!(v <= 32, "vBTB overflow: {v}");
            prop_assert!(l2 <= 256, "L2BTB overflow: {l2}");
        }
    }

    /// After installing a branch, looking it up immediately returns the
    /// installed target (through any level).
    #[test]
    fn btb_install_then_lookup(pcs in prop::collection::vec(0u64..10_000, 100)) {
        let cfg = BtbConfig {
            mbtb_lines: 64,
            mbtb_ways: 4,
            vbtb_entries: 64,
            vbtb_ways: 4,
            l2btb_entries: 1024,
            l2btb_ways: 4,
            l2_fill_latency: 4,
            l2_fill_bandwidth: 1,
        };
        let mut b = BtbHierarchy::new(cfg);
        for pc in &pcs {
            let pc = pc * 4;
            b.install(BtbEntry::discover(pc, pc ^ 0xF00, BranchKind::CondDirect, true));
            let got = b.lookup(pc).unwrap();
            prop_assert!(got.is_some(), "freshly installed branch must be found");
            prop_assert_eq!(got.unwrap().0.target, pc ^ 0xF00);
        }
    }

    /// The assembled front end never panics and keeps its statistics
    /// internally consistent on arbitrary web workloads.
    #[test]
    fn frontend_stats_consistent(seed in 0u64..500, functions in 3usize..60) {
        let mut fe = FrontEnd::new(FrontendConfig::m5());
        let mut gen = WebWorkload::new(
            &WebParams {
                functions,
                dispatch_targets: (functions - 1).min(8),
                ..Default::default()
            },
            30,
            seed,
        );
        for _ in 0..5_000 {
            let inst = gen.next_inst();
            let _ = fe.on_inst(&inst);
        }
        let s = fe.stats();
        prop_assert!(s.branches <= s.instructions);
        prop_assert!(s.cond_branches <= s.branches);
        prop_assert!(s.taken_branches <= s.branches);
        prop_assert!(s.cond_mispredicts <= s.cond_branches);
        prop_assert!(s.total_mispredicts() <= s.branches + s.discoveries);
        prop_assert!(s.mpki() >= 0.0 && s.mpki() <= 1000.0);
    }
}
