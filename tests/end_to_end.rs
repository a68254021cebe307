//! End-to-end integration tests spanning every crate through the facade.

use exynos::core::builder::SimBuilder;
use exynos::core::config::CoreConfig;
use exynos::secure::context::ContextId;
use exynos::trace::gen::web::{WebParams, WebWorkload};
use exynos::trace::{standard_suite, SlicePlan, SuiteKind};

#[test]
fn whole_suite_smoke_on_m1_and_m6() {
    // Every catalog slice must simulate without panicking and produce
    // sane metrics on the first and last generations.
    for cfg in [CoreConfig::m1(), CoreConfig::m6()] {
        for slice in standard_suite(1) {
            let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
            let mut gen = slice.build().unwrap();
            let r = sim.run_slice(&mut *gen, SlicePlan::new(1_000, 6_000)).unwrap();
            assert!(r.ipc > 0.0 && r.ipc <= cfg.width as f64 + 1e-9,
                "{} on {}: ipc {}", slice.name, cfg.gen, r.ipc);
            assert!(r.mpki >= 0.0 && r.mpki < 300.0, "{}: mpki {}", slice.name, r.mpki);
            assert!(r.avg_load_latency < 2_000.0,
                "{} on {}: lat {}", slice.name, cfg.gen, r.avg_load_latency);
        }
    }
}

#[test]
fn all_suite_kinds_have_distinct_behaviour_profiles() {
    // Loop kernels must be clearly higher-IPC than pointer chases on the
    // same generation — the left/right split of Fig. 17.
    let suite = standard_suite(1);
    let run = |kind: SuiteKind| -> f64 {
        let slice = suite.iter().find(|s| s.suite == kind).unwrap();
        let mut sim = SimBuilder::config(CoreConfig::m3()).build().unwrap();
        let mut gen = slice.build().unwrap();
        sim.run_slice(&mut *gen, SlicePlan::new(2_000, 12_000)).unwrap().ipc
    };
    let fp = run(SuiteKind::SpecFpLike);
    let game = run(SuiteKind::GameLike);
    assert!(fp > 2.0, "loop kernels are high-IPC: {fp}");
    assert!(game < fp, "irregular workloads sit below kernels: {game} vs {fp}");
}

#[test]
fn context_switch_scrambles_predictor_state_end_to_end() {
    // Train a web workload under one context, switch contexts (new
    // CONTEXT_HASH), and confirm return/indirect mispredicts spike — the
    // §V property observed through the full simulator.
    let mk = || WebWorkload::new(&WebParams::default(), 60, 3);
    let mut sim = SimBuilder::config(CoreConfig::m4()).build().unwrap(); // M4 productized CSV2
    let mut gen = mk();
    sim.run_slice(&mut gen, SlicePlan::new(0, 60_000)).unwrap();
    let before = sim.frontend().stats().return_mispredicts
        + sim.frontend().stats().indirect_mispredicts;
    // Context switch: same code, new ASID.
    sim.frontend_mut().set_context(ContextId::user(99, 0));
    sim.run_slice(&mut gen, SlicePlan::new(0, 20_000)).unwrap();
    let after = sim.frontend().stats().return_mispredicts
        + sim.frontend().stats().indirect_mispredicts;
    assert!(
        after > before,
        "stale encrypted targets must mispredict after a context switch"
    );
}

#[test]
fn mpki_and_ipc_improve_together_on_branchy_code() {
    // Fig. 9 (MPKI down) and Fig. 17 (IPC up) on the same workload.
    let suite = standard_suite(1);
    // mk2: 128 branch sites, 16-deep patterns, 5% noise — learnable but
    // not trivial, so generational predictor growth shows.
    let slice = suite
        .iter()
        .find(|s| s.name.starts_with("specint/mk2"))
        .unwrap();
    let run = |cfg: CoreConfig| {
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut gen = slice.build().unwrap();
        let r = sim.run_slice(&mut *gen, SlicePlan::new(4_000, 25_000)).unwrap();
        (r.mpki, r.ipc)
    };
    let (mpki1, ipc1) = run(CoreConfig::m1());
    let (mpki6, ipc6) = run(CoreConfig::m6());
    assert!(mpki6 < mpki1, "MPKI: {mpki1:.2} -> {mpki6:.2}");
    assert!(ipc6 > ipc1, "IPC: {ipc1:.2} -> {ipc6:.2}");
}

#[test]
fn facade_reexports_are_usable() {
    // The top-level re-exports compile and agree with the module paths.
    let cfg: exynos::CoreConfig = exynos::CoreConfig::m2();
    assert_eq!(cfg.gen, exynos::Generation::M2);
    let plan: exynos::SlicePlan = exynos::SlicePlan::default();
    assert_eq!(plan.detail, 200_000);
    assert!(exynos::standard_suite(1).len() >= 20);
}
