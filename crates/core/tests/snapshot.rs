//! The checkpoint/resume hard invariant: resuming a checkpoint taken at
//! instruction N and running to M is bit-identical to a straight run to
//! M — for every generation, with and without fault injection. Verified
//! at the strongest level available: the final re-encoded checkpoint
//! images of the two simulators must be byte-equal, which covers every
//! predictor table, cache tag, prefetcher stream, and counter at once.

use exynos_core::builder::SimBuilder;
use exynos_core::config::CoreConfig;
use exynos_core::error::SimError;
use exynos_core::fault::FaultPlan;
use exynos_core::sim::Simulator;
use exynos_trace::{standard_suite, SlicePlan, TraceGen};

/// Consume `n` instructions from `g` without simulating them (generator
/// fast-forward for the resumed half of the invariant).
fn fast_forward(g: &mut dyn TraceGen, n: u64) {
    for _ in 0..n {
        let _ = g.next_inst();
    }
}

/// Run the invariant for one configuration: warmup + checkpoint + detail
/// vs straight warmup + detail, comparing final checkpoint images.
fn assert_resume_invariant(cfg: CoreConfig, warmup: u64, detail: u64, fault: Option<FaultPlan>) {
    let slice = &standard_suite(1)[3];

    // Straight run to warmup + detail.
    let mut straight = SimBuilder::config(cfg.clone()).build().unwrap();
    if let Some(plan) = fault {
        straight.attach_fault_injector(plan);
    }
    let mut g = slice.build().unwrap();
    straight
        .run_slice(&mut *g, SlicePlan::new(warmup, detail))
        .unwrap();

    // Checkpoint at warmup, resume, run the detail window.
    let mut warm = SimBuilder::config(cfg.clone()).build().unwrap();
    if let Some(plan) = fault {
        warm.attach_fault_injector(plan);
    }
    let mut g = slice.build().unwrap();
    warm.run_warmup(&mut *g, warmup).unwrap();
    let image = warm.checkpoint();
    drop(warm);

    let mut resumed = Simulator::resume_with_config(cfg, &image).unwrap();
    let mut g = slice.build().unwrap();
    fast_forward(&mut *g, resumed.stats().instructions);
    resumed
        .run_slice(&mut *g, SlicePlan::new(0, detail))
        .unwrap();

    let a = straight.checkpoint();
    let b = resumed.checkpoint();
    assert_eq!(
        a.len(),
        b.len(),
        "checkpoint image size diverged after resume"
    );
    assert!(a == b, "resumed run diverged from the straight run");
    // Spot-check the headline counters too, for a readable failure mode.
    assert_eq!(straight.stats().instructions, resumed.stats().instructions);
    assert_eq!(straight.stats().last_retire, resumed.stats().last_retire);
}

#[test]
fn resume_is_bit_identical_for_all_generations() {
    for cfg in CoreConfig::all_generations() {
        assert_resume_invariant(cfg, 8_000, 12_000, None);
    }
}

#[test]
fn resume_is_bit_identical_with_random_warmups_and_faults() {
    // Deterministic pseudo-random warmup lengths (splitmix-style walk),
    // alternating fault injection on/off across the cases.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let configs = CoreConfig::all_generations();
    for (i, cfg) in configs.into_iter().enumerate() {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let warmup = 1_000 + (x >> 48); // 1_000 ..= 66_535
        let fault = if i % 2 == 0 {
            Some(FaultPlan::chaos(7 + i as u64))
        } else {
            None
        };
        assert_resume_invariant(cfg, warmup, 6_000, fault);
    }
}

#[test]
fn resume_restores_the_fault_injector_from_the_image() {
    let cfg = CoreConfig::m4();
    let mut sim = SimBuilder::config(cfg.clone()).build().unwrap();
    sim.attach_fault_injector(FaultPlan::chaos(11));
    let slice = &standard_suite(1)[0];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 5_000).unwrap();
    let image = sim.checkpoint();

    let resumed = Simulator::resume_with_config(cfg, &image).unwrap();
    assert_eq!(
        sim.fault_stats().unwrap().total(),
        resumed.fault_stats().unwrap().total(),
        "injection counters must survive the round trip"
    );
}

#[test]
fn resume_reads_the_generation_from_the_header() {
    let mut sim = SimBuilder::config(CoreConfig::m2()).build().unwrap();
    let slice = &standard_suite(1)[1];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 3_000).unwrap();
    let image = sim.checkpoint();

    let resumed = Simulator::resume(&image).unwrap();
    assert_eq!(resumed.config().gen, sim.config().gen);
    assert_eq!(resumed.stats().instructions, sim.stats().instructions);
}

#[test]
fn corrupted_images_yield_typed_errors_not_panics() {
    let mut sim = SimBuilder::config(CoreConfig::m6()).build().unwrap();
    let slice = &standard_suite(1)[2];
    let mut g = slice.build().unwrap();
    sim.run_warmup(&mut *g, 2_000).unwrap();
    let image = sim.checkpoint();

    // Bad magic.
    let mut bad = image.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Unsupported format version.
    let mut bad = image.clone();
    bad[4] = 0xFF;
    bad[5] = 0xFF;
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Truncation at a sweep of prefix lengths.
    for cut in [9, 64, image.len() / 2, image.len() - 1] {
        assert!(matches!(
            Simulator::resume(&image[..cut]),
            Err(SimError::SnapshotDecode { .. })
        ));
    }

    // Wrong generation geometry: an M6 image into an M1 machine.
    assert!(matches!(
        Simulator::resume_with_config(CoreConfig::m1(), &image),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Trailing garbage.
    let mut bad = image.clone();
    bad.extend_from_slice(&[0u8; 3]);
    assert!(matches!(
        Simulator::resume(&bad),
        Err(SimError::SnapshotDecode { .. })
    ));

    // Flipped interior bytes must never panic (they may legitimately
    // decode if the flip lands in a counter, but structural damage must
    // surface as the typed error).
    for at in (8..image.len()).step_by(977) {
        let mut bad = image.clone();
        bad[at] ^= 0x55;
        let _ = Simulator::resume(&bad);
    }
}

/// Warm slice of the checkpoint-layout pin: its working set evicts from
/// the L2 within the window on M3–M6 (sectored from M4 on) and casts
/// lines out to the L3, so evicted ways, refilled ways and L3-resident
/// castouts are all in the images. The window does not fill the L3 far
/// enough to evict from it; `crates/mem/src/oracle.rs` covers L3
/// eviction layouts against the reference model.
const PINNED_SLICE: &str = "game/sms1";

/// Instructions warmed before the pinned checkpoints are taken.
const PINNED_WARMUP: u64 = 20_000;

/// Digest of the six M1–M6 checkpoint images of [`PINNED_SLICE`] after
/// [`PINNED_WARMUP`] instructions.
const CHECKPOINT_DIGEST: &str = "16acfd1fe9c2d29756a36f5e1c8267a8";

/// Layout pin: the resume tests above compare two encodings made by the
/// same code, so they cannot see the per-way field order or an
/// encoding drift in any table. This one hashes the images themselves.
/// A layout change moves [`CHECKPOINT_DIGEST`] and needs a
/// `FORMAT_VERSION` bump; a model change moves it too. Either way the
/// new constant comes with a CHANGES.md line saying what moved.
#[test]
fn checkpoint_bytes_match_the_committed_digest() {
    use exynos_trace::fingerprint::FingerprintHasher;

    let suite = standard_suite(1);
    let slice = suite
        .iter()
        .find(|s| s.name == PINNED_SLICE)
        .expect("pinned slice is in the standard suite");
    let mut h = FingerprintHasher::new();
    for cfg in CoreConfig::all_generations() {
        let has_l3 = cfg.mem.l3.is_some();
        let name = cfg.gen.name();
        let mut sim = SimBuilder::config(cfg).build().unwrap();
        let mut g = slice.build().unwrap();
        sim.run_warmup(&mut *g, PINNED_WARMUP).unwrap();
        if has_l3 {
            let l2 = sim.memsys().l2_stats();
            assert!(l2.evictions > 0, "{name}: the pinned window must evict from the L2");
            assert!(sim.memsys().l3_stats().fills > 0, "{name}: the pinned window must cast out to the L3");
        }
        h.write_str(name);
        h.write_bytes(&sim.checkpoint());
    }
    assert_eq!(
        h.finish().to_string(),
        CHECKPOINT_DIGEST,
        "checkpoint bytes moved: a layout change bumps FORMAT_VERSION; say what moved in CHANGES.md"
    );
}
