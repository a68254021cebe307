//! The workload-suite catalog.
//!
//! The paper's evaluation runs 4,026 trace slices drawn from SPEC CPU2000/
//! 2006, web suites (Speedometer, Octane, BBench, SunSpider), mobile suites
//! (AnTuTu, Geekbench) and games. This module builds the synthetic stand-in
//! population: a parameter grid over the generator families of
//! [`crate::gen`], weighted so the population has the paper's qualitative
//! shape — a large predictable/high-IPC left tail, an "interesting middle"
//! (SPECint/Geekbench-like), and a hard-to-predict, memory-bound right tail.

use crate::gen::loops::{LoopNest, LoopNestParams};
use crate::gen::markov::{MarkovBranches, MarkovMode, MarkovParams};

fn markov_parity() -> MarkovMode {
    MarkovMode::Parity
}

fn markov_pattern() -> MarkovMode {
    MarkovMode::Pattern
}
use crate::gen::mixed::PhaseMix;
use crate::gen::pointer_chase::{PointerChase, PointerChaseParams};
use crate::gen::spatial::{SpatialRegions, SpatialParams};
use crate::gen::streaming::{CopyKernel, CopyKernelParams, MultiStride, MultiStrideParams, StrideComponent};
use crate::gen::web::{WebParams, WebWorkload};
use crate::gen::BoxedGen;
use crate::error::TraceError;
use crate::fingerprint::{Fingerprint, FingerprintHasher};
use crate::sample::SlicePlan;
use crate::source::TraceSource;
use std::sync::Arc;

/// Which named suite a slice belongs to (the paper's workload grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// SPECint-like: branchy, mixed-predictability integer code.
    SpecIntLike,
    /// SPECfp-like: loop nests with FP and streaming access.
    SpecFpLike,
    /// Web/JS-like: indirect-heavy, huge code footprint.
    WebLike,
    /// Mobile/Geekbench-like: phase mixes.
    MobileLike,
    /// Game-like: spatial/irregular data with moderate branch pressure.
    GameLike,
    /// Pure streaming/memory kernels.
    StreamLike,
    /// Assembled programs (the `exynos-asm` corpus and user-supplied
    /// sources); not part of the synthetic population.
    ProgramLike,
}

impl SuiteKind {
    /// All suite kinds, in catalog order. The first
    /// [`SuiteKind::NUM_SYNTHETIC`] entries are the synthetic generator
    /// families that make up [`standard_suite`]; `ProgramLike` slices come
    /// from program corpora instead.
    pub const ALL: [SuiteKind; 7] = [
        SuiteKind::SpecIntLike,
        SuiteKind::SpecFpLike,
        SuiteKind::WebLike,
        SuiteKind::MobileLike,
        SuiteKind::GameLike,
        SuiteKind::StreamLike,
        SuiteKind::ProgramLike,
    ];

    /// How many of [`SuiteKind::ALL`] are synthetic generator families.
    pub const NUM_SYNTHETIC: usize = 6;

    /// Short label used in slice names and reports.
    pub fn label(self) -> &'static str {
        match self {
            SuiteKind::SpecIntLike => "specint",
            SuiteKind::SpecFpLike => "specfp",
            SuiteKind::WebLike => "web",
            SuiteKind::MobileLike => "mobile",
            SuiteKind::GameLike => "game",
            SuiteKind::StreamLike => "stream",
            SuiteKind::ProgramLike => "program",
        }
    }
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A buildable workload description (the catalog's unit of composition).
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Nested loop kernel.
    LoopNest(LoopNestParams),
    /// Pointer chase.
    PointerChase(PointerChaseParams),
    /// Multi-stride stream.
    MultiStride(MultiStrideParams),
    /// memcpy-style copy kernel.
    Copy(CopyKernelParams),
    /// Web/JS-like workload.
    Web(WebParams),
    /// Spatial-region (SMS-friendly) workload.
    Spatial(SpatialParams),
    /// History-dependent conditional branches.
    Markov(MarkovParams),
    /// Phase mix of child specs.
    Mix {
        /// Child workloads, interleaved round-robin.
        children: Vec<WorkloadSpec>,
        /// Instructions per phase.
        phase_len: u64,
    },
    /// An external trace source (e.g. an assembled program from the
    /// `exynos-asm` crate) implementing [`TraceSource`].
    Program(Arc<dyn TraceSource>),
}

impl WorkloadSpec {
    /// Build the generator in address `region` with `seed`.
    ///
    /// This is the single construction path for every workload family —
    /// synthetic and program-driven alike. Errors are typed
    /// ([`TraceError`]); nothing in the catalog panics on a bad source.
    pub fn build(&self, region: u64, seed: u64) -> Result<BoxedGen, TraceError> {
        Ok(match self {
            WorkloadSpec::LoopNest(p) => Box::new(LoopNest::new(p, region, seed)),
            WorkloadSpec::PointerChase(p) => Box::new(PointerChase::new(p, region, seed)),
            WorkloadSpec::MultiStride(p) => Box::new(MultiStride::new(p, region, seed)),
            WorkloadSpec::Copy(p) => Box::new(CopyKernel::new(p, region, seed)),
            WorkloadSpec::Web(p) => Box::new(WebWorkload::new(p, region, seed)),
            WorkloadSpec::Spatial(p) => Box::new(SpatialRegions::new(p, region, seed)),
            WorkloadSpec::Markov(p) => Box::new(MarkovBranches::new(p, region, seed)),
            WorkloadSpec::Mix { children, phase_len } => {
                let gens: Vec<BoxedGen> = children
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        // Children live far above the plain-slice region
                        // space so code/data windows never alias.
                        c.build(1_000_000 + region * 8 + i as u64, seed ^ ((i as u64) << 32))
                    })
                    .collect::<Result<_, _>>()?;
                Box::new(PhaseMix::new(gens, *phase_len))
            }
            WorkloadSpec::Program(src) => return src.build(region, seed),
        })
    }

    /// Fold every stream-affecting parameter of this spec into `h`.
    ///
    /// This is the canonical content identity behind [`Fingerprint`]-keyed
    /// chunk sharing: every field that [`WorkloadSpec::build`] consults is
    /// hashed (with a per-family tag), and nothing else is. Two specs that
    /// hash equal produce byte-identical streams for equal `(region,
    /// seed)`; changing any field changes the digest.
    pub fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        match self {
            WorkloadSpec::LoopNest(p) => {
                h.write_str("loopnest");
                h.write_u64(p.depth as u64);
                h.write_u64(p.trip_counts.len() as u64);
                for &t in &p.trip_counts {
                    h.write_u64(t as u64);
                }
                h.write_u64(p.body_len as u64);
                h.write_u64(p.loads_per_body as u64);
                h.write_u64(p.stores_per_body as u64);
                h.write_i64(p.stride);
                h.write_u64(p.working_set);
                h.write_f64(p.fp_frac);
            }
            WorkloadSpec::PointerChase(p) => {
                h.write_str("chase");
                h.write_u64(p.working_set);
                h.write_u64(p.chains as u64);
                h.write_u64(p.work_between as u64);
                h.write_bool(p.spatial_payload);
            }
            WorkloadSpec::MultiStride(p) => {
                h.write_str("multistride");
                h.write_u64(p.components.len() as u64);
                for c in &p.components {
                    h.write_i64(c.stride);
                    h.write_u64(c.repeat as u64);
                }
                h.write_u64(p.unit);
                h.write_u64(p.working_set);
                h.write_u64(p.work_between as u64);
                h.write_u64(p.streams as u64);
                h.write_u64(p.restart_every);
            }
            WorkloadSpec::Copy(p) => {
                h.write_str("copy");
                h.write_u64(p.length);
                h.write_u64(p.work_between as u64);
            }
            WorkloadSpec::Web(p) => {
                h.write_str("web");
                h.write_u64(p.functions as u64);
                h.write_u64(p.dispatch_targets as u64);
                h.write_f64(p.markov_follow);
                h.write_u64(p.blocks_per_fn as u64);
                h.write_u64(p.block_len as u64);
                h.write_f64(p.noisy_frac);
                h.write_u64(p.working_set);
            }
            WorkloadSpec::Spatial(p) => {
                h.write_str("spatial");
                h.write_u64(p.regions as u64);
                h.write_u64(p.signature_len as u64);
                h.write_u64(p.transient_per_visit as u64);
                h.write_u64(p.sites as u64);
                h.write_u64(p.work_between as u64);
            }
            WorkloadSpec::Markov(p) => {
                h.write_str("markov");
                h.write_u64(p.sites as u64);
                h.write_u64(p.history_depth as u64);
                h.write_u64(p.taps as u64);
                h.write_u64(match p.mode {
                    MarkovMode::Pattern => 0,
                    MarkovMode::Parity => 1,
                });
                h.write_f64(p.noise);
                h.write_u64(p.work_between as u64);
                h.write_f64(p.load_frac);
                h.write_u64(p.working_set);
            }
            WorkloadSpec::Mix { children, phase_len } => {
                h.write_str("mix");
                h.write_u64(*phase_len);
                h.write_u64(children.len() as u64);
                for c in children {
                    c.fingerprint_into(h);
                }
            }
            WorkloadSpec::Program(src) => {
                h.write_str("program");
                src.fingerprint_into(h);
            }
        }
    }

    /// The spec's content digest (region/seed-independent).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Short family label (generator family or program name).
    pub fn family(&self) -> &str {
        match self {
            WorkloadSpec::LoopNest(_) => "loopnest",
            WorkloadSpec::PointerChase(_) => "chase",
            WorkloadSpec::MultiStride(_) => "multistride",
            WorkloadSpec::Copy(_) => "copy",
            WorkloadSpec::Web(_) => "web",
            WorkloadSpec::Spatial(_) => "spatial",
            WorkloadSpec::Markov(_) => "markov",
            WorkloadSpec::Mix { .. } => "mix",
            WorkloadSpec::Program(src) => src.label(),
        }
    }
}

impl TraceSource for WorkloadSpec {
    fn label(&self) -> &str {
        self.family()
    }

    fn build(&self, region: u64, seed: u64) -> Result<BoxedGen, TraceError> {
        WorkloadSpec::build(self, region, seed)
    }

    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        WorkloadSpec::fingerprint_into(self, h);
    }
}

/// One catalog entry: a named, seeded slice of a workload.
#[derive(Debug, Clone)]
pub struct SliceSpec {
    /// Human-readable identity, e.g. `web/bbench#2`.
    pub name: String,
    /// The suite family this slice stands in for.
    pub suite: SuiteKind,
    /// Generator description.
    pub spec: WorkloadSpec,
    /// RNG seed for instantiation.
    pub seed: u64,
    /// Address region (must be unique across concurrently mixed slices).
    pub region: u64,
    /// Warmup/detail windows.
    pub plan: SlicePlan,
}

impl SliceSpec {
    /// Build this slice's generator (the fallible construction path).
    pub fn build(&self) -> Result<BoxedGen, TraceError> {
        self.spec.build(self.region, self.seed)
    }

    /// Digest of the *instruction stream* this slice materializes.
    ///
    /// Folds the spec's content identity with the two instantiation inputs
    /// ([`SliceSpec::region`], [`SliceSpec::seed`]) that `build` consults.
    /// `name`, `suite` and `plan` deliberately do not participate: they
    /// change what a slice is called and how much of the stream a run
    /// consumes, never the bytes of the stream itself — so two catalog
    /// entries that replay the same stream share one cache identity.
    pub fn stream_fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.spec.fingerprint_into(&mut h);
        h.write_u64(self.region);
        h.write_u64(self.seed);
        h.finish()
    }
}

/// Collapse program slices with identical content digests onto one
/// shared source.
///
/// Catalogs built from several corpora (or repeated catalog builds glued
/// together) can carry multiple [`WorkloadSpec::Program`] entries whose
/// fingerprints collide — identical assembled programs instantiated
/// separately. Pointing every duplicate at the *first* occurrence's
/// `Arc` drops the redundant assemblies and lets downstream per-source
/// state (chunk-cache streams, warm generators) be shared. Synthetic
/// specs are plain parameter records with no instantiation to share and
/// are left untouched. Returns the number of slices re-pointed.
pub fn dedupe_shared_sources(slices: &mut [SliceSpec]) -> usize {
    let mut seen: std::collections::HashMap<u128, Arc<dyn TraceSource>> =
        std::collections::HashMap::new();
    let mut collapsed = 0;
    for s in slices {
        if let WorkloadSpec::Program(src) = &mut s.spec {
            let digest = {
                let mut h = FingerprintHasher::new();
                src.fingerprint_into(&mut h);
                h.finish().0
            };
            match seen.entry(digest) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if !Arc::ptr_eq(src, e.get()) {
                        *src = Arc::clone(e.get());
                        collapsed += 1;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(Arc::clone(src));
                }
            }
        }
    }
    collapsed
}

/// Build the standard cross-generation evaluation population.
///
/// `scale` multiplies the per-family slice counts: `scale = 1` gives a
/// ~60-slice smoke population; `scale = 4` a ~240-slice population for the
/// paper's Fig. 9/16/17 sweeps. Slices are deterministic in `scale`.
pub fn standard_suite(scale: usize) -> Vec<SliceSpec> {
    let scale = scale.max(1);
    let mut slices = Vec::new();
    let plan = SlicePlan::default();
    let mut region = 0u64;
    let mut push = |name: String, suite: SuiteKind, spec: WorkloadSpec, seed: u64, region: &mut u64| {
        slices.push(SliceSpec {
            name,
            suite,
            spec,
            seed,
            region: *region,
            plan,
        });
        *region += 16;
    };

    // --- SPECfp-like: loop nests with FP, varied working sets. -----------
    for v in 0..4 * scale {
        let ws = [16, 64, 512, 4096, 32768][v % 5] * 1024;
        let p = LoopNestParams {
            depth: 1 + v % 3,
            trip_counts: match v % 3 {
                0 => vec![128],
                1 => vec![32, 512],
                _ => vec![16, 64, 128],
            },
            // Bodies span simple loops to unrolled/vectorized kernels
            // (the high-ILP right edge of Fig. 17 needs fetch regions
            // longer than one fetch group).
            body_len: 6 + (v % 4) * 8,
            loads_per_body: 2,
            stores_per_body: 1,
            stride: [8, 64, 128, 24][v % 4],
            working_set: ws,
            fp_frac: 0.4,
        };
        push(
            format!("specfp/nest{}_ws{}k", v, ws / 1024),
            SuiteKind::SpecFpLike,
            WorkloadSpec::LoopNest(p),
            0x5F00 + v as u64,
            &mut region,
        );
    }

    // --- Stream-like: multi-stride & copy kernels. ------------------------
    for v in 0..3 * scale {
        let comps = match v % 4 {
            0 => vec![StrideComponent { stride: 1, repeat: 1 }],
            1 => vec![
                StrideComponent { stride: 2, repeat: 2 },
                StrideComponent { stride: 5, repeat: 1 },
            ],
            2 => vec![
                StrideComponent { stride: 3, repeat: 4 },
                StrideComponent { stride: -2, repeat: 1 },
                StrideComponent { stride: 7, repeat: 2 },
            ],
            _ => vec![StrideComponent { stride: 17, repeat: 1 }],
        };
        let p = MultiStrideParams {
            components: comps,
            unit: 64,
            working_set: [4, 32, 256][v % 3] * 1024 * 1024,
            work_between: 2 + v % 3,
            streams: 1 + v % 4,
            restart_every: if v % 5 == 4 { 4_000 } else { 0 },
        };
        push(
            format!("stream/ms{}", v),
            SuiteKind::StreamLike,
            WorkloadSpec::MultiStride(p),
            0x3700 + v as u64,
            &mut region,
        );
    }
    for v in 0..scale {
        push(
            format!("stream/copy{}", v),
            SuiteKind::StreamLike,
            WorkloadSpec::Copy(CopyKernelParams {
                length: [2, 16][v % 2] * 1024 * 1024,
                work_between: 1 + v % 2,
            }),
            0x3800 + v as u64,
            &mut region,
        );
    }

    // --- SPECint-like: Markov branch mixes, some with loads. --------------
    for v in 0..5 * scale {
        // Required GHIST for a pattern slice is roughly
        // sites * log2(pattern length): this grid spans ~48..256 bits so
        // generational GHIST growth (165 -> 206) and SHP capacity both
        // show, with the deepest combinations forming the hard tail.
        let p = MarkovParams {
            sites: [24, 40, 64, 96][v % 4],
            history_depth: [4, 8, 8, 16, 4, 16][v % 6],
            taps: [1, 3, 5][v % 3],
            mode: if v % 7 == 6 { markov_parity() } else { markov_pattern() },
            noise: [0.0, 0.01, 0.02, 0.05, 0.10][v % 5],
            work_between: 3 + v % 4,
            load_frac: 0.2,
            working_set: [32, 256, 2048][v % 3] * 1024,
        };
        push(
            format!("specint/mk{}_h{}_n{}", v, p.history_depth, (p.noise * 100.0) as u32),
            SuiteKind::SpecIntLike,
            WorkloadSpec::Markov(p),
            0x51E0 + v as u64,
            &mut region,
        );
    }

    // --- Web-like: big footprints, many indirect targets. -----------------
    for v in 0..4 * scale {
        let p = WebParams {
            functions: [300, 700, 1400, 2600][v % 4],
            dispatch_targets: [16, 48, 100, 240][v % 4],
            markov_follow: [0.9, 0.75, 0.6][v % 3],
            blocks_per_fn: 6 + v % 5,
            block_len: [2, 4, 6][v % 3],
            noisy_frac: [0.08, 0.15, 0.25][v % 3],
            working_set: [8, 32, 64][v % 3] * 1024 * 1024,
        };
        let name = ["speedometer", "octane", "bbench", "sunspider"][v % 4];
        push(
            format!("web/{}{}", name, v / 4),
            SuiteKind::WebLike,
            WorkloadSpec::Web(p),
            0x3EB0 + v as u64,
            &mut region,
        );
    }

    // --- Game-like: spatial regions + pointer chase. ----------------------
    for v in 0..3 * scale {
        let p = SpatialParams {
            regions: [256, 1024, 4096][v % 3],
            signature_len: 3 + v % 5,
            transient_per_visit: v % 3,
            sites: 2 + v % 4,
            work_between: 2,
        };
        push(
            format!("game/sms{}", v),
            SuiteKind::GameLike,
            WorkloadSpec::Spatial(p),
            0x6A00 + v as u64,
            &mut region,
        );
    }
    for v in 0..3 * scale {
        let p = PointerChaseParams {
            working_set: [256 * 1024, 2 * 1024 * 1024, 16 * 1024 * 1024, 64 * 1024 * 1024][v % 4],
            chains: [1, 2, 4, 8][v % 4],
            work_between: 2 + v % 3,
            spatial_payload: v % 2 == 1,
        };
        push(
            format!("game/chase{}_ws{}m", v, p.working_set >> 20),
            SuiteKind::GameLike,
            WorkloadSpec::PointerChase(p),
            0x9C00 + v as u64,
            &mut region,
        );
    }

    // --- Mobile-like: phase mixes of the above. ----------------------------
    for v in 0..3 * scale {
        let children = vec![
            WorkloadSpec::LoopNest(LoopNestParams::default()),
            WorkloadSpec::Markov(MarkovParams {
                history_depth: 16 + (v as u32 % 3) * 16,
                noise: 0.05,
                ..Default::default()
            }),
            WorkloadSpec::MultiStride(MultiStrideParams::default()),
        ];
        push(
            format!("mobile/geek{}", v),
            SuiteKind::MobileLike,
            WorkloadSpec::Mix {
                children,
                phase_len: 5_000 + (v as u64 % 3) * 5_000,
            },
            0xA0B0 + v as u64,
            &mut region,
        );
    }

    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGen;
    use std::collections::HashSet;

    #[test]
    fn suite_has_expected_population() {
        let s = standard_suite(1);
        assert!(s.len() >= 20, "got {}", s.len());
        let kinds: HashSet<SuiteKind> = s.iter().map(|x| x.suite).collect();
        assert_eq!(
            kinds.len(),
            SuiteKind::NUM_SYNTHETIC,
            "all synthetic suites represented"
        );
        assert!(
            !kinds.contains(&SuiteKind::ProgramLike),
            "the synthetic population must not change shape under the program catalog"
        );
    }

    #[test]
    fn names_are_unique() {
        let s = standard_suite(2);
        let names: HashSet<&str> = s.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn regions_are_unique() {
        let s = standard_suite(2);
        let regions: HashSet<u64> = s.iter().map(|x| x.region).collect();
        assert_eq!(regions.len(), s.len());
    }

    #[test]
    fn every_slice_builds_and_streams() {
        for slice in standard_suite(1) {
            let mut g = slice.build().unwrap();
            for _ in 0..500 {
                let _ = g.next_inst();
            }
        }
    }

    #[test]
    fn scale_is_monotone() {
        assert!(standard_suite(2).len() > standard_suite(1).len());
    }

    #[test]
    fn suite_labels_roundtrip_display() {
        for k in SuiteKind::ALL {
            assert_eq!(k.to_string(), k.label());
        }
    }

    #[test]
    fn equal_specs_hash_equal() {
        let a = standard_suite(1);
        let b = standard_suite(1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stream_fingerprint(), y.stream_fingerprint(), "{}", x.name);
        }
    }

    #[test]
    fn distinct_catalog_streams_hash_distinct() {
        let s = standard_suite(2);
        let fps: HashSet<u128> = s.iter().map(|x| x.stream_fingerprint().0).collect();
        assert_eq!(fps.len(), s.len(), "catalog streams must not collide");
    }

    #[test]
    fn any_field_change_changes_the_digest() {
        use crate::gen::loops::LoopNestParams;
        let base = LoopNestParams::default();
        let fp = |p: LoopNestParams| WorkloadSpec::LoopNest(p).fingerprint();
        let reference = fp(base.clone());
        let variants = [
            LoopNestParams { depth: base.depth + 1, ..base.clone() },
            LoopNestParams { trip_counts: vec![99], ..base.clone() },
            LoopNestParams { body_len: base.body_len + 1, ..base.clone() },
            LoopNestParams { loads_per_body: base.loads_per_body + 1, ..base.clone() },
            LoopNestParams { stores_per_body: base.stores_per_body + 1, ..base.clone() },
            LoopNestParams { stride: base.stride + 8, ..base.clone() },
            LoopNestParams { working_set: base.working_set * 2, ..base.clone() },
            LoopNestParams { fp_frac: base.fp_frac + 0.125, ..base.clone() },
        ];
        let mut seen = HashSet::new();
        seen.insert(reference.0);
        for (i, v) in variants.into_iter().enumerate() {
            assert!(seen.insert(fp(v).0), "variant {i} collided");
        }
    }

    #[test]
    fn markov_mode_and_mix_shape_participate() {
        use crate::gen::markov::MarkovParams;
        let pat = WorkloadSpec::Markov(MarkovParams { mode: markov_pattern(), ..Default::default() });
        let par = WorkloadSpec::Markov(MarkovParams { mode: markov_parity(), ..Default::default() });
        assert_ne!(pat.fingerprint(), par.fingerprint());

        let mix = |phase_len| WorkloadSpec::Mix {
            children: vec![pat.clone(), par.clone()],
            phase_len,
        };
        assert_eq!(mix(500).fingerprint(), mix(500).fingerprint());
        assert_ne!(mix(500).fingerprint(), mix(501).fingerprint());
        let swapped = WorkloadSpec::Mix { children: vec![par.clone(), pat.clone()], phase_len: 500 };
        assert_ne!(mix(500).fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn dedupe_collapses_identical_program_sources() {
        use crate::gen::loops::LoopNestParams;
        let src = |p: LoopNestParams| -> Arc<dyn TraceSource> {
            Arc::new(WorkloadSpec::LoopNest(p))
        };
        let slice = |name: &str, s: Arc<dyn TraceSource>, region: u64| SliceSpec {
            name: name.to_string(),
            suite: SuiteKind::ProgramLike,
            spec: WorkloadSpec::Program(s),
            seed: 1,
            region,
            plan: SlicePlan::default(),
        };
        let mut other = LoopNestParams::default();
        other.body_len += 1;
        // Two separately instantiated identical sources plus one distinct.
        let mut slices = vec![
            slice("p/a", src(LoopNestParams::default()), 0),
            slice("p/b", src(LoopNestParams::default()), 16),
            slice("p/c", src(other), 32),
        ];
        assert_eq!(dedupe_shared_sources(&mut slices), 1);
        let arc = |s: &SliceSpec| match &s.spec {
            WorkloadSpec::Program(a) => Arc::clone(a),
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(&arc(&slices[0]), &arc(&slices[1])), "duplicates share one source");
        assert!(!Arc::ptr_eq(&arc(&slices[0]), &arc(&slices[2])), "distinct content stays apart");
        // Idempotent.
        assert_eq!(dedupe_shared_sources(&mut slices), 0);
    }

    #[test]
    fn region_and_seed_participate_but_name_and_plan_do_not() {
        let mut a = standard_suite(1).remove(0);
        let fp = a.stream_fingerprint();
        a.name = "renamed/slice".to_string();
        a.plan = SlicePlan::new(1, 2);
        assert_eq!(fp, a.stream_fingerprint(), "name/plan must not affect the stream digest");
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(fp, b.stream_fingerprint());
        let mut c = a.clone();
        c.region += 1;
        assert_ne!(fp, c.stream_fingerprint());
    }
}
