//! Per-layer measurements for the traced run.
//!
//! Two kinds live here. The traced sweeps re-run a workload's sweep with
//! a span around every layer call (trace refill, chunk-cache fetch, warm
//! fork, each member's `Simulator::run_block`) and read every member's
//! counters at the warmup/detail boundary and at the end, so simulated
//! ratios cover the detail window only. Their records must equal the
//! production sweep's bit for bit. The probes time one layer's public
//! functions in isolation over the workload's own records; they are
//! microbenchmarks, not in-step costs, and the memory-system replay runs
//! on a synthetic clock (one cycle per record), so it is approximate.

use crate::adapter::{self, SliceRecord, WarmPool};
use crate::spans::{self, Recorder, Span, SpanId};
use crate::stats::{median, percentile};
use exynos_core::batch::{CachedStream, ChunkCache, InstChunk, CHUNK_LEN};
use exynos_core::{CoreConfig, MemSystem, SimBuilder, SimError, Simulator};
use exynos_trace::{Inst, InstKind, SliceSpec, TraceGen};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Span name of each generation's `run_block` calls, M1..M6.
pub const STEP_SPANS: [&str; 6] = [
    "core.run_block.m1",
    "core.run_block.m2",
    "core.run_block.m3",
    "core.run_block.m4",
    "core.run_block.m5",
    "core.run_block.m6",
];

const STEP_METRICS: [&str; 6] = [
    "core.step_ns_per_inst.m1",
    "core.step_ns_per_inst.m2",
    "core.step_ns_per_inst.m3",
    "core.step_ns_per_inst.m4",
    "core.step_ns_per_inst.m5",
    "core.step_ns_per_inst.m6",
];

const IPC_METRICS: [&str; 6] = [
    "core.ipc.m1",
    "core.ipc.m2",
    "core.ipc.m3",
    "core.ipc.m4",
    "core.ipc.m5",
    "core.ipc.m6",
];

/// Budget of the service tier's chunk cache; the cache probe uses the
/// same so its hit and eviction behaviour matches the served one.
pub const SERVICE_CACHE_BYTES: u64 = 64 << 20;

/// Simulated-event counters of one member, read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters([u64; 16]);

const INSTS: usize = 0;
const MISPREDICTS: usize = 1;
const BUBBLES: usize = 2;
const UOC_SUPPLIED: usize = 3;
const L1D_MISSES: usize = 4;
const L2_MISSES: usize = 5;
const L3_MISSES: usize = 6;
const LOADS: usize = 7;
const LOAD_LATENCY: usize = 8;
const MAB_STALLS: usize = 9;
const L1_PF_FILLS: usize = 10;
const L1_PF_USEFUL: usize = 11;
const BUDDY_FILLS: usize = 12;
const STANDALONE_FILLS: usize = 13;
const DRAM_READS: usize = 14;
const DRAM_ROW_HITS: usize = 15;

impl Counters {
    fn of(sim: &Simulator) -> Counters {
        let fe = sim.frontend().stats();
        let m = sim.memsys();
        let ms = m.stats();
        let l1d = m.l1d_stats();
        let dram = m.dram_stats();
        let mut c = [0; 16];
        c[INSTS] = sim.stats().instructions;
        c[MISPREDICTS] = fe.total_mispredicts();
        c[BUBBLES] = fe.bubbles;
        c[UOC_SUPPLIED] = sim.stats().uoc_supplied;
        c[L1D_MISSES] = l1d.demand_misses;
        c[L2_MISSES] = m.l2_stats().demand_misses;
        c[L3_MISSES] = m.l3_stats().demand_misses;
        c[LOADS] = ms.loads;
        c[LOAD_LATENCY] = ms.total_load_latency;
        c[MAB_STALLS] = ms.mab_stalls;
        c[L1_PF_FILLS] = ms.l1_prefetch_fills;
        c[L1_PF_USEFUL] = l1d.useful_prefetch_hits;
        c[BUDDY_FILLS] = ms.buddy_fills;
        c[STANDALONE_FILLS] = ms.standalone_fills;
        c[DRAM_READS] = dram.reads;
        c[DRAM_ROW_HITS] = dram.row_hits;
        Counters(c)
    }

    /// Field-wise `end - begin`.
    fn delta(begin: &Counters, end: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| end.0[i] - begin.0[i]))
    }

    /// Field-wise `self += other`.
    fn add(&mut self, other: &Counters) {
        for (s, o) in self.0.iter_mut().zip(other.0) {
            *s += o;
        }
    }

    /// Counter `i` per thousand instructions.
    fn per_ki(&self, i: usize) -> f64 {
        self.0[i] as f64 * 1000.0 / self.0[INSTS].max(1) as f64
    }

    /// Counter `num` over counter `den`.
    fn frac(&self, num: usize, den: usize) -> f64 {
        ratio(self.0[num], self.0[den])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// What a traced sweep leaves behind besides its spans.
#[derive(Debug, Default)]
pub struct SweepTrace {
    /// Records, generation-major, slice-minor (the production order).
    pub records: Vec<SliceRecord>,
    /// Detail-window counters summed over slices, per generation.
    pub detail: Vec<Counters>,
    /// Instructions each generation stepped in the traced calls.
    pub stepped: Vec<u64>,
}

struct Group {
    records: Vec<SliceRecord>,
    detail: Vec<Counters>,
    stepped: u64,
}

fn finish_group(
    slice: &SliceSpec,
    members: &[Simulator],
    begin: &[(exynos_core::SliceMeasure, Counters)],
    stepped: u64,
) -> Group {
    let mut records = Vec::with_capacity(members.len());
    let mut detail = Vec::with_capacity(members.len());
    for (sim, (m, c0)) in members.iter().zip(begin) {
        let r = sim.measure_end(m);
        records.push(SliceRecord {
            name: slice.name.clone(),
            gen: sim.config().gen.name(),
            ipc: r.ipc,
            mpki: r.mpki,
            load_latency: r.avg_load_latency,
        });
        detail.push(Counters::delta(c0, &Counters::of(sim)));
    }
    Group {
        records,
        detail,
        stepped,
    }
}

fn assemble(groups: Vec<Result<Group, SimError>>) -> Result<SweepTrace, SimError> {
    let groups: Vec<Group> = groups.into_iter().collect::<Result<_, _>>()?;
    let gens = groups.first().map_or(0, |g| g.records.len());
    let mut out = SweepTrace {
        records: Vec::with_capacity(gens * groups.len()),
        detail: vec![Counters::default(); gens],
        stepped: vec![0; gens],
    };
    for g in 0..gens {
        for grp in &groups {
            out.records.push(grp.records[g].clone());
            out.detail[g].add(&grp.detail[g]);
            out.stepped[g] += grp.stepped;
        }
    }
    Ok(out)
}

/// Step every member over `n` records generated from `gen`, chunk by
/// chunk: the production lockstep loop with spans around each call.
fn lockstep(
    members: &mut [Simulator],
    gen: &mut dyn TraceGen,
    chunk: &mut InstChunk,
    n: u64,
    rec: &Recorder,
    parent: SpanId,
) -> Result<(), SimError> {
    let mut rem = n;
    while rem > 0 {
        let take = rem.min(CHUNK_LEN as u64) as usize;
        rec.span("trace.refill", Some(parent), |_| {
            chunk.refill(gen, take);
        });
        for (g, sim) in members.iter_mut().enumerate() {
            rec.span(STEP_SPANS[g], Some(parent), |_| {
                sim.run_block(chunk.as_slice())
            })?;
        }
        rem -= take as u64;
    }
    Ok(())
}

/// The cold batched sweep of `suite`, traced. Same records as
/// [`adapter::cold_sweep`].
pub fn traced_cold(
    suite: &[SliceSpec],
    (warmup, detail): (u64, u64),
    threads: usize,
    rec: &Recorder,
    root: SpanId,
) -> Result<SweepTrace, SimError> {
    let gens = CoreConfig::all_generations();
    assemble(adapter::run_indexed(suite.len(), threads, |s| {
        rec.span("sweep.group", Some(root), |g| {
            let slice = &suite[s];
            let mut members = gens
                .iter()
                .map(|c| SimBuilder::config(c.clone()).build())
                .collect::<Result<Vec<_>, _>>()?;
            let mut gen = rec.span("trace.build", Some(g), |_| slice.build())?;
            let mut chunk = InstChunk::new();
            lockstep(&mut members, &mut *gen, &mut chunk, warmup, rec, g)?;
            let begin: Vec<_> = members
                .iter()
                .map(|m| (m.measure_begin(), Counters::of(m)))
                .collect();
            lockstep(&mut members, &mut *gen, &mut chunk, detail, rec, g)?;
            Ok(finish_group(slice, &members, &begin, warmup + detail))
        })
    }))
}

/// The warm sweep forked from `pool` over `suite` (the pool's catalog),
/// traced. Same records as [`adapter::warm_sweep`]: each group forks its
/// members, skips the warmup on a fresh shared chunk cache, and steps
/// the detail window block by block.
pub fn traced_warm(
    pool: &WarmPool,
    suite: &[SliceSpec],
    detail: u64,
    threads: usize,
    rec: &Recorder,
    root: SpanId,
) -> Result<(SweepTrace, Arc<ChunkCache>), SimError> {
    let (jobs, _, warmup) = adapter::pool_shape(pool);
    let per_gen = suite.len();
    let gens = jobs.checked_div(per_gen).unwrap_or(0);
    let cache = Arc::new(ChunkCache::unbounded());
    let groups = adapter::run_indexed(per_gen, threads, |s| {
        rec.span("sweep.group", Some(root), |g| {
            let mut members: Vec<Simulator> = (0..gens)
                .map(|k| {
                    rec.span("warm.fork", Some(g), |_| {
                        adapter::fork(pool, k * per_gen + s)
                    })
                })
                .collect();
            let mut stream = CachedStream::for_slice(Arc::clone(&cache), &suite[s]);
            stream.skip(warmup);
            let begin: Vec<_> = members
                .iter()
                .map(|m| (m.measure_begin(), Counters::of(m)))
                .collect();
            let mut rem = detail;
            while rem > 0 {
                let take = rem.min(CHUNK_LEN as u64) as usize;
                let (chunk, range) = rec
                    .span("chunk_cache.next_block", Some(g), |_| {
                        stream.next_block(take)
                    })
                    .map_err(SimError::from)?;
                let block = &chunk[range];
                for (k, sim) in members.iter_mut().enumerate() {
                    rec.span(STEP_SPANS[k], Some(g), |_| sim.run_block(block))?;
                }
                rem -= block.len() as u64;
            }
            Ok(finish_group(&suite[s], &members, &begin, detail))
        })
    });
    Ok((assemble(groups)?, cache))
}

/// Step, model, branch, UOC, memory, prefetch, DRAM and sweep-executor
/// metrics from a traced sweep. `wall_s` is the traced sweep's wall time.
/// Also returns one line per record whose IPC exceeds its machine width.
pub fn sweep_metrics(
    t: &SweepTrace,
    all: &[Span],
    threads: usize,
    wall_s: f64,
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::new();
    let gens = CoreConfig::all_generations();
    for (g, cfg) in gens.iter().enumerate() {
        let ns: u64 = spans::durations(all, STEP_SPANS[g]).iter().sum();
        m.insert(
            STEP_METRICS[g],
            ratio(ns, t.stepped.get(g).copied().unwrap_or(0)),
        );
        let ipcs: Vec<f64> = t
            .records
            .iter()
            .filter(|r| r.gen == cfg.gen.name())
            .map(|r| r.ipc)
            .collect();
        m.insert(
            IPC_METRICS[g],
            ipcs.iter().sum::<f64>() / ipcs.len().max(1) as f64,
        );
    }
    let mut above = Vec::new();
    for r in &t.records {
        if let Some(cfg) = gens.iter().find(|c| c.gen.name() == r.gen) {
            if r.ipc > f64::from(cfg.width) {
                above.push(format!(
                    "{} {} ipc={} width={}",
                    r.name, r.gen, r.ipc, cfg.width
                ));
            }
        }
    }
    m.insert("core.ipc_above_width", above.len() as f64);
    let (m1, m6) = (
        t.detail.first().copied().unwrap_or_default(),
        t.detail.last().copied().unwrap_or_default(),
    );
    m.insert("branch.mpki.m1", m1.per_ki(MISPREDICTS));
    m.insert("branch.mpki.m6", m6.per_ki(MISPREDICTS));
    m.insert("branch.bubbles_per_ki.m6", m6.per_ki(BUBBLES));
    m.insert("uoc.supply_frac.m6", m6.frac(UOC_SUPPLIED, INSTS));
    m.insert("mem.l1d_miss_per_ki.m6", m6.per_ki(L1D_MISSES));
    m.insert("mem.l2_miss_per_ki.m6", m6.per_ki(L2_MISSES));
    m.insert("mem.l3_miss_per_ki.m6", m6.per_ki(L3_MISSES));
    m.insert(
        "mem.avg_load_latency_cycles.m6",
        m6.frac(LOAD_LATENCY, LOADS),
    );
    m.insert("mem.mab_stalls_per_ki.m6", m6.per_ki(MAB_STALLS));
    m.insert("prefetch.l1_fills_per_ki.m6", m6.per_ki(L1_PF_FILLS));
    m.insert(
        "prefetch.l1_useful_frac.m6",
        m6.frac(L1_PF_USEFUL, L1_PF_FILLS),
    );
    m.insert("prefetch.buddy_fills_per_ki.m6", m6.per_ki(BUDDY_FILLS));
    m.insert(
        "prefetch.standalone_fills_per_ki.m6",
        m6.per_ki(STANDALONE_FILLS),
    );
    m.insert("dram.reads_per_ki.m6", m6.per_ki(DRAM_READS));
    m.insert("dram.row_hit_frac.m6", m6.frac(DRAM_ROW_HITS, DRAM_READS));
    let groups: Vec<f64> = spans::durations(all, "sweep.group")
        .iter()
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    m.insert(
        "sweep.busy_frac",
        groups.iter().sum::<f64>() / (threads as f64 * wall_s).max(1e-9),
    );
    m.insert("sweep.group_s_p50", median(&groups));
    m.insert("sweep.group_s_max", percentile(&groups, 1.0));
    (m, above)
}

/// Median over `reps` repetitions of the seconds `f` takes.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    median(&v)
}

/// Records the probes read from each generator.
const PROBE_RECORDS: usize = 16 * 1024;

/// `trace.build_ms` (building every slice's generator) and
/// `trace.gen_ns_per_inst` (`TraceGen::next_inst`).
pub fn trace_probe(
    slices: &[SliceSpec],
    rec: &Recorder,
    root: SpanId,
) -> Result<Metrics, SimError> {
    let mut m = Metrics::new();
    let build_s = time_median(3, || {
        for s in slices {
            let _ = rec.span("trace.build", Some(root), |_| black_box(s.build()));
        }
    });
    m.insert("trace.build_ms", build_s * 1e3);
    let mut ns = 0u128;
    for s in slices {
        let mut gen = s.build()?;
        let t = Instant::now();
        rec.span("trace.next_inst", Some(root), |_| {
            for _ in 0..PROBE_RECORDS {
                black_box(gen.next_inst());
            }
        });
        ns += t.elapsed().as_nanos();
    }
    m.insert(
        "trace.gen_ns_per_inst",
        ns as f64 / (PROBE_RECORDS * slices.len()).max(1) as f64,
    );
    Ok(m)
}

/// `asm.assemble_ms` (assembling the whole corpus) and
/// `asm.exec_ns_per_inst` (the executor's `next_inst`).
pub fn asm_probe(rec: &Recorder, root: SpanId) -> Result<Metrics, SimError> {
    let mut m = Metrics::new();
    let assemble_s = time_median(3, || {
        for (name, src) in exynos_asm::CORPUS {
            let _ = rec.span("asm.assemble", Some(root), |_| {
                black_box(exynos_asm::Program::assemble(name, src))
            });
        }
    });
    m.insert("asm.assemble_ms", assemble_s * 1e3);
    let mut ns = 0u128;
    for (i, (name, src)) in exynos_asm::CORPUS.iter().enumerate() {
        let prog = Arc::new(exynos_asm::Program::assemble(name, src)?);
        let mut exec = exynos_asm::Executor::new(
            prog,
            adapter::PROGRAM_REGION_BASE + 16 * i as u64,
            0xA500 + i as u64,
        )?;
        let t = Instant::now();
        rec.span("asm.exec", Some(root), |_| {
            for _ in 0..PROBE_RECORDS {
                black_box(exec.next_inst());
            }
        });
        ns += t.elapsed().as_nanos();
    }
    m.insert(
        "asm.exec_ns_per_inst",
        ns as f64 / (PROBE_RECORDS * exynos_asm::CORPUS.len()) as f64,
    );
    Ok(m)
}

/// Host-time replays of the M6 front end (`FrontEnd::on_inst`), UOC
/// (`Uoc::on_inst`, fed the front end's redirects and its trained µBTB)
/// and memory system (`MemSystem::load`/`store`, one cycle per record)
/// over `PROBE_RECORDS` records of each slice.
pub fn replay_probe(
    slices: &[SliceSpec],
    rec: &Recorder,
    root: SpanId,
) -> Result<Metrics, SimError> {
    let cfg = CoreConfig::m6();
    let (mut fe_ns, mut uoc_ns, mut mem_ns) = (0u128, 0u128, 0u128);
    let (mut insts, mut mem_ops) = (0u64, 0u64);
    for s in slices {
        let mut gen = s.build()?;
        let records: Vec<Inst> = (0..PROBE_RECORDS).map(|_| gen.next_inst()).collect();
        let mut fe = exynos_branch::frontend::FrontEnd::new(cfg.frontend.clone());
        let mut broken = Vec::with_capacity(records.len());
        let t = Instant::now();
        rec.span("branch.on_inst", Some(root), |_| {
            for inst in &records {
                let fb = fe.on_inst(inst);
                broken.push(fb.map_or(true, |f| f.redirect.is_some()));
            }
        });
        fe_ns += t.elapsed().as_nanos();
        if let Some(ucfg) = cfg.uoc.clone() {
            let mut uoc = exynos_uoc::Uoc::new(ucfg);
            let ubtb = fe.ubtb_mut();
            let t = Instant::now();
            rec.span("uoc.on_inst", Some(root), |_| {
                for (inst, &b) in records.iter().zip(&broken) {
                    if uoc
                        .on_inst(
                            inst.pc,
                            inst.branch.is_some(),
                            inst.is_taken_branch(),
                            b,
                            ubtb,
                        )
                        .is_err()
                    {
                        uoc.demote_to_filter();
                    }
                }
            });
            uoc_ns += t.elapsed().as_nanos();
        }
        let mut mem = MemSystem::new(&cfg);
        let t = Instant::now();
        rec.span("mem.access", Some(root), |_| -> Result<(), SimError> {
            for (now, inst) in records.iter().enumerate() {
                if let Some(r) = inst.mem {
                    match inst.kind {
                        InstKind::Load => black_box(mem.load(inst.pc, r.vaddr, now as u64, false)?),
                        _ => black_box(mem.store(inst.pc, r.vaddr, now as u64)?),
                    };
                    mem_ops += 1;
                }
            }
            Ok(())
        })?;
        mem_ns += t.elapsed().as_nanos();
        insts += records.len() as u64;
    }
    let mut m = Metrics::new();
    m.insert("branch.on_inst_ns", fe_ns as f64 / insts.max(1) as f64);
    m.insert("uoc.on_inst_ns", uoc_ns as f64 / insts.max(1) as f64);
    m.insert("mem.load_ns", mem_ns as f64 / mem_ops.max(1) as f64);
    Ok(m)
}

/// `chunk_cache.*` and `batch.pipeline_stalls` from a cache's counters.
pub fn cache_metrics(cache: &ChunkCache) -> Metrics {
    let s = cache.stats();
    let mut m = Metrics::new();
    m.insert("chunk_cache.hit_frac", ratio(s.hits, s.hits + s.misses));
    m.insert("chunk_cache.evictions", s.evictions as f64);
    m.insert("chunk_cache.mib", s.bytes as f64 / (1u64 << 20) as f64);
    m.insert("batch.pipeline_stalls", cache.take_stalls().len() as f64);
    m
}

/// The chunk cache at the service budget, read twice over the first
/// `PROBE_RECORDS` records of each slice: the first pass misses, the
/// second hits while the set fits. Times every `next_block` call.
pub fn cache_probe(
    slices: &[SliceSpec],
    rec: &Recorder,
    root: SpanId,
) -> Result<Metrics, SimError> {
    let cache = Arc::new(ChunkCache::with_budget(Some(SERVICE_CACHE_BYTES)));
    for _pass in 0..2 {
        for s in slices {
            let mut stream = CachedStream::for_slice(Arc::clone(&cache), s);
            let mut rem = PROBE_RECORDS;
            while rem > 0 {
                let (_, range) = rec
                    .span("chunk_cache.next_block", Some(root), |_| {
                        stream.next_block(rem.min(CHUNK_LEN))
                    })
                    .map_err(SimError::from)?;
                rem = rem.saturating_sub(range.len().max(1));
            }
        }
    }
    Ok(cache_metrics(&cache))
}

/// `chunk_cache.next_block_us_p50` from every `next_block` span.
pub fn next_block_metric(all: &[Span]) -> f64 {
    let us: Vec<f64> = spans::durations(all, "chunk_cache.next_block")
        .iter()
        .map(|&ns| ns as f64 * 1e-3)
        .collect();
    median(&us)
}

/// Fork, snapshot encode/decode and image size over a pool. Encodes and
/// decodes a seed-free fixed sample of one job per generation.
pub fn pool_probe(pool: &WarmPool, rec: &Recorder, root: SpanId) -> Result<Metrics, SimError> {
    let (jobs, bytes, _) = adapter::pool_shape(pool);
    let gens = CoreConfig::all_generations();
    let per_gen = jobs / gens.len().max(1);
    let mut fork_us = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let t = Instant::now();
        black_box(rec.span("warm.fork", Some(root), |_| adapter::fork(pool, i)));
        fork_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (mut enc_ms, mut dec_ms, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    for (g, cfg) in gens.iter().enumerate() {
        let i = g * per_gen;
        let sim = adapter::fork(pool, i);
        let t = Instant::now();
        let image = rec.span("snapshot.encode", Some(root), |_| sim.checkpoint());
        enc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(rec.span("snapshot.decode", Some(root), |_| {
            Simulator::resume_with_config(cfg.clone(), &image)
        })?);
        dec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        kib.push(adapter::pool_image(pool, i).len() as f64 / 1024.0);
    }
    let mut m = Metrics::new();
    m.insert("warm.pool_mib", bytes as f64 / (1u64 << 20) as f64);
    m.insert("warm.fork_us_p50", median(&fork_us));
    m.insert("snapshot.encode_ms_p50", median(&enc_ms));
    m.insert("snapshot.decode_ms_p50", median(&dec_ms));
    m.insert("snapshot.image_kib", median(&kib));
    Ok(m)
}
