//! The three workloads, each with an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics).

use crate::adapter::{self, SliceRecord, WarmPool};
use crate::gate;
use crate::layers::{self, Metrics};
use crate::service::{self, JobResult, Sequence, Server, Stop};
use crate::spans::{self, Recorder};
use crate::stats::{self, median, percentile, Rng};
use exynos_service::json::Json;
use exynos_trace::{standard_suite, SlicePlan, SliceSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Sweep threads and service clients: the host's cores.
    pub threads: usize,
}

/// What a run hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: slice groups in sweeps, jobs in the service.
    pub attempted: u64,
    /// Operations failed, refused, timed out or wrong.
    pub failed: u64,
    /// Correctness problems, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Informational lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.problems.push(why.into());
    }

    fn digest(&mut self, d: impl std::fmt::Display) {
        self.lines.push(format!("results_digest {d}"));
    }

    /// Job latencies in seconds: p50, p90 and the sample-count note.
    fn latencies(&mut self, lat_s: &[f64]) {
        self.metrics.insert("job_p50_ms", median(lat_s) * 1e3);
        self.metrics
            .insert("job_p90_ms", percentile(lat_s, 0.9) * 1e3);
        let n = lat_s.len();
        let note = if stats::tail_supported(n, 0.9) {
            "p90 has at least 10 samples beyond it"
        } else {
            "p90 has fewer than 10 samples beyond it: it reads as the slowest job"
        };
        self.lines.push(format!("job_latency_samples {n} ({note})"));
        if n < 100 {
            let ms: Vec<String> = lat_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
            self.lines
                .push(format!("job_latencies_ms {}", ms.join(" ")));
        }
    }

    /// Throughputs over the timed wall, set-up time, and the peak
    /// resident set read right after the timed phase.
    fn end_to_end(
        &mut self,
        sim_insts: f64,
        jobs: usize,
        wall_s: f64,
        setup_s: f64,
        rss_mib: Option<f64>,
    ) {
        self.metrics.insert("sim_insts_per_s", sim_insts / wall_s);
        self.metrics.insert("jobs_per_s", jobs as f64 / wall_s);
        self.metrics.insert("setup_s", setup_s);
        self.metrics
            .insert("peak_rss_mib", rss_mib.unwrap_or(f64::NAN));
    }
}

/// Times `setup` is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the
/// next, and return the last result with the median time.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    last.map(|v| (v, median(&times)))
        .ok_or_else(|| "no setup ran".to_owned())
}

fn sweep_or_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------- sweeps

/// Cold windows: long enough that warmup transients are gone.
const COLD_PLAN: (u64, u64) = (80_000, 30_000);

/// Windows of the untimed round in setup: every code path at about a
/// quarter of a timed sweep's work.
const PRIME_PLAN: (u64, u64) = (20_000, 8_000);

/// Warmup burned into the warm pool.
const WARM_WARMUP: u64 = 80_000;

/// Detail windows of the warm workload; each timed round runs one sweep
/// per length in a seed-shuffled order.
const WARM_DETAILS: [u64; 4] = [24_000, 28_000, 32_000, 36_000];

/// Detail window of the traced warm sweep and of the setup round.
const WARM_TRACED_DETAIL: u64 = 30_000;

/// Oracle re-simulations per distinct sweep shape.
const ORACLE_PICKS: usize = 6;

/// The standard suite with `seed` XORed into every slice seed.
fn seeded_suite(seed: u64) -> Vec<SliceSpec> {
    let mut suite = standard_suite(1);
    for s in &mut suite {
        s.seed ^= seed;
    }
    suite
}

/// Oracle-check the records at `picks`. A mismatch fails `weight`
/// operations: its slice group in every sweep that repeated the records.
fn check_oracle(
    r: &mut Report,
    records: &[SliceRecord],
    suite: &[SliceSpec],
    plan: (u64, u64),
    picks: &[usize],
    threads: usize,
    weight: u64,
) {
    for msg in gate::check_oracle(records, suite, plan, picks, threads) {
        r.fail(weight, format!("oracle mismatch: {msg}"));
    }
}

/// `sweep_cold`: the seeded suite × M1-M6 through the production batched
/// entry point, cold, on every core.
pub fn sweep_cold(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (suite, setup_s) = timed_setup(|| {
        let suite = seeded_suite(a.seed);
        sweep_or_panic(|| adapter::cold_sweep(&suite, PRIME_PLAN.0, PRIME_PLAN.1, a.threads))?;
        Ok(suite)
    })?;
    let groups = suite.len() as u64;
    let (w, d) = COLD_PLAN;
    let mut first: Option<Vec<SliceRecord>> = None;
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while lat.len() < 2 || t0.elapsed().as_secs_f64() < a.seconds {
        let t = Instant::now();
        let out = sweep_or_panic(|| adapter::cold_sweep(&suite, w, d, a.threads));
        lat.push(t.elapsed().as_secs_f64());
        r.attempted += groups;
        match (out, &first) {
            (Err(e), _) => r.fail(groups, format!("sweep panicked: {e}")),
            (Ok(recs), None) => first = Some(recs),
            (Ok(recs), Some(f)) => {
                let bad = gate::differing_groups(f, &recs, suite.len());
                if !bad.is_empty() {
                    r.fail(
                        bad.len() as u64,
                        format!(
                            "sweep {} differs from the first in groups {bad:?}",
                            lat.len()
                        ),
                    );
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let sweeps = lat.len();
    r.end_to_end(
        (sweeps as u64 * groups * 6 * (w + d)) as f64,
        sweeps,
        wall,
        setup_s,
        stats::peak_rss_mib(),
    );
    r.latencies(&lat);
    let Some(first) = first else { return Ok(r) };
    let picks = gate::sample_indices(a.seed, 1, first.len(), ORACLE_PICKS);
    check_oracle(
        &mut r,
        &first,
        &suite,
        COLD_PLAN,
        &picks,
        a.threads,
        sweeps as u64,
    );
    r.digest(gate::digest_records(&first));
    Ok(r)
}

/// `sweep_warm`: one warm pool built in setup; each timed sweep forks a
/// detail window from it through the production warm entry point.
pub fn sweep_warm(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (pool, setup_s) = timed_setup(|| {
        let pool = sweep_or_panic(|| adapter::build_pool(1, WARM_WARMUP, a.threads))?;
        sweep_or_panic(|| adapter::warm_sweep(&pool, PRIME_PLAN.1, a.threads))?;
        Ok(pool)
    })?;
    let suite = standard_suite(1);
    let groups = suite.len() as u64;
    let mut by_detail: BTreeMap<u64, Vec<SliceRecord>> = BTreeMap::new();
    let mut first_round = Vec::new();
    let (mut lat, mut sim_insts) = (Vec::new(), 0u64);
    let t0 = Instant::now();
    for round in 0.. {
        if round > 0 && t0.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
        let mut order = WARM_DETAILS;
        Rng::new(a.seed, 0xD0 + round).shuffle(&mut order);
        for d in order {
            let t = Instant::now();
            let out = sweep_or_panic(|| adapter::warm_sweep(&pool, d, a.threads));
            lat.push(t.elapsed().as_secs_f64());
            r.attempted += groups;
            let recs = match out {
                Ok(recs) => recs,
                Err(e) => {
                    r.fail(groups, format!("warm sweep panicked: {e}"));
                    continue;
                }
            };
            sim_insts += groups * 6 * d;
            if round == 0 {
                first_round.push((d, gate::digest_records(&recs)));
            }
            match by_detail.get(&d) {
                None => {
                    by_detail.insert(d, recs);
                }
                Some(f) => {
                    let bad = gate::differing_groups(f, &recs, suite.len());
                    if !bad.is_empty() {
                        r.fail(
                            bad.len() as u64,
                            format!(
                                "warm sweep d={d} differs from its first run in groups {bad:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    r.end_to_end(
        sim_insts as f64,
        lat.len(),
        wall,
        setup_s,
        stats::peak_rss_mib(),
    );
    r.latencies(&lat);
    drop(pool);
    for (&d, recs) in &by_detail {
        let picks = gate::sample_indices(a.seed, d, recs.len(), ORACLE_PICKS / 2);
        let runs = (lat.len() / WARM_DETAILS.len()).max(1) as u64;
        check_oracle(
            &mut r,
            recs,
            &suite,
            (WARM_WARMUP, d),
            &picks,
            a.threads,
            runs,
        );
    }
    let labels: Vec<(String, String)> = first_round
        .iter()
        .map(|(d, f)| (d.to_string(), f.to_string()))
        .collect();
    r.digest(gate::digest_texts(
        labels.iter().map(|(a, b)| (a.as_str(), b.as_str())),
    ));
    Ok(r)
}

// --------------------------------------------------------------- service

/// Jobs the timed service run must complete: enough for 10 beyond p90.
const MIN_JOBS: usize = 100;

/// Deck passes available to the clients.
const MAX_PASSES: usize = 16;

/// Hard stop for claiming new jobs, so a stalled service still exits in
/// time.
const HARD_SECONDS: f64 = 90.0;

/// Compare every completed job's payload with an in-process run of the
/// same spec on a fresh runner; failures and mismatches count.
fn verify_jobs(r: &mut Report, results: &[JobResult], threads: usize) {
    let mut specs: Vec<String> = results
        .iter()
        .filter(|j| j.outcome.is_ok())
        .map(|j| j.spec.clone())
        .collect();
    specs.sort();
    specs.dedup();
    let refs: BTreeMap<&String, Result<String, String>> = specs
        .iter()
        .zip(service::reference_payloads(&specs, threads))
        .collect();
    for j in results {
        match (&j.outcome, refs.get(&j.spec)) {
            (Err(e), _) => r.fail(1, format!("job {} {}: {e}", j.index, j.spec)),
            (Ok(got), Some(Ok(want))) if got == want => {}
            (Ok(_), want) => r.fail(
                1,
                format!(
                    "job {} {}: payload differs from in-process run {want:?}",
                    j.index, j.spec
                ),
            ),
        }
    }
}

fn job_stats(results: &[JobResult]) -> (Vec<f64>, u64, usize) {
    let ok: Vec<&JobResult> = results.iter().filter(|j| j.outcome.is_ok()).collect();
    (
        ok.iter().map(|j| j.latency_s).collect(),
        ok.iter().map(|j| j.sim_insts).sum(),
        ok.len(),
    )
}

/// `service_mix`: the seeded job sequence through an in-process engine
/// on a private socket, `threads` closed-loop clients.
pub fn service_mix(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (server, setup_s) =
        timed_setup(|| service::start_primed("svc", a.threads, service::prime_deck()))?;
    let seq = Sequence::new(service::full_deck(), a.seed, 0, MAX_PASSES);
    let stop = Stop {
        seconds: a.seconds,
        min_jobs: MIN_JOBS,
        max_jobs: seq.len(),
        hard_seconds: HARD_SECONDS,
    };
    let t0 = Instant::now();
    let results = service::drive(&server, &seq, a.threads, stop, None);
    let wall = t0.elapsed().as_secs_f64();
    let rss = stats::peak_rss_mib();
    if let Err(e) = server.stop() {
        r.fail(1, format!("service shutdown: {e}"));
    }
    r.attempted += results.len() as u64;
    let (lat, sim_insts, done) = job_stats(&results);
    r.end_to_end(sim_insts as f64, done, wall, setup_s, rss);
    r.latencies(&lat);
    if done < MIN_JOBS {
        r.problems
            .push(format!("only {done} jobs completed, {MIN_JOBS} required"));
    }
    verify_jobs(&mut r, &results, a.threads);
    let head: Vec<(&str, &str)> = results
        .iter()
        .take(MIN_JOBS)
        .map(|j| (j.spec.as_str(), j.outcome.as_deref().unwrap_or("")))
        .collect();
    r.digest(gate::digest_texts(head));
    Ok(r)
}

// ---------------------------------------------------------------- traced

/// Fill every per-layer metric the traced round did not measure, from
/// probes over `slices` (the workload's own records).
fn battery(
    m: &mut Metrics,
    lines: &mut Vec<String>,
    slices: &[SliceSpec],
    all: &[SliceSpec],
    a: &Args,
    rec: &Recorder,
) -> Result<(), String> {
    let root = rec.start("battery", None);
    let err = |e: exynos_core::SimError| e.to_string();
    let put = |m: &mut Metrics, probe: Metrics| {
        for (k, v) in probe {
            m.entry(k).or_insert(v);
        }
    };
    put(m, layers::trace_probe(all, rec, root).map_err(err)?);
    put(m, layers::asm_probe(rec, root).map_err(err)?);
    put(m, layers::replay_probe(slices, rec, root).map_err(err)?);
    if !m.contains_key("chunk_cache.hit_frac") || !m.contains_key("chunk_cache.next_block_us_p50") {
        put(m, layers::cache_probe(slices, rec, root).map_err(err)?);
    }
    if !m.contains_key("chunk_cache.next_block_us_p50") {
        m.insert(
            "chunk_cache.next_block_us_p50",
            layers::next_block_metric(&rec.spans()),
        );
    }
    if !m.contains_key("warm.pool_mib") {
        let t = Instant::now();
        let pool =
            sweep_or_panic(|| adapter::build_pool(1, service::SWEEP_POOL_WARMUP, a.threads))?;
        m.entry("warm.pool_build_s")
            .or_insert(t.elapsed().as_secs_f64());
        put(m, layers::pool_probe(&pool, rec, root).map_err(err)?);
    }
    if !m.contains_key("core.ipc.m1") {
        let sroot = rec.start("battery.sweep", Some(root));
        let t = Instant::now();
        let trace =
            layers::traced_cold(slices, (20_000, 20_000), a.threads, rec, sroot).map_err(err)?;
        let wall = t.elapsed().as_secs_f64();
        rec.end(sroot);
        let (sm, above) = layers::sweep_metrics(&trace, &rec.spans(), a.threads, wall);
        put(m, sm);
        lines.extend(above.into_iter().map(|l| format!("ipc_above_width {l}")));
    }
    if !m.contains_key("service.submit_ms_p50") {
        let server = service::start_primed("layers", a.threads, service::mini_deck())?;
        let seq = Sequence::new(service::mini_deck(), a.seed, 1, 1);
        let n = seq.len();
        let stop = Stop {
            seconds: 0.0,
            min_jobs: n,
            max_jobs: n,
            hard_seconds: HARD_SECONDS,
        };
        let results = service::drive(&server, &seq, a.threads, stop, Some((rec, root)));
        put(m, service_metrics(&server, &results)?);
        server.stop()?;
    }
    rec.end(root);
    Ok(())
}

/// `service.*` layer metrics read from a running server, plus its
/// chunk-cache counters under `chunk_cache.*`.
fn service_metrics(server: &Server, results: &[JobResult]) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let q = server.call(r#"{"cmd":"quantiles"}"#)?;
    let q = q.get("quantiles").ok_or("no quantiles")?;
    for (stage, name) in [
        ("submit", "service.submit_ms_p50"),
        ("queue_wait", "service.queue_wait_ms_p50"),
        ("attempt", "service.attempt_ms_p50"),
        ("result_encode", "service.result_encode_ms_p50"),
        ("warm_pool_fetch", "service.warm_pool_fetch_ms_p50"),
    ] {
        m.insert(name, service::stage_p50_ms(q, stage));
    }
    let st = server.call(r#"{"cmd":"stats"}"#)?;
    let st = st.get("stats").ok_or("no stats")?;
    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    m.insert("service.shed_total", num(st, "sheds"));
    m.insert("service.retry_total", num(st, "retries"));
    let polls: u64 = results.iter().map(|j| j.polls).sum();
    m.insert(
        "service.polls_per_job",
        polls as f64 / results.len().max(1) as f64,
    );
    m.insert(
        "service.journal_bytes_per_job",
        server.journal_bytes() as f64 / num(st, "submitted").max(1.0),
    );
    let reg = server.call(r#"{"cmd":"metrics"}"#)?;
    let reg = reg.get("metrics").ok_or("no metrics")?;
    let (hits, misses) = (
        num(reg, "chunk_cache.hit_total"),
        num(reg, "chunk_cache.miss_total"),
    );
    m.insert("chunk_cache.hit_frac", hits / (hits + misses).max(1.0));
    m.insert(
        "chunk_cache.evictions",
        num(reg, "chunk_cache.eviction_total"),
    );
    m.insert(
        "chunk_cache.mib",
        num(reg, "chunk_cache.bytes") / (1u64 << 20) as f64,
    );
    let stalls = q
        .get("pipeline.stall")
        .and_then(|s| s.get("count"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    m.insert("batch.pipeline_stalls", stalls);
    Ok(m)
}

/// Print where the traced time went and write the spans out.
fn finish_trace(r: &mut Report, rec: &Recorder, a: &Args) {
    let all = rec.spans();
    let mut totals: Vec<(&str, (u64, u64, u64))> = spans::by_name(&all).into_iter().collect();
    totals.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    for (name, (count, total, own)) in totals {
        r.lines.push(format!(
            "span {name} count {count} total_ms {:.3} self_ms {:.3}",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        ));
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    match spans::write_jsonl(&all, &path) {
        Ok(()) => r.lines.push(format!(
            "spans_written {} ({} spans)",
            path.display(),
            all.len()
        )),
        Err(e) => r
            .lines
            .push(format!("spans_not_written {}: {e}", path.display())),
    }
}

/// Where traced runs leave their span files, relative to the working
/// directory.
pub const OUT_DIR: &str = ".e2ebench-out";

fn sample_slices(suite: &[SliceSpec], seed: u64) -> Vec<SliceSpec> {
    gate::sample_indices(seed, 2, suite.len(), 4)
        .into_iter()
        .map(|i| suite[i].clone())
        .collect()
}

/// Traced `sweep_cold`: one production sweep, then the same sweep traced.
pub fn sweep_cold_traced(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let suite = seeded_suite(a.seed);
    sweep_or_panic(|| adapter::cold_sweep(&suite, PRIME_PLAN.0, PRIME_PLAN.1, a.threads))?;
    let plain = || {
        timed(|| {
            sweep_or_panic(|| adapter::cold_sweep(&suite, COLD_PLAN.0, COLD_PLAN.1, a.threads))
        })
    };
    let before = plain()?;
    let rec = Recorder::new(a.seed);
    let root = rec.start("workload.sweep_cold", None);
    let t = Instant::now();
    let trace =
        layers::traced_cold(&suite, COLD_PLAN, a.threads, &rec, root).map_err(|e| e.to_string())?;
    let wall_t = t.elapsed().as_secs_f64();
    rec.end(root);
    let after = plain()?;
    traced_sweep_common(
        &mut r,
        &rec,
        a,
        &suite,
        [before, after],
        (trace, wall_t),
        COLD_PLAN,
    )?;
    Ok(r)
}

/// Traced `sweep_warm`: one production warm sweep, then the same sweep
/// traced; the pool is timed as it is built.
pub fn sweep_warm_traced(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let suite = standard_suite(1);
    let t = Instant::now();
    let pool: WarmPool = sweep_or_panic(|| adapter::build_pool(1, WARM_WARMUP, a.threads))?;
    r.metrics
        .insert("warm.pool_build_s", t.elapsed().as_secs_f64());
    sweep_or_panic(|| adapter::warm_sweep(&pool, PRIME_PLAN.1, a.threads))?;
    let plain =
        || timed(|| sweep_or_panic(|| adapter::warm_sweep(&pool, WARM_TRACED_DETAIL, a.threads)));
    let before = plain()?;
    let rec = Recorder::new(a.seed);
    let root = rec.start("workload.sweep_warm", None);
    let t = Instant::now();
    let (trace, cache) =
        layers::traced_warm(&pool, &suite, WARM_TRACED_DETAIL, a.threads, &rec, root)
            .map_err(|e| e.to_string())?;
    let wall_t = t.elapsed().as_secs_f64();
    rec.end(root);
    let after = plain()?;
    r.metrics.extend(layers::cache_metrics(&cache));
    r.metrics.insert(
        "chunk_cache.next_block_us_p50",
        layers::next_block_metric(&rec.spans()),
    );
    let pool_root = rec.start("warm.pool_probe", None);
    r.metrics
        .extend(layers::pool_probe(&pool, &rec, pool_root).map_err(|e| e.to_string())?);
    rec.end(pool_root);
    drop(pool);
    traced_sweep_common(
        &mut r,
        &rec,
        a,
        &suite,
        [before, after],
        (trace, wall_t),
        (WARM_WARMUP, WARM_TRACED_DETAIL),
    )?;
    Ok(r)
}

/// Run `f` and time it.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, t.elapsed().as_secs_f64()))
}

/// Checks and metrics shared by the traced sweeps. `plain` holds the
/// production sweeps run just before and just after the traced one; the
/// tracing overhead compares the traced wall with their mean.
fn traced_sweep_common(
    r: &mut Report,
    rec: &Recorder,
    a: &Args,
    suite: &[SliceSpec],
    plain: [(Vec<SliceRecord>, f64); 2],
    (trace, wall_t): (layers::SweepTrace, f64),
    plan: (u64, u64),
) -> Result<(), String> {
    let groups = suite.len() as u64;
    r.attempted = 3 * groups;
    let [(plain, u1), (again, u2)] = plain;
    for (what, recs) in [("traced", &trace.records), ("second production", &again)] {
        let bad = gate::differing_groups(&plain, recs, suite.len());
        if !bad.is_empty() {
            r.fail(
                bad.len() as u64,
                format!("{what} sweep differs from the first production sweep in groups {bad:?}"),
            );
        }
    }
    let wall_u = (u1 + u2) / 2.0;
    r.lines.push(format!(
        "trace_walls_s untraced {u1:.3} traced {wall_t:.3} untraced {u2:.3}"
    ));
    let picks = gate::sample_indices(a.seed, 1, plain.len(), ORACLE_PICKS / 2);
    check_oracle(r, &plain, suite, plan, &picks, a.threads, 3);
    r.digest(gate::digest_records(&plain));
    let (m, above) = layers::sweep_metrics(&trace, &rec.spans(), a.threads, wall_t);
    r.metrics.extend(m);
    r.lines
        .extend(above.into_iter().map(|l| format!("ipc_above_width {l}")));
    r.metrics
        .insert("bench.trace_overhead_frac", wall_t / wall_u - 1.0);
    battery(
        &mut r.metrics,
        &mut r.lines,
        &sample_slices(suite, a.seed),
        suite,
        a,
        rec,
    )?;
    finish_trace(r, rec, a);
    Ok(())
}

/// Traced `service_mix`: one deck pass untraced, the next traced, on one
/// primed server; then the service's own quantiles and counters.
pub fn service_mix_traced(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let server = service::start_primed("svc", a.threads, service::prime_deck())?;
    let n = service::full_deck().len();
    let stop = Stop {
        seconds: 0.0,
        min_jobs: n,
        max_jobs: n,
        hard_seconds: HARD_SECONDS,
    };
    let rec = Recorder::new(a.seed);
    let root = rec.start("workload.service_mix", None);
    // Deck passes 0 and 2 untraced around pass 1 traced, on one server.
    let mut passes = Vec::new();
    for pass in 0..3 {
        let seq = Sequence::new(service::full_deck(), a.seed, pass, 1);
        let trace = (pass == 1).then_some((&rec, root));
        passes.push(timed(|| {
            Ok(service::drive(&server, &seq, a.threads, stop, trace))
        })?);
    }
    rec.end(root);
    r.metrics.extend(service_metrics(&server, &passes[1].0)?);
    if let Err(e) = server.stop() {
        r.fail(1, format!("service shutdown: {e}"));
    }
    for (jobs, _) in &passes {
        r.attempted += jobs.len() as u64;
        verify_jobs(&mut r, jobs, a.threads);
    }
    let all: Vec<(&str, &str)> = passes
        .iter()
        .flat_map(|(jobs, _)| jobs)
        .map(|j| (j.spec.as_str(), j.outcome.as_deref().unwrap_or("")))
        .collect();
    r.digest(gate::digest_texts(all));
    let wall_u = (passes[0].1 + passes[2].1) / 2.0;
    r.lines.push(format!(
        "trace_walls_s untraced {:.3} traced {:.3} untraced {:.3}",
        passes[0].1, passes[1].1, passes[2].1
    ));
    r.metrics
        .insert("bench.trace_overhead_frac", passes[1].1 / wall_u - 1.0);
    let corpus = exynos_asm::corpus_slices(SlicePlan::default(), adapter::PROGRAM_REGION_BASE)
        .map_err(|e| e.to_string())?;
    battery(&mut r.metrics, &mut r.lines, &corpus, &corpus, a, &rec)?;
    finish_trace(&mut r, &rec, a);
    Ok(r)
}
