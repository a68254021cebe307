//! The service job mix: an in-process engine served on a private unix
//! socket, driven by closed-loop clients over the wire protocol.
//!
//! Each client sends its next job only after the previous one finished:
//! submit, poll `status` every [`POLL`] until the job is terminal, then
//! fetch the `result`. A job's latency runs from the submit call to the
//! received payload. A refused, failed or timed-out job is a failure.

use crate::adapter;
use crate::spans::{Recorder, SpanId};
use crate::stats::Rng;
use exynos_core::cancel::CancelToken;
use exynos_service::json::Json;
use exynos_service::{socket, Engine, JobCtx, JobRunner, JobSpec, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Directory, relative to the working directory, holding each server's
/// private temp dir. Relative so the socket path stays short however
/// deep the checkout is.
pub const TMP_ROOT: &str = ".e2ebench-tmp";

/// Interval between status polls.
pub const POLL: Duration = Duration::from_millis(2);

/// Bound on one request/response exchange.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Bound on the wait for a new server to answer `ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Bound on one job from submit to payload.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// Bound on the drain after `shutdown`.
const DRAIN_WAIT: Duration = Duration::from_secs(30);

/// One job of a deck: its wire spec and the instructions it simulates.
#[derive(Debug, Clone)]
pub struct DeckEntry {
    /// The `job` object of a `submit` request.
    pub spec: String,
    /// Simulated instructions (all generations) the job steps.
    pub sim_insts: u64,
}

/// Slice groups in a scale-1 standard-suite sweep job.
fn sweep_jobs() -> u64 {
    exynos_trace::standard_suite(1).len() as u64
        * exynos_core::CoreConfig::all_generations().len() as u64
}

fn program(name: &str, warmup: u64, detail: u64) -> DeckEntry {
    DeckEntry {
        spec: format!(
            r#"{{"kind":"program","program":"{name}","warmup":{warmup},"detail":{detail}}}"#
        ),
        sim_insts: 6 * (warmup + detail),
    }
}

fn checkpoint(gen: &str, warmup: u64) -> DeckEntry {
    DeckEntry {
        spec: format!(r#"{{"kind":"checkpoint","gen":"{gen}","warmup":{warmup}}}"#),
        sim_insts: warmup,
    }
}

fn sweep(warmup: u64, detail: u64) -> DeckEntry {
    DeckEntry {
        spec: format!(
            r#"{{"kind":"sweep","scale":1,"warmup":{warmup},"detail":{detail},"threads":1}}"#
        ),
        sim_insts: sweep_jobs() * detail,
    }
}

/// Warmup of every sweep job, so all of them fork one shared warm pool.
pub const SWEEP_POOL_WARMUP: u64 = 10_000;

/// The timed job mix, 46 jobs: 32 program jobs (reads; the long window
/// pushes the corpus's decoded working set past the 64 MiB chunk cache),
/// 9 checkpoint jobs (writes: snapshot encode plus journal appends) and
/// 5 small sweeps forked from the shared warm pool.
pub fn full_deck() -> Vec<DeckEntry> {
    let mut deck = Vec::new();
    for (name, _) in exynos_asm::CORPUS {
        for (w, d) in [
            (10_000, 10_000),
            (40_000, 40_000),
            (40_000, 40_000),
            (80_000, 100_000),
        ] {
            deck.push(program(name, w, d));
        }
    }
    for gen in ["m1", "m2", "m3", "m4", "m5", "m6"] {
        deck.push(checkpoint(gen, 20_000));
    }
    for gen in ["m4", "m5", "m6"] {
        deck.push(checkpoint(gen, 40_000));
    }
    for detail in [1_000, 1_500, 2_000, 2_500, 3_000] {
        deck.push(sweep(SWEEP_POOL_WARMUP, detail));
    }
    deck
}

/// The untimed round a server runs in setup: one job of every kind and
/// every program once, which builds the sweep jobs' warm pool.
pub fn prime_deck() -> Vec<DeckEntry> {
    let mut deck: Vec<DeckEntry> = exynos_asm::CORPUS
        .iter()
        .map(|(n, _)| program(n, 10_000, 10_000))
        .collect();
    deck.push(checkpoint("m6", 20_000));
    deck.push(sweep(SWEEP_POOL_WARMUP, 1_000));
    deck
}

/// A small mix for measuring the service layers beside a sweep workload.
pub fn mini_deck() -> Vec<DeckEntry> {
    let mut deck: Vec<DeckEntry> = exynos_asm::CORPUS
        .iter()
        .map(|(n, _)| program(n, 5_000, 5_000))
        .collect();
    deck.push(checkpoint("m1", 5_000));
    deck.push(checkpoint("m6", 5_000));
    deck.push(sweep(2_000, 500));
    deck
}

/// The job sequence: deck pass `p` is the deck in an order shuffled by
/// `(seed, p)`, so every pass holds the same jobs and the seed decides
/// their order.
#[derive(Debug)]
pub struct Sequence {
    deck: Vec<DeckEntry>,
    order: Vec<usize>,
}

impl Sequence {
    /// Passes `first..first + passes` over `deck`.
    pub fn new(deck: Vec<DeckEntry>, seed: u64, first: usize, passes: usize) -> Sequence {
        let mut order = Vec::with_capacity(deck.len() * passes);
        for p in first..first + passes {
            let mut pass: Vec<usize> = (0..deck.len()).collect();
            Rng::new(seed, 0x5E9_0000 + p as u64).shuffle(&mut pass);
            order.extend(pass);
        }
        Sequence { deck, order }
    }

    /// Jobs in the sequence.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Job `i` of the sequence.
    pub fn get(&self, i: usize) -> &DeckEntry {
        &self.deck[self.order[i]]
    }
}

/// What one client saw of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Position in the sequence.
    pub index: usize,
    /// Wire spec.
    pub spec: String,
    /// Simulated instructions.
    pub sim_insts: u64,
    /// Submit to payload, seconds.
    pub latency_s: f64,
    /// Status polls made.
    pub polls: u64,
    /// The payload, or why there is none.
    pub outcome: Result<String, String>,
}

/// An engine served on a private socket in its own temp dir, which is
/// removed when the server stops or is dropped.
#[derive(Debug)]
pub struct Server {
    dir: PathBuf,
    sock: PathBuf,
    journal: PathBuf,
    serve: Option<JoinHandle<std::io::Result<bool>>>,
}

impl Server {
    /// Start an engine with `workers` workers and its journal on, serve it
    /// on a socket in `TMP_ROOT/<tag>-<pid>`, and wait until it answers.
    pub fn start(tag: &str, workers: usize) -> Result<Server, String> {
        let dir = Path::new(TMP_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("temp dir {}: {e}", dir.display()))?;
        let (sock, journal) = (dir.join("s.sock"), dir.join("jobs.wal"));
        let cfg = ServiceConfig {
            workers,
            journal_path: Some(journal.clone()),
            ..ServiceConfig::default()
        };
        let mut server = Server {
            dir,
            sock: sock.clone(),
            journal,
            serve: None,
        };
        let engine = Engine::start(Box::new(adapter::runner(workers)), cfg)
            .map_err(|e| format!("engine: {e}"))?;
        server.serve = Some(std::thread::spawn(move || socket::serve(engine, &sock)));
        let t = Instant::now();
        while server.call(r#"{"cmd":"ping"}"#).is_err() {
            if t.elapsed() > READY_TIMEOUT {
                return Err("service did not answer ping".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    /// One request; the response must parse and carry `"ok":true`.
    pub fn call(&self, request: &str) -> Result<Json, String> {
        let line =
            socket::call(&self.sock, request, CALL_TIMEOUT).map_err(|e| format!("socket: {e}"))?;
        let v = Json::parse(&line)?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            _ => Err(line),
        }
    }

    /// Size of the journal in bytes.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    /// Request shutdown and wait, bounded, for the drain.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.serve.take() else {
            return Ok(());
        };
        let asked = self.call(r#"{"cmd":"shutdown"}"#);
        let t = Instant::now();
        while !handle.is_finished() && t.elapsed() < DRAIN_WAIT {
            std::thread::sleep(Duration::from_millis(5));
        }
        let result = if !handle.is_finished() {
            Err("service did not drain in time".to_owned())
        } else {
            match handle.join() {
                Ok(Ok(true)) => asked.map(|_| ()),
                Ok(Ok(false)) => Err("service drain timed out".to_owned()),
                Ok(Err(e)) => Err(format!("serve loop: {e}")),
                Err(_) => Err("serve loop panicked".to_owned()),
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// When the clients stop claiming jobs.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Keep going at least this long.
    pub seconds: f64,
    /// ... and until this many jobs completed.
    pub min_jobs: usize,
    /// Never claim more jobs than this.
    pub max_jobs: usize,
    /// Stop claiming after this long regardless.
    pub hard_seconds: f64,
}

/// Run `clients` closed-loop clients over `seq` until `stop`, with a
/// span per call when `trace` is given. Results are in sequence order.
pub fn drive(
    server: &Server,
    seq: &Sequence,
    clients: usize,
    stop: Stop,
    trace: Option<(&Recorder, SpanId)>,
) -> Vec<JobResult> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let elapsed = t0.elapsed().as_secs_f64();
                let enough =
                    elapsed >= stop.seconds && done.load(Ordering::SeqCst) >= stop.min_jobs;
                if enough || elapsed >= stop.hard_seconds {
                    break;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= stop.max_jobs.min(seq.len()) {
                    break;
                }
                let r = run_job(server, i, seq.get(i), trace);
                if r.outcome.is_ok() {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                out.lock().unwrap_or_else(|p| p.into_inner()).push(r);
            });
        }
    });
    let mut v = out.into_inner().unwrap_or_else(|p| p.into_inner());
    v.sort_by_key(|r| r.index);
    v
}

fn run_job(
    server: &Server,
    index: usize,
    job: &DeckEntry,
    trace: Option<(&Recorder, SpanId)>,
) -> JobResult {
    let span = |name: &'static str, parent: Option<SpanId>| {
        trace.map(|(rec, root)| rec.start(name, parent.or(Some(root))))
    };
    let close = |id: Option<SpanId>| {
        if let (Some((rec, _)), Some(id)) = (trace, id) {
            rec.end(id);
        }
    };
    let t = Instant::now();
    let root = span("client.job", None);
    let mut polls = 0;
    let outcome = (|| -> Result<String, String> {
        let s = span("client.submit", root);
        let resp = server.call(&format!(r#"{{"cmd":"submit","job":{}}}"#, job.spec));
        close(s);
        let id = resp?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("submit without id")?;
        loop {
            std::thread::sleep(POLL);
            polls += 1;
            let s = span("client.poll", root);
            let st = server.call(&format!(r#"{{"cmd":"status","id":{id}}}"#));
            close(s);
            match st?.get("state").and_then(Json::as_str) {
                Some("completed") => break,
                Some("failed") => return Err(format!("job {id} failed")),
                _ if t.elapsed() > JOB_TIMEOUT => {
                    let _ = server.call(&format!(r#"{{"cmd":"cancel","id":{id}}}"#));
                    return Err(format!("job {id} timed out"));
                }
                _ => {}
            }
        }
        let s = span("client.result", root);
        let res = server.call(&format!(r#"{{"cmd":"result","id":{id}}}"#));
        close(s);
        res?.get("payload")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "result without payload".to_owned())
    })();
    close(root);
    JobResult {
        index,
        spec: job.spec.clone(),
        sim_insts: job.sim_insts,
        latency_s: t.elapsed().as_secs_f64(),
        polls,
        outcome,
    }
}

/// Start a server and run `prime` through it once; any failure fails
/// the setup.
pub fn start_primed(tag: &str, threads: usize, prime: Vec<DeckEntry>) -> Result<Server, String> {
    let server = Server::start(tag, threads)?;
    let n = prime.len();
    let seq = Sequence::new(prime, 0, 0, 1);
    let stop = Stop {
        seconds: 0.0,
        min_jobs: n,
        max_jobs: n,
        hard_seconds: 120.0,
    };
    let results = drive(&server, &seq, threads, stop, None);
    if results.len() != n || results.iter().any(|r| r.outcome.is_err()) {
        return Err(format!(
            "setup round failed: {:?}",
            results.iter().find(|r| r.outcome.is_err())
        ));
    }
    Ok(server)
}

/// Payload of every distinct spec, run in process on a fresh runner
/// (its own pools and chunk cache), in the order given.
pub fn reference_payloads(specs: &[String], threads: usize) -> Vec<Result<String, String>> {
    let runner = adapter::runner(threads);
    adapter::run_indexed(specs.len(), threads, |k| {
        let v = Json::parse(&specs[k])?;
        let spec = JobSpec::from_json(&v)?;
        runner
            .run(&spec, &JobCtx::detached(CancelToken::new()))
            .map_err(|e| e.to_string())
    })
}

/// The service's per-stage p50 latencies in ms, read from `quantiles`.
pub fn stage_p50_ms(q: &Json, stage: &str) -> f64 {
    q.get(&format!("service.latency.{stage}"))
        .and_then(|s| s.get("p50"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        / 1e3
}
