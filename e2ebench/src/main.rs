//! End-to-end and per-layer benchmark of the Exynos M1-M6 simulator.
//!
//! ```text
//! e2ebench --workload <sweep_cold|sweep_warm|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead. Either way it
//! checks its results, prints one line per metric and note, and ends with
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. A
//! wrong or failed operation makes the exit code 1. See `NOTES.md`.

mod adapter;
mod gate;
mod layers;
mod metrics;
mod service;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Args, Report};

const USAGE: &str = "usage: e2ebench --workload <sweep_cold|sweep_warm|service_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !matches!(
        workload.as_str(),
        "sweep_cold" | "sweep_warm" | "service_mix"
    ) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    match (a.workload.as_str(), a.trace) {
        ("sweep_cold", false) => workloads::sweep_cold(a),
        ("sweep_cold", true) => workloads::sweep_cold_traced(a),
        ("sweep_warm", false) => workloads::sweep_warm(a),
        ("sweep_warm", true) => workloads::sweep_warm_traced(a),
        ("service_mix", false) => workloads::service_mix(a),
        _ => workloads::service_mix_traced(a),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::check_catalogue() {
        eprintln!("e2ebench: metric catalogue: {e}");
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.threads
    );
    let mut r = match run(&args) {
        Ok(r) => r,
        Err(e) => Report {
            attempted: 1,
            failed: 1,
            problems: vec![e],
            ..Report::default()
        },
    };
    // (name, unit, note) of every metric this run must print.
    let wanted: Vec<(&str, &str, String)> = if args.trace {
        metrics::LAYERS
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("({} better) -> {}", m.better, m.moves),
                )
            })
            .collect()
    } else {
        metrics::E2E
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("({} better, bound {})", m.better, m.bound),
                )
            })
            .collect()
    };
    let mut json = String::new();
    for (i, (name, unit, note)) in wanted.iter().enumerate() {
        let v = match r.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                r.problems
                    .push(format!("metric {name} not measured ({other:?})"));
                0.0
            }
        };
        println!("metric {name} {v} {unit} {note}");
        json.push_str(&format!(
            "{}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        ));
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "ops attempted {} failed {} ops_failed_frac {frac}",
        r.attempted, r.failed
    );
    for l in &r.lines {
        println!("{l}");
    }
    for p in &r.problems {
        println!("problem {p}");
    }
    let correct = r.problems.is_empty() && r.failed == 0 && r.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        r.attempted.max(1),
        r.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
