//! The metric catalogue: every name the benchmark prints, its unit, its
//! better direction, and for each per-layer metric the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names.

use crate::stats::{valid_metric_name, E2E_CAP, LAYER_CAP};

/// An end-to-end metric: measured only in untraced runs.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric: measured only in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix names the layer's module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, printed by every workload. A "job" is one sweep
/// on the sweep workloads and one service job on `service_mix`.
///
/// The timing bounds sit at the 0.25 ceiling: on the 2-vCPU reference
/// host the timings of ten runs spread by 0.02-0.19 (interquartile range
/// over median) because the guest's speed drifts with load elsewhere on
/// the machine; see `NOTES.md`. Memory is steady and keeps a tight bound.
pub const E2E: [E2e; 6] = [
    e2e("sim_insts_per_s", "inst/s", "higher", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_ms", "ms", "lower", 0.25),
    e2e("job_p90_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const COLD: &str = "sim_insts_per_s on sweep_cold";
const COLD_WARM: &str = "sim_insts_per_s on sweep_cold (most), on sweep_warm (less)";
const EXACT: &str = "none: simulated, exact";
const CACHE: &str = "job_p50_ms and jobs_per_s on service_mix; sim_insts_per_s on sweep_warm";
const SWEEP: &str = "sim_insts_per_s on sweep_cold";
const WARM: &str = "setup_s, peak_rss_mib and sim_insts_per_s on sweep_warm; setup_s and peak_rss_mib on service_mix";
const SERVICE: &str = "job_p90_ms and jobs_per_s on service_mix only";

/// Per-layer metrics, printed by every traced run.
pub const LAYERS: [Layer; 59] = [
    layer("trace.build_ms", "ms", "lower", COLD),
    layer(
        "trace.gen_ns_per_inst",
        "ns",
        "lower",
        "sim_insts_per_s on sweep_cold (small)",
    ),
    layer(
        "asm.assemble_ms",
        "ms",
        "lower",
        "job_p50_ms on service_mix; none on sweep_cold",
    ),
    layer(
        "asm.exec_ns_per_inst",
        "ns",
        "lower",
        "job_p50_ms on service_mix; none on sweep_cold",
    ),
    layer("core.step_ns_per_inst.m1", "ns", "lower", COLD_WARM),
    layer("core.step_ns_per_inst.m2", "ns", "lower", COLD_WARM),
    layer("core.step_ns_per_inst.m3", "ns", "lower", COLD_WARM),
    layer("core.step_ns_per_inst.m4", "ns", "lower", COLD_WARM),
    layer("core.step_ns_per_inst.m5", "ns", "lower", COLD_WARM),
    layer("core.step_ns_per_inst.m6", "ns", "lower", COLD_WARM),
    layer("core.ipc.m1", "inst/cycle", "higher", EXACT),
    layer("core.ipc.m2", "inst/cycle", "higher", EXACT),
    layer("core.ipc.m3", "inst/cycle", "higher", EXACT),
    layer("core.ipc.m4", "inst/cycle", "higher", EXACT),
    layer("core.ipc.m5", "inst/cycle", "higher", EXACT),
    layer("core.ipc.m6", "inst/cycle", "higher", EXACT),
    layer("core.ipc_above_width", "count", "lower", EXACT),
    layer("branch.on_inst_ns", "ns", "lower", COLD),
    layer("branch.mpki.m1", "per_kinst", "lower", EXACT),
    layer("branch.mpki.m6", "per_kinst", "lower", EXACT),
    layer("branch.bubbles_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("uoc.on_inst_ns", "ns", "lower", COLD),
    layer("uoc.supply_frac.m6", "frac", "higher", EXACT),
    layer("mem.load_ns", "ns", "lower", COLD),
    layer("mem.l1d_miss_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("mem.l2_miss_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("mem.l3_miss_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("mem.avg_load_latency_cycles.m6", "cycles", "lower", EXACT),
    layer("mem.mab_stalls_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("prefetch.l1_fills_per_ki.m6", "per_kinst", "higher", EXACT),
    layer("prefetch.l1_useful_frac.m6", "frac", "higher", EXACT),
    layer(
        "prefetch.buddy_fills_per_ki.m6",
        "per_kinst",
        "higher",
        EXACT,
    ),
    layer(
        "prefetch.standalone_fills_per_ki.m6",
        "per_kinst",
        "higher",
        EXACT,
    ),
    layer("dram.reads_per_ki.m6", "per_kinst", "lower", EXACT),
    layer("dram.row_hit_frac.m6", "frac", "higher", EXACT),
    layer("chunk_cache.hit_frac", "frac", "higher", CACHE),
    layer("chunk_cache.evictions", "count", "lower", CACHE),
    layer("chunk_cache.mib", "MiB", "lower", CACHE),
    layer("chunk_cache.next_block_us_p50", "us", "lower", CACHE),
    layer("batch.pipeline_stalls", "count", "lower", CACHE),
    layer("sweep.busy_frac", "frac", "higher", SWEEP),
    layer("sweep.group_s_p50", "s", "lower", SWEEP),
    layer("sweep.group_s_max", "s", "lower", SWEEP),
    layer("warm.pool_build_s", "s", "lower", WARM),
    layer("warm.pool_mib", "MiB", "lower", WARM),
    layer("warm.fork_us_p50", "us", "lower", WARM),
    layer("snapshot.encode_ms_p50", "ms", "lower", WARM),
    layer("snapshot.decode_ms_p50", "ms", "lower", WARM),
    layer("snapshot.image_kib", "KiB", "lower", WARM),
    layer("service.submit_ms_p50", "ms", "lower", SERVICE),
    layer("service.queue_wait_ms_p50", "ms", "lower", SERVICE),
    layer("service.attempt_ms_p50", "ms", "lower", SERVICE),
    layer("service.result_encode_ms_p50", "ms", "lower", SERVICE),
    layer("service.warm_pool_fetch_ms_p50", "ms", "lower", SERVICE),
    layer("service.shed_total", "count", "lower", SERVICE),
    layer("service.retry_total", "count", "lower", SERVICE),
    layer("service.polls_per_job", "count", "lower", SERVICE),
    layer("service.journal_bytes_per_job", "bytes", "lower", SERVICE),
    layer("bench.trace_overhead_frac", "frac", "lower", "n/a"),
];

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Check the catalogue against the result format's rules: legal and
/// unique names, legal units and directions, the metric caps, bounds in
/// (0, 0.25], and `setup_s` present with the largest bound.
pub fn check_catalogue() -> Result<(), String> {
    if E2E.len() > E2E_CAP || LAYERS.len() > LAYER_CAP {
        return Err(format!(
            "{} end-to-end / {} per-layer metrics exceed the caps",
            E2E.len(),
            LAYERS.len()
        ));
    }
    let all = E2E
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit, m.better)));
    let mut names = std::collections::BTreeSet::new();
    for (name, unit, better) in all {
        if !valid_metric_name(name) || !valid_unit(unit) || !matches!(better, "higher" | "lower") {
            return Err(format!("bad metric {name} {unit} {better}"));
        }
        if !names.insert(name) {
            return Err(format!("duplicate metric {name}"));
        }
    }
    let setup = E2E
        .iter()
        .find(|m| m.name == "setup_s")
        .ok_or("no setup_s")?;
    if (setup.unit, setup.better) != ("s", "lower") {
        return Err("setup_s must be seconds, lower better".to_owned());
    }
    match E2E
        .iter()
        .find(|m| !(m.bound > 0.0 && m.bound <= setup.bound && m.bound <= 0.25))
    {
        Some(m) => Err(format!("bound of {} out of range", m.name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_service::json::Json;

    #[test]
    fn names_units_and_caps_hold() {
        assert_eq!(check_catalogue(), Ok(()));
        assert!(!valid_unit("") && !valid_unit("a b") && valid_unit("inst/s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = Json::parse(&text).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            match v.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                        (s("name"), s("unit"), s("better"))
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let e2e: Vec<_> = E2E
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        assert_eq!(list("per_layer"), layers);
        if let Some(Json::Arr(items)) = v.get("end_to_end") {
            for (m, want) in items.iter().zip(E2E.iter()) {
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    Some(want.bound),
                    "{}",
                    want.name
                );
            }
        }
    }
}
