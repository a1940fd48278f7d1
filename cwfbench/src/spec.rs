//! The benchmark's declared surface: workloads, metric names, units,
//! better directions and regression bounds. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--manifest`), and a
//! test keeps the committed file identical to the rendering.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, overheads).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The workloads: name and why it was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "cell-bandwidth",
        "long 8-core paper cells on the CWF and DRAM-cache backends (stream/rl, lbm/rl, \
         dcthrash/dramcache): memory-side work dominates",
    ),
    (
        "cell-compute",
        "long cache-resident cells on homogeneous memory (ep/rldram3, gobmk/ddr3): front end and \
         cache hit path dominate, memory side is the bypass",
    ),
    (
        "dse-sweep",
        "in-process sweep server, 10 benches x 3 kinds at 2000 reads: fixed per-cell cost, DSE \
         cache, pool, HTTP and the Perfetto exporter dominate",
    ),
];

/// End-to-end metrics (untraced runs). Every workload reports all of
/// them; see README.md for how each is measured on each workload.
///
/// Every bound is 0.25, the largest `BENCHMARK.json` admits. On the
/// 2-CPU host the benchmark was built on, raw run medians moved by up to
/// 30% from run to run; even host-speed normalised (see `hostspeed`),
/// they still spread by up to about 10%, and a tighter bound would flag
/// host drift as a regression.
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cell_setup_s", "s", Lower, 0.25),
    e2e("cell_s", "s", Lower, 0.25),
    e2e("run_reads_per_s", "reads/s", Higher, 0.25),
    e2e("dse_cold_cells_per_s", "cells/s", Higher, 0.25),
    e2e("dse_warm_sweep_ms_p50", "ms", Lower, 0.25),
    e2e("dse_cell_fetch_ms_p50", "ms", Lower, 0.25),
    e2e("dse_cell_fetch_ms_p90", "ms", Lower, 0.25),
    e2e("trace_fetch_s", "s", Lower, 0.25),
    e2e("max_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics (traced runs), grouped by workspace crate.
pub const PER_LAYER: [Metric; 54] = [
    // sim (sim-harness: kernel, runner, report)
    layer("sim.setup_s", "s", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.report_s", "s", Lower),
    layer("sim.mcyc_per_s", "Mcyc/s", Higher),
    layer("sim.tick_ratio", "ratio", Higher),
    layer("sim.mem_tick_calls", "count", Lower),
    layer("sim.cycles_skipped_ratio", "ratio", Higher),
    layer("sim.fixed_s", "s", Lower),
    layer("sim.marginal_us_per_read", "us/read", Lower),
    // workloads
    layer("workloads.next_op_calls", "count", Lower),
    layer("workloads.warm_s", "s", Lower),
    layer("workloads.run_s", "s", Lower),
    // cpu
    layer("cpu.core_ticks", "count", Lower),
    layer("cpu.core_tick_ratio", "ratio", Higher),
    layer("cpu.stall_cycles", "count", Higher),
    layer("cpu.cruise_cycles", "count", Higher),
    // cachesim
    layer("cachesim.warm_s", "s", Lower),
    layer("cachesim.self_s", "s", Lower),
    layer("cachesim.calls", "count", Lower),
    layer("cachesim.l1_hit_ratio", "ratio", Higher),
    layer("cachesim.l2_hit_ratio", "ratio", Higher),
    layer("cachesim.blocked_ratio", "ratio", Lower),
    layer("cachesim.prefetch_useful_ratio", "ratio", Higher),
    // memctrl (+ dram, + core glue on the CWF and DRAM-cache kinds)
    layer("memctrl.build_s", "s", Lower),
    layer("memctrl.self_s", "s", Lower),
    layer("memctrl.tick_calls", "count", Lower),
    layer("memctrl.submit_calls", "count", Lower),
    layer("memctrl.busy_ratio", "ratio", Lower),
    layer("memctrl.useful_tick_ratio", "ratio", Higher),
    // dram (simulated)
    layer("dram.row_hit_rate", "ratio", Higher),
    layer("dram.bus_utilization", "ratio", Higher),
    layer("dram.reads", "count", Higher),
    layer("dram.writes", "count", Lower),
    // core (cwf-core, simulated)
    layer("core.cw_fast_ratio", "ratio", Higher),
    // tracelog
    layer("tracelog.export_s", "s", Lower),
    layer("tracelog.bytes", "bytes", Lower),
    layer("tracelog.events", "count", Lower),
    layer("tracelog.dropped_ratio", "ratio", Lower),
    layer("tracelog.check_s", "s", Lower),
    // verify
    layer("verify.overhead_ratio", "ratio", Lower),
    // dse
    layer("dse.post_ms", "ms", Lower),
    layer("dse.first_cell_ms", "ms", Lower),
    layer("dse.overhead_ms", "ms", Lower),
    layer("dse.hit_ratio", "ratio", Higher),
    layer("dse.batched", "count", Higher),
    layer("dse.pool_steals", "count", Lower),
    layer("dse.doc_bytes", "bytes", Lower),
    layer("dse.fetch_samples", "count", Higher),
    // the benchmark itself
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.replay_s", "s", Lower),
    layer("bench.unattributed_s", "s", Lower),
    layer("bench.unattributed_ratio", "ratio", Lower),
    layer("bench.check_s", "s", Lower),
    layer("failed_ratio", "ratio", Lower),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 35;

fn json_str(s: &str) -> String {
    cwf_tracelog::json::escape(s)
}

/// Render `BENCHMARK.json`.
#[must_use]
pub fn manifest() -> String {
    let mut o = String::from("{\n");
    o.push_str("  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--offline\", \"--release\", ");
    o.push_str("\"--manifest-path\", \"cwfbench/Cargo.toml\", \"--\"],\n");
    o.push_str("  \"paths\": [\"cwfbench\"],\n");
    o.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    o.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            json_str(name),
            json_str(why)
        ));
    }
    o.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    o.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.name()
        ));
    }
    o.push_str("  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
    }

    /// True for names made only of `[A-Za-z0-9_.-]`, starting with a letter
    /// or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn bounds_stay_within_the_manifest_limit() {
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `cwfbench --manifest`");
    }
}
