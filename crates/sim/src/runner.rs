//! Benchmark runners and the paper's throughput metric.

use workloads::{by_name, BenchmarkProfile};

use crate::config::RunConfig;
use crate::metrics::RunMetrics;
use crate::system::{KernelStats, System};

/// The workload profile `bench` names.
fn profile(bench: &str) -> &'static BenchmarkProfile {
    by_name(bench).unwrap_or_else(|| panic!("unknown benchmark '{bench}' (see workloads::suite())"))
}

/// Run one benchmark under `cfg`.
///
/// # Panics
///
/// Panics if `bench` is not one of the 27 suite programs or the
/// `dcsweep`/`dcthrash`/`dcresident` DRAM-cache stressors.
#[must_use]
pub fn run_benchmark(cfg: &RunConfig, bench: &str) -> RunMetrics {
    System::new(cfg, profile(bench)).run()
}

/// Run one benchmark under `cfg`, also returning the kernel's execution
/// counters, the verify oracle's report (`None` when `cfg.verify` is off)
/// and the collected trace (`None` when `cfg.trace` is off). Metrics are
/// bit-identical to [`run_benchmark`] — the observers never steer.
///
/// # Panics
///
/// Panics if `bench` is not one of the 27 suite programs or the
/// `dcsweep`/`dcthrash`/`dcresident` DRAM-cache stressors.
#[must_use]
pub fn run_benchmark_traced(
    cfg: &RunConfig,
    bench: &str,
) -> (RunMetrics, KernelStats, Option<cwf_verify::VerifyReport>, Option<crate::trace::TraceReport>)
{
    let mut sys = System::new(cfg, profile(bench));
    let metrics = sys.run();
    (metrics, sys.kernel_stats(), sys.verify_report(), sys.trace_report())
}

/// Result of a checkpoint-bounded run segment ([`run_benchmark_ckpt`],
/// [`resume_benchmark_to_cycle`]): either the run completed inside the
/// segment, or it paused and serialized.
#[allow(clippy::large_enum_variant)] // one value per run segment; not stored in bulk
#[derive(Debug)]
pub enum CkptOutcome {
    /// The run finished before reaching the stop cycle.
    Finished {
        /// The run's metrics (identical to an unsegmented run).
        metrics: RunMetrics,
        /// Kernel execution counters.
        kernel: KernelStats,
        /// The verify oracle's report (`None` when `cfg.verify` is off).
        verify: Option<cwf_verify::VerifyReport>,
        /// The collected trace (`None` when `cfg.trace` is off).
        trace: Option<crate::trace::TraceReport>,
    },
    /// The run paused at the stop cycle; the blob resumes it.
    Paused {
        /// A `cwfmem.ckpt.v1` blob (see [`System::save_ckpt`]).
        ckpt: Vec<u8>,
    },
}

/// Run `bench` under `cfg`, pausing at the first cycle `>= stop_at`. A
/// paused run serializes to a `cwfmem.ckpt.v1` blob that
/// [`resume_benchmark_to_cycle`] continues with bit-identical results — the
/// verify oracle's books and the trace ring both ride the blob.
///
/// # Errors
///
/// Fails when `bench` is unknown or the paused state refuses to
/// serialize.
pub fn run_benchmark_ckpt(
    cfg: &RunConfig,
    bench: &str,
    stop_at: u64,
) -> cwf_ckpt::Result<CkptOutcome> {
    let profile = by_name(bench)
        .ok_or_else(|| cwf_ckpt::CkptError::new(format!("unknown benchmark '{bench}'")))?;
    let mut sys = System::new(cfg, profile);
    segment_outcome(sys.run_to_cycle(stop_at), sys)
}

/// Resume a checkpointed run, pausing again at the first cycle
/// `>= stop_at` (segmented execution: a run can hop across any number of
/// processes; `u64::MAX` runs it to completion). Verify and trace
/// reports are present exactly when the checkpointed run had them on.
///
/// # Errors
///
/// Fails when the blob is malformed or re-serialization fails.
pub fn resume_benchmark_to_cycle(bytes: &[u8], stop_at: u64) -> cwf_ckpt::Result<CkptOutcome> {
    let mut sys = System::from_ckpt(bytes)?;
    segment_outcome(sys.run_to_cycle(stop_at), sys)
}

/// Package a `run_to_cycle` result: finished runs report, paused runs
/// serialize.
fn segment_outcome(metrics: Option<RunMetrics>, mut sys: System) -> cwf_ckpt::Result<CkptOutcome> {
    match metrics {
        Some(metrics) => Ok(CkptOutcome::Finished {
            metrics,
            kernel: sys.kernel_stats(),
            verify: sys.verify_report(),
            trace: sys.trace_report(),
        }),
        None => Ok(CkptOutcome::Paused { ckpt: sys.save_ckpt()? }),
    }
}

/// The paper's system-throughput metric: `Σᵢ IPCᵢ_shared / IPCᵢ_alone`
/// (§5), where `IPC_alone` is measured on a single-core system with the
/// same memory organization.
#[must_use]
pub fn weighted_speedup(cfg: &RunConfig, bench: &str) -> f64 {
    let shared = run_benchmark(cfg, bench);
    let alone_cfg = RunConfig {
        cores: 1,
        // One core generates roughly 1/8th of the traffic; keep the run
        // length proportional so both runs see steady state.
        target_dram_reads: (cfg.target_dram_reads / u64::from(cfg.cores)).max(500),
        warmup_dram_reads: (cfg.warmup_dram_reads / u64::from(cfg.cores)).min(2_000),
        ..*cfg
    };
    let alone = run_benchmark(&alone_cfg, bench);
    let ipc_alone = alone.ipc_total().max(1e-9);
    shared.ipc_per_core().iter().map(|ipc| ipc / ipc_alone).sum()
}

/// Weighted speedup of `mem`, normalised to the DDR3 baseline — the
/// y-axis of Figures 1a, 6 and 9.
#[must_use]
pub fn normalized_throughput(cfg: &RunConfig, baseline: &RunConfig, bench: &str) -> f64 {
    let ws = weighted_speedup(cfg, bench);
    let ws_base = weighted_speedup(baseline, bench).max(1e-9);
    ws / ws_base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemKind;

    #[test]
    fn weighted_speedup_is_near_core_count_for_light_sharing() {
        // A compute-heavy benchmark: each core barely interferes, so the
        // weighted speedup approaches the core count (needs a warmed run;
        // cold-start windows under-estimate IPC_shared).
        let cfg = RunConfig::paper(MemKind::Ddr3, 2_000).with_cores(2);
        let ws = weighted_speedup(&cfg, "gobmk");
        assert!(ws > 1.4 && ws <= f64::from(cfg.cores) * 1.2, "ws = {ws}");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = run_benchmark(&RunConfig::quick(MemKind::Ddr3, 10), "doom");
    }
}
