#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Full-system simulation harness.
//!
//! Glues the substrates together — cores ([`cpu_model`]), hierarchy
//! ([`cache_hier`]), workloads ([`workloads`]), memory backends
//! ([`mem_ctrl`], [`cwf_core`]) and power ([`dram_power`]) — into the
//! paper's methodology (§5):
//!
//! * 8 cores at 3.2 GHz, warm-up, then measurement until a target number
//!   of DRAM reads (the paper uses 2 M; scale with `CWF_READS`);
//! * system throughput `Σ IPC_shared / IPC_alone`, normalised to the DDR3
//!   baseline for the figures;
//! * Micron-style DRAM power from controller activity, the §6.1.3 system
//!   energy model.
//!
//! [`experiments`] contains one driver per paper figure/table; the
//! `cwf-bench` crate prints them from `cargo bench`.
//!
//! # Examples
//!
//! ```
//! use sim_harness::{run_benchmark, RunConfig};
//! use sim_harness::config::MemKind;
//!
//! let metrics = run_benchmark(&RunConfig::quick(MemKind::Rl, 1_500), "libquantum");
//! assert!(metrics.dram_reads >= 1_500);
//! assert!(metrics.ipc_total() > 0.0);
//! ```

pub mod config;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod system;
pub mod trace;

pub use config::{Kernel, MemKind, RunConfig};
pub use cwf_verify::VerifyReport;
pub use metrics::RunMetrics;
pub use report::Table;
pub use runner::{
    normalized_throughput, resume_benchmark_to_cycle, run_benchmark, run_benchmark_ckpt,
    run_benchmark_traced, weighted_speedup, CkptOutcome,
};
pub use sweep::{Cell, CellResult};
pub use system::{KernelStats, System};
pub use trace::TraceReport;
