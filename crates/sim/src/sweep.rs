//! Parallel, deterministic experiment sweeps.
//!
//! A sweep is a grid of independent simulation *cells* — one `(workload,
//! [`RunConfig`])` pair each — executed across a pool of worker threads.
//! Three properties define the harness (DESIGN.md has the full
//! contract):
//!
//! * **Determinism.** Every cell's seed is a pure function of the base
//!   seed and the cell's identity ([`cell_seed`]), fixed *before* any
//!   thread runs, and each cell simulates in complete isolation. The
//!   result vector is therefore bit-identical for any worker count —
//!   `CWF_JOBS=1` and `CWF_JOBS=16` produce the same bytes.
//! * **Panic isolation.** A cell that panics becomes
//!   [`CellResult::Failed`] carrying the panic message; the other cells
//!   and the sweep itself keep running.
//! * **Ordered aggregation.** Results come back in input order
//!   regardless of which worker finished first.
//!
//! The worker count comes from the `CWF_JOBS` environment variable
//! (default: all available cores); [`run_cells_with`] takes it
//! explicitly for tests that must not race on process-global state.
//!
//! [`ordered_map`] is the workspace's one scoped executor: sweeps run
//! their cells through it, and the figure drivers in
//! [`crate::experiments`] their per-benchmark tasks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::{MemKind, RunConfig};
use crate::metrics::RunMetrics;
use crate::runner::run_benchmark_traced;
use crate::system::KernelStats;

/// One unit of sweep work: a benchmark under a configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name (must resolve via `workloads::by_name`: the 27
    /// suite programs or the `dcsweep`/`dcthrash`/`dcresident` stressors).
    pub bench: String,
    /// Full run configuration, including the per-cell seed.
    pub cfg: RunConfig,
}

/// Outcome of one cell.
///
/// `Done` dwarfs `Failed` because metrics embed latency histograms, but a
/// sweep holds one result per cell — boxing would only complicate every
/// consumer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellResult {
    /// The cell ran to completion: its metrics plus the kernel's
    /// execution counters (diagnostics; not part of the metrics schema).
    Done(RunMetrics, KernelStats),
    /// The cell panicked; the sweep continued without it.
    Failed {
        /// Benchmark of the failed cell.
        bench: String,
        /// Memory organization of the failed cell.
        mem: MemKind,
        /// Panic payload rendered as text.
        error: String,
    },
}

impl CellResult {
    /// The metrics, if the cell completed.
    #[must_use]
    pub fn metrics(&self) -> Option<&RunMetrics> {
        match self {
            CellResult::Done(m, _) => Some(m),
            CellResult::Failed { .. } => None,
        }
    }

    /// The kernel diagnostics, if the cell completed.
    #[must_use]
    pub fn kernel_stats(&self) -> Option<&KernelStats> {
        match self {
            CellResult::Done(_, k) => Some(k),
            CellResult::Failed { .. } => None,
        }
    }

    /// True if the cell panicked.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self, CellResult::Failed { .. })
    }
}

/// Worker-thread count: `CWF_JOBS` if set and positive, otherwise the
/// machine's available parallelism.
#[must_use]
pub fn jobs() -> usize {
    std::env::var("CWF_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
}

/// Deterministic per-cell seed: an FNV-1a/SplitMix64 mix of the base
/// seed with the cell's identity.
///
/// Decorrelates the random streams of different cells (same-seed cells
/// would replay identical address noise) while staying a pure function
/// of the inputs, so the sweep's determinism contract holds under any
/// scheduling.
#[must_use]
pub fn cell_seed(base: u64, bench: &str, mem: MemKind) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    for b in bench.bytes().chain(mem.slug().bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // SplitMix64 finalizer: spreads the FNV bits over the whole word.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Build the (benchmark × kind) grid of cells under the paper's
/// methodology, each with its own [`cell_seed`]-derived seed.
#[must_use]
pub fn grid(benches: &[&str], kinds: &[MemKind], reads: u64) -> Vec<Cell> {
    let base = RunConfig::paper(MemKind::Ddr3, reads).seed;
    benches
        .iter()
        .flat_map(|b| {
            kinds.iter().map(move |&k| {
                let mut cfg = RunConfig::paper(k, reads);
                cfg.seed = cell_seed(base, b, k);
                Cell { bench: (*b).to_owned(), cfg }
            })
        })
        .collect()
}

/// Run every cell across [`jobs`] worker threads; results in input order.
#[must_use]
pub fn run_cells(cells: &[Cell]) -> Vec<CellResult> {
    run_cells_with(cells, jobs())
}

/// Run every cell across exactly `workers` threads; results in input
/// order. The worker count affects wall-clock time only, never the
/// results (see the module docs).
#[must_use]
pub fn run_cells_with(cells: &[Cell], workers: usize) -> Vec<CellResult> {
    ordered_map(cells, workers, |cell| {
        // AssertUnwindSafe: the closure only touches the cell (read-only)
        // and its own fresh System; a panic cannot leave shared state
        // half-mutated.
        match catch_unwind(AssertUnwindSafe(|| run_benchmark_traced(&cell.cfg, &cell.bench))) {
            Ok((m, k, _, _)) => CellResult::Done(m, k),
            Err(payload) => CellResult::Failed {
                bench: cell.bench.clone(),
                mem: cell.cfg.mem,
                // `&*payload`, not `&payload`: the Box itself is `Any`
                // and would shadow the payload.
                error: panic_text(&*payload),
            },
        }
    })
}

/// Apply `f` to every item across `workers` scoped threads (at least
/// one, at most one per item) and return the results in input order.
/// Workers claim the next unclaimed index from a shared counter, so an
/// uneven mix of long and short items still keeps every worker busy.
pub fn ordered_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("every slot filled"))
        .collect()
}

/// Render a panic payload (`&str` or `String` in practice) as text.
#[must_use]
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_cross_product() {
        let cells = grid(&["mcf", "stream"], &[MemKind::Ddr3, MemKind::Rl], 100);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].bench, "mcf");
        assert_eq!(cells[0].cfg.mem, MemKind::Ddr3);
        assert_eq!(cells[3].bench, "stream");
        assert_eq!(cells[3].cfg.mem, MemKind::Rl);
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed(1, "mcf", MemKind::Rl);
        assert_eq!(a, cell_seed(1, "mcf", MemKind::Rl));
        assert_ne!(a, cell_seed(1, "mcf", MemKind::Ddr3));
        assert_ne!(a, cell_seed(1, "stream", MemKind::Rl));
        assert_ne!(a, cell_seed(2, "mcf", MemKind::Rl));
    }

    #[test]
    fn results_come_back_in_input_order() {
        let cells = grid(&["stream", "mcf"], &[MemKind::Ddr3], 120)
            .into_iter()
            .map(|mut c| {
                c.cfg = RunConfig { seed: c.cfg.seed, ..RunConfig::quick(c.cfg.mem, 120) };
                c
            })
            .collect::<Vec<_>>();
        let out = run_cells_with(&cells, 2);
        assert_eq!(out.len(), 2);
        for (cell, r) in cells.iter().zip(&out) {
            let m = r.metrics().expect("cell completed");
            assert_eq!(m.bench, cell.bench);
        }
    }

    #[test]
    fn a_panicking_cell_does_not_kill_the_sweep() {
        let good = Cell { bench: "libquantum".into(), cfg: RunConfig::quick(MemKind::Ddr3, 100) };
        let bad = Cell { bench: "no-such-bench".into(), cfg: RunConfig::quick(MemKind::Rl, 100) };
        let out = run_cells_with(&[bad, good], 2);
        match &out[0] {
            CellResult::Failed { bench, mem, error } => {
                assert_eq!(bench, "no-such-bench");
                assert_eq!(*mem, MemKind::Rl);
                assert!(error.contains("unknown benchmark"), "error = {error}");
            }
            CellResult::Done(..) => panic!("bad cell should fail"),
        }
        assert!(out[1].metrics().is_some());
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }
}
