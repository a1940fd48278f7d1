//! Offline cells: one `System::new` + `System::run` + `report::to_json`
//! each, timed from outside around the public calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sim_harness::config::MemKind;
use sim_harness::metrics::RunMetrics;
use sim_harness::{report, Kernel, RunConfig, System};

use crate::gate::Gate;
use crate::hostspeed::HostSpeed;

/// A paper-config cell with every environment-dependent default pinned:
/// `RunConfig::paper` reads `CWF_KERNEL`, `CWF_VERIFY` and `CWF_TRACE`,
/// and verification defaults on in debug builds.
#[must_use]
pub fn paper_cfg(kind: MemKind, reads: u64, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper(kind, reads);
    cfg.seed = seed;
    cfg.kernel = Kernel::Event;
    cfg.verify = false;
    cfg.trace = false;
    cfg
}

/// One offline cell run and its host-time split.
pub struct CellRun {
    /// `System::new` seconds.
    pub setup: f64,
    /// `System::run` seconds.
    pub run: f64,
    /// `report::to_json` (or `to_json_diag`) seconds.
    pub report: f64,
    /// The simulated metrics.
    pub metrics: RunMetrics,
    /// The report document.
    pub doc: String,
    /// Whether the oracle (when on) found the run clean.
    pub clean: bool,
}

impl CellRun {
    /// Wall seconds of the whole cell.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.setup + self.run + self.report
    }
}

/// Run `bench` under `cfg`. `diag` selects `report::to_json_diag` (the
/// document the sweep server serves) over `report::to_json`.
///
/// # Panics
///
/// Panics if `bench` is unknown.
#[must_use]
pub fn run_cell(cfg: &RunConfig, bench: &str, diag: bool) -> CellRun {
    let profile = workloads::by_name(bench).expect("benchmark names come from the suite");
    let t0 = Instant::now();
    let mut sys = System::new(cfg, profile);
    let t1 = Instant::now();
    let metrics = sys.run();
    let t2 = Instant::now();
    let kstats = sys.kernel_stats();
    let doc =
        if diag { report::to_json_diag(&metrics, &kstats) } else { report::to_json(&metrics) };
    let t3 = Instant::now();
    let clean = sys.verify_report().is_none_or(|v| v.is_clean());
    CellRun {
        setup: (t1 - t0).as_secs_f64(),
        run: (t2 - t1).as_secs_f64(),
        report: (t3 - t2).as_secs_f64(),
        metrics,
        doc,
        clean,
    }
}

/// [`run_cell`] with a panic counted as a failed operation.
pub fn try_cell(gate: &mut Gate, cfg: &RunConfig, bench: &str, diag: bool) -> Option<CellRun> {
    match catch_unwind(AssertUnwindSafe(|| run_cell(cfg, bench, diag))) {
        Ok(r) => {
            gate.check(true, String::new);
            Some(r)
        }
        Err(_) => {
            gate.check(false, || format!("cell {bench}/{} panicked", cfg.mem.slug()));
            None
        }
    }
}

/// Host seconds a pass runs between two host-speed probes at most, past
/// the end of the cell it is in: long cells get a probe pair each, short
/// ones share a pair per half second or so.
const SEGMENT_S: f64 = 0.5;

/// Run `cells` in order, probing the host speed between segments of at
/// least [`SEGMENT_S`], and return each run (`None` if it panicked) with
/// the host-speed factor of its segment. The first segment starts at the
/// last probe `hs` took.
pub fn timed_pass(
    gate: &mut Gate,
    cells: &[(&'static str, RunConfig)],
    diag: bool,
    hs: &mut HostSpeed,
) -> Vec<Option<(CellRun, f64)>> {
    let mut out = Vec::with_capacity(cells.len());
    let (mut open, mut elapsed) = (0, 0.0);
    for (i, (bench, cfg)) in cells.iter().enumerate() {
        let run = try_cell(gate, cfg, bench, diag);
        elapsed += run.as_ref().map_or(0.0, CellRun::total);
        out.push(run.map(|r| (r, 1.0)));
        if elapsed >= SEGMENT_S || i + 1 == cells.len() {
            let f = hs.factor();
            out[open..].iter_mut().flatten().for_each(|(_, g)| *g = f);
            (open, elapsed) = (i + 1, 0.0);
        }
    }
    out
}

/// Run-time seconds of the oracle-off and oracle-on reruns of one cell.
pub struct CheckTimes {
    /// `System::run` seconds with the oracle off (event kernel).
    pub off: f64,
    /// `System::run` seconds with the oracle on.
    pub on: f64,
}

/// The check pass for one cell at a shorter length: the event and cycle
/// kernels must write identical bytes, and an oracle-on rerun must be
/// clean and write the same metric bytes.
pub fn check_cell(
    gate: &mut Gate,
    bench: &str,
    kind: MemKind,
    seed: u64,
    reads: u64,
) -> CheckTimes {
    let event = paper_cfg(kind, reads, seed);
    let cycle = RunConfig { kernel: Kernel::Cycle, ..event };
    let oracle = RunConfig { verify: true, ..event };
    let label = format!("{bench}/{}", kind.slug());
    let mut times = CheckTimes { off: 0.0, on: 0.0 };
    // The cycle kernel goes first so the timed event and oracle runs both
    // start with the cell's code and tables warm in the host caches.
    let c = try_cell(gate, &cycle, bench, false);
    let Some(e) = try_cell(gate, &event, bench, false) else { return times };
    if let Some(c) = c {
        gate.same_bytes(&format!("{label} cycle vs event kernel"), &e.doc, &c.doc);
    }
    if let Some(v) = try_cell(gate, &oracle, bench, false) {
        gate.check(v.clean, || format!("{label}: verify oracle reported violations"));
        gate.same_bytes(&format!("{label} oracle on vs off"), &e.doc, &v.doc);
        times = CheckTimes { off: e.run, on: v.run };
    }
    times
}

/// Host time of one cell at two read counts, fitted as
/// `fixed + marginal * reads`.
pub struct FixedMarginal {
    /// Seconds at zero reads.
    pub fixed_s: f64,
    /// Microseconds per measured-window read.
    pub marginal_us_per_read: f64,
}

/// Fit [`FixedMarginal`] for one cell from runs at `lo` and `hi` reads.
pub fn fixed_marginal(
    gate: &mut Gate,
    bench: &str,
    kind: MemKind,
    seed: u64,
    lo: u64,
    hi: u64,
) -> Option<FixedMarginal> {
    let a = try_cell(gate, &paper_cfg(kind, lo, seed), bench, false)?;
    let b = try_cell(gate, &paper_cfg(kind, hi, seed), bench, false)?;
    let (ra, rb) = (a.metrics.dram_reads as f64, b.metrics.dram_reads as f64);
    let ok = rb > ra;
    gate.check(ok, || format!("{bench}: {hi}-read cell made no more reads than the {lo}-read one"));
    if !ok {
        return None;
    }
    let slope = (b.total() - a.total()) / (rb - ra);
    Some(FixedMarginal { fixed_s: a.total() - slope * ra, marginal_us_per_read: slope * 1e6 })
}
