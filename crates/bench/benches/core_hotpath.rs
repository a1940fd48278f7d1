//! Engineering benchmark: full-system core/cache front-end hot path.
//!
//! Where `sched_hotpath` isolates the bare memory controllers, this
//! bench times **complete sweep cells** — cores, L1/L2, MSHRs,
//! prefetcher and memory together under `run_benchmark_traced` — so the
//! wall clock measures exactly the code the front-end event-ization
//! changed: the ring-buffer ROB drain, the packed-tag L1/L2 hit path,
//! the slab MSHR probes, and the tightness of the composed
//! `next_activity` bounds (a coarse compute horizon degenerates the
//! event kernel back to one core tick per cycle).
//!
//! The simulator is deterministic, so two checkouts that are
//! behaviourally equivalent simulate the *identical* run and must print
//! matching `sim cycles`; the wall-clock and `Mcyc/s` columns are then
//! a like-for-like comparison. The `ratio` column is
//! `KernelStats::tick_ratio` — simulated cycles per memory tick — and
//! the `span%` column is the fraction of simulated cycles the kernel
//! skipped rather than executed.
//!
//! ```text
//! CWF_READS=20000 cargo bench -p cwf-bench --bench core_hotpath
//! ```
//!
//! Compare two checkouts by running the same bench source on each; the
//! per-cell `Mcyc/s` and the final aggregate line are the numbers
//! quoted in EXPERIMENTS.md.

use std::time::Instant;

use sim_harness::{run_benchmark_traced, Kernel, MemKind, RunConfig};

struct Cell {
    bench: &'static str,
    mem: MemKind,
    label: &'static str,
}

fn main() {
    cwf_bench::header("core/cache front-end hot path (full-system sweep cells)");
    let target_reads = cwf_bench::reads().max(2_000);
    let cells = [
        Cell { bench: "stream", mem: MemKind::Ddr3, label: "stream/ddr3" },
        Cell { bench: "stream", mem: MemKind::Rl, label: "stream/rl" },
        Cell { bench: "libquantum", mem: MemKind::Ddr3, label: "libquantum/ddr3" },
        Cell { bench: "mcf", mem: MemKind::Rl, label: "mcf/rl" },
        // The compute-heaviest profile (900-instruction gaps): long
        // fetch-limited spans between misses, so these cells lean
        // hardest on the batched ROB drain / staircase cruise.
        Cell { bench: "ep", mem: MemKind::Ddr3, label: "ep/ddr3" },
        Cell { bench: "ep", mem: MemKind::Rldram3, label: "ep/rldram3" },
    ];
    println!(
        "{:<16} {:<6} {:>12} {:>12} {:>7} {:>6} {:>9} {:>10}",
        "cell", "kernel", "sim cycles", "mem ticks", "ratio", "span%", "secs", "Mcyc/s"
    );
    let mut total_secs = 0.0f64;
    let mut total_cycles = 0u64;
    for cell in &cells {
        for kernel in [Kernel::Cycle, Kernel::Event] {
            let mut cfg = RunConfig::paper(cell.mem, target_reads);
            cfg.kernel = kernel;
            // Warm-up run, then best-of-3 timed runs.
            let (_, ks, _, _) = run_benchmark_traced(&cfg, cell.bench);
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                let _ = run_benchmark_traced(&cfg, cell.bench);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            let cycles = ks.simulated_cycles();
            let span_pct = 100.0 * ks.cycles_skipped as f64 / cycles.max(1) as f64;
            if kernel == Kernel::Event {
                total_secs += best;
                total_cycles += cycles;
            }
            println!(
                "{:<16} {:<6} {:>12} {:>12} {:>6.1}x {:>5.1}% {:>9.3} {:>10.1}",
                cell.label,
                match kernel {
                    Kernel::Cycle => "cycle",
                    Kernel::Event => "event",
                },
                cycles,
                ks.mem_tick_calls,
                ks.tick_ratio(),
                span_pct,
                best,
                cycles as f64 / best / 1e6
            );
        }
    }
    println!(
        "\naggregate (event): {total_cycles} sim cycles in {total_secs:.3}s \
         ({:.1} Mcyc/s)",
        total_cycles as f64 / total_secs / 1e6
    );
}
