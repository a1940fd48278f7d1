//! Engineering benchmark: cycle-driven vs event-driven simulation kernel.
//!
//! Runs the same workloads under both kernels and reports memory-tick
//! call counts, the tick ratio (cycles simulated per memory tick — the
//! event kernel's skipping win) and wall-clock simulation throughput in
//! simulated megacycles per second. The metrics themselves are
//! bit-identical between kernels (enforced by `tests/kernel_equivalence`);
//! this harness measures only the speed difference.
//!
//! ```text
//! CWF_READS=20000 cargo bench -p cwf-bench --bench kernel_compare
//! ```

use std::time::Instant;

use sim_harness::config::MemKind;
use sim_harness::{run_benchmark_traced, Kernel, RunConfig};

fn main() {
    cwf_bench::header("simulation-kernel comparison (cycle vs event)");
    let reads = cwf_bench::reads();
    println!(
        "{:<8} {:<7} {:>12} {:>12} {:>8} {:>10}",
        "bench", "kernel", "sim cycles", "mem ticks", "ratio", "Mcyc/s"
    );
    for bench in ["stream", "mcf"] {
        let mut rates = [0.0f64; 2];
        let mut ratio = 1.0f64;
        for (i, kernel) in [Kernel::Cycle, Kernel::Event].into_iter().enumerate() {
            let mut cfg = RunConfig::paper(MemKind::Rl, reads);
            cfg.kernel = kernel;
            // One untimed run warms allocator and caches and yields the
            // (deterministic) kernel counters; the timed loop repeats it.
            let (_, k, _, _) = run_benchmark_traced(&cfg, bench);
            let runs = 3;
            let t0 = Instant::now();
            for _ in 0..runs {
                let _ = run_benchmark_traced(&cfg, bench);
            }
            let secs = t0.elapsed().as_secs_f64() / f64::from(runs);
            let rate = k.simulated_cycles() as f64 / secs / 1e6;
            rates[i] = rate;
            if kernel == Kernel::Event {
                ratio = k.tick_ratio();
            }
            println!(
                "{bench:<8} {:<7} {:>12} {:>12} {:>7.1}x {:>10.1}",
                kernel.name(),
                k.simulated_cycles(),
                k.mem_tick_calls,
                k.tick_ratio(),
                rate
            );
        }
        println!(
            "{bench:<8} event kernel: {ratio:.1}x fewer mem ticks, \
             {:.2}x wall-clock speedup\n",
            rates[1] / rates[0].max(1e-12)
        );
    }
}
