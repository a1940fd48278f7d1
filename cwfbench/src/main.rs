//! `cwfbench`: the cwfmem benchmark.
//!
//! ```text
//! cwfbench --workload <cell-bandwidth|cell-compute|dse-sweep> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! cwfbench --manifest        # print BENCHMARK.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that gives the per-layer metrics. Either way the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md.

mod cells;
mod gate;
mod hostspeed;
mod layers;
mod provenance;
mod service;
mod spec;
mod stats;

use std::net::SocketAddr;
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cache_hier::Hierarchy;
use cwf_dse::Server;
use sim_harness::config::MemKind;
use sim_harness::experiments::default_benches;
use sim_harness::sweep::cell_seed;
use sim_harness::system::BoxedTrace;
use sim_harness::{report, RunConfig, System};

use cells::{check_cell, fixed_marginal, paper_cfg, timed_pass, try_cell, CellRun};
use gate::{Digest, Gate};
use hostspeed::HostSpeed;
use layers::{
    collect_warm, generators, hier_params, replay, time_generation, warm, CountedSource, Timed,
};
use service::Grid;

/// Pool workers of the in-process sweep server (the host has two CPUs;
/// at most two threads do simulation work at a time).
const DSE_WORKERS: usize = 2;
/// Child processes sampled for `setup_s`.
const SETUP_PROBES: usize = 15;
/// Measured-window reads of the check pass (kernel and oracle reruns).
const CHECK_READS: u64 = 1_000;
/// Read counts of the fixed-versus-marginal fit.
const FIT_READS: (u64, u64) = (1, 20_000);
/// Demand misses per replayed long cell.
const REPLAY_READS: u64 = 10_000;
/// Read count of the sweep service's cells (the DSE quick-cell size).
const DSE_READS: u64 = 2_000;

/// One named workload.
struct Workload {
    name: &'static str,
    /// Long offline cells (empty for `dse-sweep`, whose cell pass is the
    /// offline rerun of each round's cold sweep).
    long: Vec<(&'static str, MemKind)>,
    long_reads: u64,
    /// The grid this workload submits to the sweep service.
    grid: Grid,
    /// Grid index of the cell whose trace is fetched.
    trace_cell: usize,
}

fn dramcache() -> MemKind {
    MemKind::parse("dramcache:rldram3+nvm_slow").expect("dramcache kind parses")
}

fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "cell-bandwidth" => Workload {
            name: "cell-bandwidth",
            long: vec![("stream", MemKind::Rl), ("lbm", MemKind::Rl), ("dcthrash", dramcache())],
            long_reads: 40_000,
            grid: Grid {
                benches: vec!["stream", "lbm", "dcthrash"],
                kinds: vec![MemKind::Rl, dramcache()],
                reads: DSE_READS,
            },
            trace_cell: 0,
        },
        "cell-compute" => Workload {
            name: "cell-compute",
            long: vec![("ep", MemKind::Rldram3), ("gobmk", MemKind::Ddr3)],
            long_reads: 120_000,
            grid: Grid {
                benches: vec!["ep", "gobmk"],
                kinds: vec![MemKind::Rldram3, MemKind::Ddr3],
                reads: DSE_READS,
            },
            // gobmk/ddr3: the trace of an `ep` cell grows or shrinks by up
            // to a quarter from seed to seed (12.9-20.6 MB over eight
            // seeds), gobmk's by under a tenth, and each round has a new
            // seed.
            trace_cell: 3,
        },
        "dse-sweep" => Workload {
            name: "dse-sweep",
            long: Vec::new(),
            long_reads: 0,
            grid: Grid {
                benches: default_benches(),
                kinds: vec![MemKind::Ddr3, MemKind::Rl, dramcache()],
                reads: DSE_READS,
            },
            trace_cell: 0,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The long cells with their seeds for run seed `seed`.
    fn long_cells(&self, seed: u64) -> Vec<(&'static str, RunConfig)> {
        self.long
            .iter()
            .map(|&(b, k)| (b, paper_cfg(k, self.long_reads, cell_seed(seed, b, k))))
            .collect()
    }

    /// The cells a traced run attributes and the check pass reruns.
    fn offline_cells(&self, seed: u64) -> Vec<(&'static str, RunConfig)> {
        if self.long.is_empty() {
            self.grid.cells(round_seed(seed, 0))
        } else {
            self.long_cells(seed)
        }
    }
}

/// Base seed of service round `round`: fresh per round so every cold cell
/// misses, and below 2^53 so the server's JSON numbers carry it exactly.
fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 12
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe_setup: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        probe_setup: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--probe-setup" => a.probe_setup = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--manifest") {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cwfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("cwfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    if args.probe_setup {
        return match probe_setup(&wl, args.seed, t0) {
            Some(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        };
    }

    println!("provenance {}", provenance::json(&std::env::args().collect::<Vec<_>>(), args.seed));
    let mut gate = Gate::default();
    let mut digest = Digest::default();
    let values = if args.trace {
        traced(&wl, &args, &mut gate, &mut digest)
    } else {
        untraced(&wl, &args, &mut gate, &mut digest)
    };
    let table: &[spec::Metric] = if args.trace { &spec::PER_LAYER } else { &spec::END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let v =
            values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v).filter(|v| v.is_finite());
        gate.check(v.is_some(), || format!("metric {} was not measured", m.name));
        let v = v.unwrap_or(0.0);
        println!("metric {:<32} {v:>16.6} {}", m.name, m.unit);
        metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    println!("digest {} fnv1a64={:#018x}", wl.name, digest.value());
    for p in gate.problems() {
        println!("FAILED {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed() == 0,
        gate.attempted(),
        gate.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Child-process body of one `setup_s` sample: the time from process
/// start to the first timed operation. For cell workloads that is the
/// first `System::new`; for `dse-sweep`, `Server::start` until
/// `/healthz` answers.
fn probe_setup(wl: &Workload, seed: u64, t0: Instant) -> Option<f64> {
    if let Some((bench, cfg)) = wl.long_cells(seed).into_iter().next() {
        let profile = workloads::by_name(bench)?;
        let sys = System::new(&cfg, profile);
        let s = t0.elapsed().as_secs_f64();
        drop(sys);
        return Some(s);
    }
    let server = Server::start("127.0.0.1:0", DSE_WORKERS).ok()?;
    let ok = service::wait_healthy(server.addr());
    let s = t0.elapsed().as_secs_f64();
    server.stop();
    ok.then_some(s)
}

/// Run [`SETUP_PROBES`] fresh child processes and collect their samples,
/// each normalised by the host-speed probes on either side of it.
fn setup_samples(gate: &mut Gate, wl: &Workload, args: &Args, hs: &mut HostSpeed) -> Vec<f64> {
    let Ok(exe) = std::env::current_exe() else {
        gate.check(false, || "cannot locate the benchmark executable".to_owned());
        return Vec::new();
    };
    let mut out = Vec::new();
    hs.mark();
    for _ in 0..SETUP_PROBES {
        // `dse-sweep`'s set-up is a millisecond of thread wake-ups, which
        // is measured with the CPUs kept awake (see `service::KeepAwake`);
        // a cell workload's set-up is CPU-bound and needs no help. The
        // host-speed probes run outside the kept-awake stretch.
        let awake = wl.long.is_empty().then(service::KeepAwake::start);
        let run = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--probe-setup"])
            .output();
        drop(awake);
        let f = hs.factor();
        let sample = run.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout).lines().last()?.trim().parse::<f64>().ok()
        });
        if gate.check(sample.is_some(), || "setup probe failed".to_owned()) {
            out.extend(sample.map(|s| s * f));
        }
    }
    out
}

fn start_server(gate: &mut Gate) -> Option<(Server, SocketAddr)> {
    let server = Server::start("127.0.0.1:0", DSE_WORKERS);
    let ok = server.as_ref().is_ok_and(|s| service::wait_healthy(s.addr()));
    gate.check(ok, || "sweep server did not come up".to_owned());
    let server = server.ok().filter(|_| ok)?;
    let addr = server.addr();
    Some((server, addr))
}

/// Start a round's peak resident set from live memory: hand the
/// allocator's free pages back to the OS (glibc `malloc_trim`), then reset
/// the peak to the current resident set (Linux `clear_refs` 5). Without
/// the trim, the memory a trace fetch left free in one round counted
/// towards the next round's peak by however much the allocator happened
/// to keep.
fn start_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap pages to the OS and
        // may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since start or since the last
/// [`start_peak_rss`], MiB.
fn max_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The check pass over `cells` at [`CHECK_READS`]: returns summed
/// oracle-off and oracle-on run seconds.
fn check_pass(gate: &mut Gate, cells: &[(&'static str, RunConfig)]) -> (f64, f64) {
    let (mut off, mut on) = (0.0, 0.0);
    for (bench, cfg) in cells {
        let t = check_cell(gate, bench, cfg.mem, cfg.seed, CHECK_READS);
        off += t.off;
        on += t.on;
    }
    (off, on)
}

fn med(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| stats::median(xs))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Samples of the untraced run. CPU-side timings are normalised to the
/// host's nominal speed as they are taken; request latencies are raw
/// until the run's echo round trips scale them (see [`hostspeed`]).
#[derive(Default)]
struct Samples {
    cell_s: Vec<f64>,
    cell_setup_s: Vec<f64>,
    run_reads_per_s: Vec<f64>,
    cold_cells: usize,
    cold_s: f64,
    warm: usize,
    fetches: usize,
    warm_p50: Vec<f64>,
    fetch_p50: Vec<f64>,
    fetch_p90: Vec<f64>,
    trace_fetch_s: Vec<f64>,
    round_rss_mb: Vec<f64>,
}

impl Samples {
    /// One pass over a workload's cells, each with the host-speed factor
    /// of the stretch it ran in.
    fn pass(&mut self, runs: &[(CellRun, f64)]) {
        self.cell_s.push(runs.iter().map(|(r, f)| r.total() * f).sum());
        self.cell_setup_s.extend(runs.iter().map(|(r, f)| r.setup * f));
        let reads: u64 = runs.iter().map(|(r, _)| r.metrics.dram_reads).sum();
        let run: f64 = runs.iter().map(|(r, f)| r.run * f).sum();
        self.run_reads_per_s.push(reads as f64 / run);
    }
}

/// The untraced run: rounds of (long-cell pass, service round) until the
/// time is up, then the check pass.
fn untraced(
    wl: &Workload,
    args: &Args,
    gate: &mut Gate,
    digest: &mut Digest,
) -> Vec<(&'static str, f64)> {
    let mut hs = HostSpeed::default();
    let setup = setup_samples(gate, wl, args, &mut hs);
    let Some((server, addr)) = start_server(gate) else { return Vec::new() };
    let long = wl.long_cells(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut s = Samples::default();
    let mut first_docs: Option<Vec<String>> = None;
    let mut r = 0;
    while start.elapsed() < budget {
        start_peak_rss();
        hs.mark();
        if !long.is_empty() {
            let runs: Vec<(CellRun, f64)> =
                timed_pass(gate, &long, false, &mut hs).into_iter().flatten().collect();
            if runs.len() == long.len() {
                s.pass(&runs);
                let docs = runs.into_iter().map(|(r, _)| r.doc);
                match &first_docs {
                    None => {
                        let docs: Vec<String> = docs.collect();
                        docs.iter().for_each(|d| digest.add(d));
                        first_docs = Some(docs);
                    }
                    Some(first) => {
                        for (i, (want, doc)) in first.iter().zip(docs).enumerate() {
                            gate.same_bytes(&format!("long cell {i} repetition"), want, &doc);
                        }
                    }
                }
            }
        }
        let seed = round_seed(args.seed, r);
        let round = service::round(gate, addr, &wl.grid, seed, wl.trace_cell, &mut hs);
        s.round_rss_mb.extend(max_rss_mb());
        if let Some(trace) = &round.trace {
            service::check_trace(gate, wl.trace_cell, trace);
        }
        if long.is_empty() && round.offline.len() == wl.grid.len() {
            s.pass(&round.offline);
        }
        if r == 0 {
            round.docs.iter().for_each(|d| digest.add(d));
        }
        if let Some((cells, secs)) = round.cold {
            s.cold_cells += cells;
            s.cold_s += secs;
        }
        let p90_ok =
            stats::highest_supported_percentile(round.fetch_ms.len()).is_some_and(|p| p >= 90.0);
        gate.check(p90_ok, || format!("{} fetches cannot support p90", round.fetch_ms.len()));
        let (warm, fetch, echo) = (&round.warm_ms, &round.fetch_ms, &round.echo_ms);
        s.warm_p50.extend(hostspeed::request_percentile(warm, echo, 50.0));
        s.fetch_p50.extend(hostspeed::request_percentile(fetch, echo, 50.0));
        s.fetch_p90.extend(hostspeed::request_percentile(fetch, echo, 90.0).filter(|_| p90_ok));
        (s.warm, s.fetches) = (s.warm + warm.len(), s.fetches + fetch.len());
        s.trace_fetch_s.extend(&round.trace_fetch_s);
        r += 1;
    }
    let measured = start.elapsed();
    check_pass(gate, &wl.offline_cells(args.seed));
    server.stop();
    let rtts = hs.round_trips();
    println!(
        "samples rounds={r} measured_s={:.3} setup={} passes={} cold_cells={} warm={} fetch={} \
         trace={} probes={} probe_p50_s={:.6} echoes={} echo_p50_ms={:.6} echo_p90_ms={:.6}",
        measured.as_secs_f64(),
        setup.len(),
        s.cell_s.len(),
        s.cold_cells,
        s.warm,
        s.fetches,
        s.trace_fetch_s.len(),
        hs.samples().len(),
        med(hs.samples()).unwrap_or(0.0),
        rtts.len(),
        med(rtts).unwrap_or(0.0),
        if rtts.is_empty() { 0.0 } else { stats::percentile(rtts, 90.0) },
    );
    let mut out = Vec::new();
    let mut put = |name: &'static str, v: Option<f64>| out.extend(v.map(|v| (name, v)));
    put("setup_s", med(&setup));
    put("cell_setup_s", med(&s.cell_setup_s));
    put("cell_s", med(&s.cell_s));
    put("run_reads_per_s", med(&s.run_reads_per_s));
    // Cold cells over cold seconds, summed over the run's sweeps: a sweep
    // of a few cells on two workers ends when its slowest worker does, so
    // single sweeps scatter more than their total does.
    put("dse_cold_cells_per_s", (s.cold_s > 0.0).then(|| s.cold_cells as f64 / s.cold_s));
    // Request percentiles are taken per round, scaled by the same
    // percentile of the round's echo round trips; the run reports the
    // median over rounds.
    put("dse_warm_sweep_ms_p50", med(&s.warm_p50));
    put("dse_cell_fetch_ms_p50", med(&s.fetch_p50));
    put("dse_cell_fetch_ms_p90", med(&s.fetch_p90));
    put("trace_fetch_s", med(&s.trace_fetch_s));
    put("max_rss_mb", med(&s.round_rss_mb));
    out
}

/// Sums over a traced run's cells, turned into per-layer metrics.
#[derive(Default)]
struct LayerAcc {
    untraced_wall: f64,
    traced_wall: f64,
    sim_setup: f64,
    sim_run: f64,
    sim_report: f64,
    sim_cycles: f64,
    mem_tick_calls: f64,
    cycles_skipped: f64,
    core_ticks: f64,
    core_span: f64,
    stall: f64,
    cruise: f64,
    next_op_calls: f64,
    gen_warm: f64,
    gen_run: f64,
    cache_warm: f64,
    cache_self: f64,
    cache_calls: f64,
    accesses: f64,
    l1_hits: f64,
    l2_hits: f64,
    blocked: f64,
    pf_issued: f64,
    pf_useful: f64,
    build: f64,
    mem_self: f64,
    mem_ticks: f64,
    submits: f64,
    busy: f64,
    useful_drains: f64,
    row_hit_rate: f64,
    bus_utilization: f64,
    dram_reads: f64,
    dram_writes: f64,
    cw_fast: f64,
    demand_fills: f64,
    cells: f64,
    replay_wall: f64,
    replay_hier: f64,
}

/// Attribute one cell: a full-system run with counting trace sources
/// (its bytes must equal the untraced run's), generator time on the
/// identical stream, a cache-warm replay, and two open-loop replays
/// (plain backend and [`Timed`] backend) whose simulated outcomes must
/// agree.
fn traced_cell(
    gate: &mut Gate,
    acc: &mut LayerAcc,
    bench: &'static str,
    cfg: &RunConfig,
    untraced: &CellRun,
    replay_reads: u64,
) {
    let profile = workloads::by_name(bench).expect("suite benchmark");
    let label = format!("{bench}/{}", cfg.mem.slug());
    let t0 = Instant::now();
    let backend = cfg.mem.build(cfg.parity_error_rate, cfg.seed);
    let t1 = Instant::now();
    let (sources, counters): (Vec<BoxedTrace>, Vec<_>) = generators(cfg, profile)
        .into_iter()
        .map(|g| {
            let (s, c) = CountedSource::new(g);
            (Box::new(s) as BoxedTrace, c)
        })
        .unzip();
    let mut sys = System::with_trace_sources(cfg, bench, sources, backend);
    let t2 = Instant::now();
    let warm_calls: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let m = sys.run();
    let t3 = Instant::now();
    let doc = report::to_json(&m);
    let t4 = Instant::now();
    gate.same_bytes(&format!("{label} traced vs untraced"), &untraced.doc, &doc);
    let run_calls: Vec<u64> =
        counters.iter().zip(&warm_calls).map(|(c, w)| c.load(Ordering::Relaxed) - w).collect();

    let k = sys.kernel_stats();
    let h = &m.hier;
    acc.untraced_wall += untraced.total();
    acc.traced_wall += (t4 - t0).as_secs_f64();
    acc.build += (t1 - t0).as_secs_f64();
    acc.sim_setup += (t2 - t0).as_secs_f64();
    acc.sim_run += (t3 - t2).as_secs_f64();
    acc.sim_report += (t4 - t3).as_secs_f64();
    acc.sim_cycles += k.simulated_cycles() as f64;
    acc.mem_tick_calls += k.mem_tick_calls as f64;
    acc.cycles_skipped += k.cycles_skipped as f64;
    acc.core_ticks += k.core_ticks as f64;
    acc.core_span += k.core_span_cycles() as f64;
    acc.stall += k.core_stall_cycles as f64;
    acc.cruise += k.core_cruise_cycles as f64;
    acc.next_op_calls += counters.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>() as f64;
    acc.accesses += (h.loads + h.stores) as f64;
    acc.l1_hits += h.l1_hits as f64;
    acc.l2_hits += h.l2_hits as f64;
    acc.blocked += (h.blocked_mshr + h.blocked_mem) as f64;
    acc.pf_issued += h.prefetches_issued as f64;
    acc.pf_useful += h.prefetches_useful as f64;
    acc.row_hit_rate += m.row_hit_rate();
    acc.bus_utilization += m.bus_utilization();
    acc.dram_reads += m.dram_reads as f64;
    acc.dram_writes += m.dram_writes as f64;
    acc.cw_fast += h.cw_served_fast as f64;
    acc.demand_fills += h.demand_fills as f64;
    acc.cells += 1.0;
    drop(sys);

    let (gw, gr) = time_generation(cfg, profile, &warm_calls, &run_calls);
    acc.gen_warm += gw.as_secs_f64();
    acc.gen_run += gr.as_secs_f64();

    let mut gens = generators(cfg, profile);
    let ws = collect_warm(&mut gens, cfg.functional_warm_ops);
    gate.check(ws.calls == warm_calls, || {
        format!("{label}: warm stream length differs from the run's")
    });
    let mut timed = Hierarchy::new(
        hier_params(cfg),
        Timed::new(cfg.mem.build(cfg.parity_error_rate, cfg.seed)),
    );
    let t = Instant::now();
    let evictions = warm(&mut timed, &ws);
    acc.cache_warm += t.elapsed().as_secs_f64();
    for (l, w) in evictions {
        timed.memory_mut().inner_mut().seed_adaptive_tag(l, w);
    }
    let mut plain_gens = generators(cfg, profile);
    let _ = collect_warm(&mut plain_gens, cfg.functional_warm_ops);
    let mut plain =
        Hierarchy::new(hier_params(cfg), cfg.mem.build(cfg.parity_error_rate, cfg.seed));
    for (l, w) in warm(&mut plain, &ws) {
        plain.memory_mut().seed_adaptive_tag(l, w);
    }
    drop(ws);
    let a = replay(&mut plain, &mut plain_gens, replay_reads);
    let b = replay(&mut timed, &mut gens, replay_reads);
    gate.check((a.digest, a.cycles, a.misses) == (b.digest, b.cycles, b.misses), || {
        format!("{label}: replay through the timed backend diverged from the plain one")
    });
    let mem = timed.memory();
    let mem_self = mem.spent().as_secs_f64();
    let hier = b.hier.as_secs_f64();
    gate.check(mem_self <= hier && hier <= b.wall.as_secs_f64(), || {
        format!("{label}: layer self times exceed the replay's total")
    });
    acc.mem_self += mem_self;
    acc.cache_self += hier - mem_self;
    acc.cache_calls += b.calls as f64;
    acc.mem_ticks += mem.tick_calls as f64;
    acc.submits += mem.submit_calls as f64;
    acc.busy += mem.busy as f64;
    acc.useful_drains += mem.useful_drains as f64;
    acc.replay_wall += b.wall.as_secs_f64();
    acc.replay_hier += hier;
}

/// The traced run: per-layer attribution of the workload's offline cells,
/// the fixed-versus-marginal fit, the check pass, and one service round
/// with its trace exported offline for comparison.
fn traced(
    wl: &Workload,
    args: &Args,
    gate: &mut Gate,
    digest: &mut Digest,
) -> Vec<(&'static str, f64)> {
    let Some((server, addr)) = start_server(gate) else { return Vec::new() };
    let cells = wl.offline_cells(args.seed);
    let replay_reads = if wl.long.is_empty() { wl.grid.reads } else { REPLAY_READS };
    let mut acc = LayerAcc::default();
    for (bench, cfg) in &cells {
        if let Some(u) = try_cell(gate, cfg, bench, false) {
            digest.add(&u.doc);
            traced_cell(gate, &mut acc, bench, cfg, &u, replay_reads);
        }
    }
    let (b0, c0) = &cells[0];
    let fit = fixed_marginal(gate, b0, c0.mem, c0.seed, FIT_READS.0, FIT_READS.1);
    let t = Instant::now();
    let (off, on) = check_pass(gate, &cells);
    let check_s = t.elapsed().as_secs_f64();

    let seed0 = round_seed(args.seed, 0);
    let mut hs = HostSpeed::default();
    hs.mark();
    let round = service::round(gate, addr, &wl.grid, seed0, wl.trace_cell, &mut hs);
    let (tb, tcfg) = wl.grid.cells(seed0).swap_remove(wl.trace_cell);
    let mut export = None;
    if let Some(fetched) = &round.trace {
        let cfg = RunConfig { trace: true, ..tcfg };
        let (_, _, _, rep) = sim_harness::run_benchmark_traced(&cfg, tb);
        if let Some(rep) = rep {
            let t = Instant::now();
            let text = rep.perfetto_json();
            let export_s = t.elapsed().as_secs_f64();
            gate.same_bytes("fetched trace vs offline export", &text, fetched);
            let t = Instant::now();
            let valid = cwf_tracelog::json::validate_chrome_trace(fetched).is_ok();
            let check = t.elapsed().as_secs_f64();
            gate.check(valid, || "fetched trace failed validation".to_owned());
            let (ev, dropped) = (rep.events.len() as f64, rep.dropped as f64);
            export = Some((export_s, text.len() as f64, ev, dropped / (ev + dropped), check));
        }
    }
    let oseed = round_seed(args.seed, u64::from(u32::MAX));
    let service = service::single_cell_service(gate, addr, tb, tcfg.mem, wl.grid.reads, oseed);
    let offline = try_cell(
        gate,
        &paper_cfg(tcfg.mem, wl.grid.reads, cell_seed(oseed, tb, tcfg.mem)),
        tb,
        true,
    );
    server.stop();

    let a = &acc;
    let mut out: Vec<(&'static str, f64)> = vec![
        ("sim.setup_s", a.sim_setup),
        ("sim.run_s", a.sim_run),
        ("sim.report_s", a.sim_report),
        ("sim.mcyc_per_s", ratio(a.sim_cycles, a.sim_run) / 1e6),
        ("sim.tick_ratio", ratio(a.sim_cycles, a.mem_tick_calls)),
        ("sim.mem_tick_calls", a.mem_tick_calls),
        ("sim.cycles_skipped_ratio", ratio(a.cycles_skipped, a.sim_cycles)),
        ("workloads.next_op_calls", a.next_op_calls),
        ("workloads.warm_s", a.gen_warm),
        ("workloads.run_s", a.gen_run),
        ("cpu.core_ticks", a.core_ticks),
        ("cpu.core_tick_ratio", ratio(a.core_ticks + a.core_span, a.core_ticks)),
        ("cpu.stall_cycles", a.stall),
        ("cpu.cruise_cycles", a.cruise),
        ("cachesim.warm_s", a.cache_warm),
        ("cachesim.self_s", a.cache_self),
        ("cachesim.calls", a.cache_calls),
        ("cachesim.l1_hit_ratio", ratio(a.l1_hits, a.accesses)),
        ("cachesim.l2_hit_ratio", ratio(a.l2_hits, a.accesses - a.l1_hits)),
        ("cachesim.blocked_ratio", ratio(a.blocked, a.accesses)),
        ("cachesim.prefetch_useful_ratio", ratio(a.pf_useful, a.pf_issued)),
        ("memctrl.build_s", a.build),
        ("memctrl.self_s", a.mem_self),
        ("memctrl.tick_calls", a.mem_ticks),
        ("memctrl.submit_calls", a.submits),
        ("memctrl.busy_ratio", ratio(a.busy, a.submits)),
        ("memctrl.useful_tick_ratio", ratio(a.useful_drains, a.mem_ticks)),
        ("dram.row_hit_rate", ratio(a.row_hit_rate, a.cells)),
        ("dram.bus_utilization", ratio(a.bus_utilization, a.cells)),
        ("dram.reads", a.dram_reads),
        ("dram.writes", a.dram_writes),
        ("core.cw_fast_ratio", ratio(a.cw_fast, a.demand_fills)),
        ("verify.overhead_ratio", ratio(on, off)),
        ("bench.trace_overhead_ratio", ratio(a.traced_wall, a.untraced_wall)),
        ("bench.replay_s", a.replay_wall),
        ("bench.unattributed_s", a.replay_wall - a.replay_hier),
        ("bench.unattributed_ratio", ratio(a.replay_wall - a.replay_hier, a.replay_wall)),
        ("bench.check_s", check_s),
        ("dse.fetch_samples", round.fetch_ms.len() as f64),
    ];
    if let Some(f) = fit {
        out.extend([
            ("sim.fixed_s", f.fixed_s),
            ("sim.marginal_us_per_read", f.marginal_us_per_read),
        ]);
    }
    if let Some((export_s, bytes, events, dropped, check)) = export {
        out.extend([
            ("tracelog.export_s", export_s),
            ("tracelog.bytes", bytes),
            ("tracelog.events", events),
            ("tracelog.dropped_ratio", dropped),
            ("tracelog.check_s", check),
        ]);
    }
    out.extend(round.post_ms.map(|v| ("dse.post_ms", v)));
    out.extend(round.first_cell_ms.map(|v| ("dse.first_cell_ms", v)));
    if let (Some(s), Some(o)) = (service, offline) {
        out.push(("dse.overhead_ms", (s.as_secs_f64() - o.total()) * 1e3));
    }
    if let Some((b, a)) = round.stats {
        let (hits, batched, misses) = (a.hits - b.hits, a.batched - b.batched, a.misses - b.misses);
        out.push(("dse.hit_ratio", ratio(hits as f64, (hits + batched + misses) as f64)));
        out.push(("dse.batched", batched as f64));
        out.push(("dse.pool_steals", (a.steals - b.steals) as f64));
    }
    if !round.docs.is_empty() {
        let bytes: usize = round.docs.iter().map(String::len).sum();
        out.push(("dse.doc_bytes", bytes as f64 / round.docs.len() as f64));
    }
    round.docs.iter().for_each(|d| digest.add(d));
    out.push(("failed_ratio", ratio(gate.failed() as f64, gate.attempted() as f64)));
    out
}
