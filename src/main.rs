#![forbid(unsafe_code)]
//! `cwfmem` — command-line front end for the simulator.
//!
//! ```text
//! cwfmem list                         # benchmarks and memory organizations
//! cwfmem run --mem rl --bench mcf     # one run, key metrics (or --json)
//! cwfmem run --bench mcf --trace t.json  # also export a Perfetto trace
//! cwfmem trace-check t.json           # validate an exported trace
//! cwfmem compare --bench leslie3d     # all organizations side by side
//! cwfmem sweep --json out/            # parallel grid, one JSON per cell
//! cwfmem figures fig6                 # regenerate a paper figure
//! ```

use cwfmem::dram::DeviceSpec;
use cwfmem::power::LpddrIo;
use cwfmem::sim::config::{MemBackend, MemKind};
use cwfmem::sim::experiments::{
    ablations, all_benches, alternatives, default_benches, fig10_11_energy, fig1_homogeneous,
    fig2_power_utilization, fig3_line_profiles, fig4_critical_word_distribution, fig6_7_8_cwf,
    fig9_placement,
};
use cwfmem::sim::{run_benchmark, Kernel, RunConfig, System};
use cwfmem::speclint::{lint_specs, scorecard_json, Diagnostic, SpecLintReport};
use cwfmem::workloads::suite;

const KINDS: [(&str, MemKind); 9] = [
    ("ddr3", MemKind::Ddr3),
    ("lpddr2", MemKind::Lpddr2),
    ("rldram3", MemKind::Rldram3),
    ("rd", MemKind::Rd),
    ("rl", MemKind::Rl),
    ("dl", MemKind::Dl),
    ("rl-ad", MemKind::RlAdaptive),
    ("rl-or", MemKind::RlOracle),
    ("rl-rand", MemKind::RlRandom),
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  cwfmem list\n  cwfmem run --mem <kind> --bench <name>|--replay <file> [--reads N] \
         [--cores N] [--no-prefetch] [--parity-rate P] [--seed S] [--kernel cycle|event] \
         [--verify|--no-verify] [--trace <out.json>|--no-trace] [--json]\n  \
         cwfmem run --spec <id|file.toml> --bench <name> ...   # spec-layer device\n  \
         cwfmem run ... --ckpt-at <cycle> --ckpt-out <file>    # pause + checkpoint\n  \
         cwfmem resume <file.ckpt> [--ckpt-at <cycle> --ckpt-out <file>] \
         [--verify|--no-verify] [--trace <out.json>|--no-trace] [--json]\n  \
         cwfmem serve [--bind <addr:port>] [--workers N]       # sweep HTTP server\n  \
         cwfmem spec-lint <id|file.toml|specs-dir> [--json] [--parse-only]\n  \
         cwfmem spec-check <id|file.toml>        # alias: full lint of one spec\n  \
         cwfmem trace-check <file.json>\n  \
         cwfmem compare --bench <name> [--reads N]\n  \
         cwfmem sweep [--benches a,b,c|--all-benches] [--kinds k1,k2] [--reads N] [--jobs N] \
         [--json DIR]\n  \
         cwfmem figures <fig1|fig2|fig3|fig4|fig6|fig9|fig10|ablations|alternatives|all> \
         [--reads N] [--all-benches] [--csv DIR]\n  \
         cwfmem dump-trace --bench <name> [--core N] [--ops N] [--seed S] --out <file>\n\n\
         memory kinds: {}\n\
         device specs: {} (also fast+slow CWF pairs, e.g. rldram3+ddr5_4800)",
        KINDS.map(|(n, _)| n).join(", "),
        DeviceSpec::embedded_ids().join(", ")
    );
    std::process::exit(2)
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

/// `key`'s value parsed as `T`, when the flag is present; a value that
/// does not parse is a usage error naming the flag.
fn parsed_arg<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    let v = arg_value(args, key)?;
    Some(v.parse().unwrap_or_else(|_| {
        eprintln!("invalid {key} value '{v}'");
        usage()
    }))
}

/// `--reads N` (`default` when absent); zero or a non-number is a usage
/// error.
fn reads_arg(args: &[String], default: u64) -> u64 {
    let reads = parsed_arg(args, "--reads").unwrap_or(default);
    if reads == 0 {
        eprintln!("--reads must be at least 1");
        usage()
    }
    reads
}

fn parse_kind(name: &str) -> MemKind {
    MemKind::parse(name).unwrap_or_else(|| {
        eprintln!("unknown memory kind '{name}'");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("dump-trace") => cmd_dump_trace(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("spec-check") => cmd_spec_check(&args[1..]),
        Some("spec-lint") => cmd_spec_lint(&args[1..]),
        _ => usage(),
    }
}

fn cmd_list() {
    println!("memory organizations:");
    for (name, kind) in KINDS {
        println!("  {name:<8} {}", kind.label());
    }
    println!("\ndevice specs (for --spec, --mem, or fast+slow CWF pairs):");
    for id in DeviceSpec::embedded_ids() {
        let spec = DeviceSpec::embedded(id).expect("embedded spec");
        println!(
            "  {id:<12} {} ({} banks x {} groups)",
            spec.config.name, spec.config.geometry.banks, spec.config.geometry.bank_groups
        );
    }
    println!("\nbenchmarks ({}):", suite().len());
    for p in suite() {
        println!(
            "  {:<12} {:?}, {} MiB footprint, gap {} insts",
            p.name, p.suite, p.footprint_mb, p.mem_gap
        );
    }
}

/// True when a `--spec` value names a file on disk rather than an
/// embedded spec id.
fn spec_is_path(value: &str) -> bool {
    value.contains('/') || value.ends_with(".toml")
}

/// Load a `--spec`/`spec-check` operand: a file path, or an embedded id.
fn load_spec(value: &str) -> DeviceSpec {
    let loaded = if spec_is_path(value) {
        DeviceSpec::from_file(value)
    } else {
        DeviceSpec::embedded(value).ok_or_else(|| cwfmem::dram::SpecError {
            line: 0,
            msg: format!(
                "unknown embedded spec '{value}' (have: {})",
                DeviceSpec::embedded_ids().join(", ")
            ),
        })
    };
    loaded.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn spec_summary_line(spec: &DeviceSpec) -> String {
    let cfg = &spec.config;
    format!(
        "{}: ok — {} ({:?}/{:?}, {} banks x {} groups, {} constraints, tCK {} ps)",
        spec.id,
        cfg.name,
        cfg.addressing,
        cfg.page_policy,
        cfg.geometry.banks,
        cfg.geometry.bank_groups,
        cfg.constraints.len(),
        cfg.timings.t_ck_ps
    )
}

/// `spec-check <id|file.toml>` — kept as the one-spec alias for the full
/// lint: the classic parse summary, plus every `spec-lint` diagnostic, and
/// a nonzero exit on any of them.
fn cmd_spec_check(args: &[String]) {
    let Some(value) = args.first() else { usage() };
    let spec = load_spec(value);
    println!("{}", spec_summary_line(&spec));
    let (reports, conformance) = lint_specs(std::slice::from_ref(&spec));
    let diags: Vec<&Diagnostic> =
        reports.iter().flat_map(|r| &r.diagnostics).chain(&conformance).collect();
    for d in &diags {
        eprintln!("{d}");
    }
    if !diags.is_empty() {
        eprintln!("{}: {} lint diagnostic(s)", spec.id, diags.len());
        std::process::exit(1);
    }
}

/// Resolve a `spec-lint` operand into the specs to lint: a directory (all
/// `*.toml` inside, sorted), a single file, or an embedded id.
fn spec_lint_targets(value: &str) -> Vec<DeviceSpec> {
    let path = std::path::Path::new(value);
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(path) {
            Ok(entries) => entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "toml"))
                .collect(),
            Err(e) => {
                eprintln!("spec-lint: cannot read `{value}`: {e}");
                std::process::exit(1)
            }
        };
        files.sort();
        if files.is_empty() {
            eprintln!("spec-lint: no .toml files in `{value}`");
            std::process::exit(1);
        }
        files.iter().map(|p| load_spec(&p.to_string_lossy())).collect()
    } else {
        vec![load_spec(value)]
    }
}

/// `spec-lint <id|file.toml|dir> [--json] [--parse-only]` — the spec model
/// checker: reachability, constraint coverage, contradiction detection,
/// cross-spec conformance and checker/oracle rule linkage. `--parse-only`
/// is the old `spec-check` fast path (parse + summary, no model checking).
fn cmd_spec_lint(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let parse_only = args.iter().any(|a| a == "--parse-only");
    let Some(value) = args.iter().find(|a| !a.starts_with("--")) else { usage() };
    let specs = spec_lint_targets(value);
    if parse_only {
        for spec in &specs {
            println!("{}", spec_summary_line(spec));
        }
        return;
    }
    let (reports, conformance) = lint_specs(&specs);
    let mut diags: Vec<Diagnostic> = Vec::new();
    for r in &reports {
        diags.extend(r.diagnostics.iter().cloned());
    }
    diags.extend(conformance);
    let totals = reports.iter().fold([0u64; 5], |mut acc, r: &SpecLintReport| {
        acc[0] += r.summary.constraint;
        acc[1] += r.summary.widened;
        acc[2] += r.summary.builtin;
        acc[3] += r.summary.exempt;
        acc[4] += r.summary.gaps;
        acc
    });
    if json {
        let targets: Vec<String> = reports.iter().map(|r| r.target.clone()).collect();
        let summary = [
            ("specs", reports.len() as u64),
            ("cells_constraint", totals[0]),
            ("cells_widened", totals[1]),
            ("cells_builtin", totals[2]),
            ("cells_exempt", totals[3]),
            ("cells_gap", totals[4]),
        ];
        print!("{}", scorecard_json("spec", &targets, &summary, &diags));
    } else {
        for r in &reports {
            let s = &r.summary;
            println!(
                "{}: {} cells — {} constraint, {} widened, {} builtin, {} exempt, {} gaps",
                r.target,
                s.constraint + s.widened + s.builtin + s.exempt + s.gaps,
                s.constraint,
                s.widened,
                s.builtin,
                s.exempt,
                s.gaps
            );
        }
        for d in &diags {
            println!("{d}");
        }
        println!(
            "spec-lint: {} spec(s), {} diagnostic{}",
            reports.len(),
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    if !diags.is_empty() {
        std::process::exit(1);
    }
}

fn build_config(args: &[String]) -> RunConfig {
    // `--spec` takes either an embedded spec id / kind token (same
    // namespace as `--mem`) or a TOML file path; for a file the backend is
    // built from the parsed config in `cmd_run` and the kind label comes
    // from the file's device kind.
    let mem = if let Some(spec_val) = arg_value(args, "--spec") {
        if spec_is_path(&spec_val) {
            let spec = load_spec(&spec_val);
            MemKind::parse(&spec.id).unwrap_or(MemKind::Spec(spec.config.kind))
        } else {
            parse_kind(&spec_val)
        }
    } else {
        parse_kind(&arg_value(args, "--mem").unwrap_or_else(|| "rl".into()))
    };
    let mut cfg = RunConfig::paper(mem, reads_arg(args, 10_000));
    if let Some(c) = parsed_arg(args, "--cores") {
        cfg.cores = c;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        usage()
    }
    if args.iter().any(|a| a == "--no-prefetch") {
        cfg.prefetch = false;
    }
    if let Some(p) = parsed_arg(args, "--parity-rate") {
        cfg.parity_error_rate = p;
    }
    if let Some(s) = parsed_arg(args, "--seed") {
        cfg.seed = s;
    }
    // `--kernel` overrides the `CWF_KERNEL` environment default. Both
    // kernels produce bit-identical metrics; the flag exists for
    // performance comparisons and debugging.
    if let Some(k) = arg_value(args, "--kernel") {
        cfg.kernel = Kernel::from_env_str(&k).unwrap_or_else(|| {
            eprintln!("unknown kernel '{k}' (expected 'cycle' or 'event')");
            usage()
        });
    }
    // `--verify`/`--no-verify` override the `CWF_VERIFY` environment
    // default (on in debug builds, off in release).
    if args.iter().any(|a| a == "--verify") {
        cfg.verify = true;
    } else if args.iter().any(|a| a == "--no-verify") {
        cfg.verify = false;
    }
    // `--trace <out.json>` enables trace collection (and exports the
    // Perfetto document); `--no-trace` overrides `CWF_TRACE`.
    if args.iter().any(|a| a == "--trace") {
        cfg.trace = true;
    } else if args.iter().any(|a| a == "--no-trace") {
        cfg.trace = false;
    }
    cfg
}

/// Parse `--ckpt-at <cycle> --ckpt-out <file>`, when given.
fn ckpt_args(args: &[String]) -> Option<(u64, String)> {
    let at = arg_value(args, "--ckpt-at")?;
    let at: u64 = at.parse().unwrap_or_else(|_| {
        eprintln!("--ckpt-at needs a cycle number");
        usage()
    });
    let Some(out) = arg_value(args, "--ckpt-out") else {
        eprintln!("--ckpt-at needs --ckpt-out <file>");
        usage()
    };
    Some((at, out))
}

/// An observer's report as the output shows it: `--no-<name>` drops it,
/// and `--<name>` demands it. Only a restored run can lack a demanded
/// report (`run` turns the observer on from the flag): observability
/// cannot be conjured mid-run — the first half of the evidence is gone.
fn observed<T>(args: &[String], name: &str, report: Option<T>) -> Option<T> {
    if args.iter().any(|a| *a == format!("--{name}")) {
        if report.is_none() {
            eprintln!(
                "cannot enable {name} on resume: the checkpointed run had it off \
                 (re-run with --{name} from the start)"
            );
            std::process::exit(1);
        }
        report
    } else if args.iter().any(|a| *a == format!("--no-{name}")) {
        None
    } else {
        report
    }
}

/// The tail `run` and `resume` share: carry `sys` to the `--ckpt-at`
/// cycle (writing the checkpoint) or to the end of the run, then write the
/// `--trace` file and print the outcome — the `cwfmem.run.v1` document
/// under `--json`, the text summary otherwise. A split run's output is
/// byte-identical to the unsplit run's. Exits nonzero on an unclean
/// oracle report (CI runs `--verify` and relies on the exit status).
fn finish_run(args: &[String], mut sys: System, ckpt: Option<(u64, String)>) {
    let trace_out = args.iter().any(|a| a == "--trace").then(|| match arg_value(args, "--trace") {
        Some(p) if !p.starts_with("--") => p,
        _ => {
            eprintln!("--trace needs an output path (e.g. --trace trace.json)");
            usage()
        }
    });
    let Some(m) = sys.run_to_cycle(ckpt.as_ref().map_or(u64::MAX, |c| c.0)) else {
        let (at, out) = ckpt.expect("only a --ckpt-at run pauses");
        let ckpt = sys.save_ckpt().unwrap_or_else(|e| {
            eprintln!("cannot checkpoint: {e}");
            std::process::exit(1)
        });
        if let Err(e) = std::fs::write(&out, &ckpt) {
            eprintln!("cannot write checkpoint {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("checkpoint at cycle {at}: wrote {} bytes (cwfmem.ckpt.v1) to {out}", ckpt.len());
        return;
    };
    if let Some((at, _)) = ckpt {
        eprintln!("run finished before cycle {at}; no checkpoint written");
    }
    let kstats = sys.kernel_stats();
    let verify = observed(args, "verify", sys.verify_report());
    let trace = observed(args, "trace", sys.trace_report());
    if let (Some(path), Some(t)) = (&trace_out, &trace) {
        if let Err(e) = std::fs::write(path, t.perfetto_json()) {
            eprintln!("cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote Perfetto trace to {path} ({} events, {} dropped); open at ui.perfetto.dev",
            t.events.len(),
            t.dropped
        );
    }
    if args.iter().any(|a| a == "--json") {
        // The sweep's structured schema (`cwfmem.run.v1`), one document,
        // plus the additive kernel (and, under `--verify`/`--trace`,
        // oracle and trace) diagnostics objects.
        print!(
            "{}",
            cwfmem::sim::report::to_json_observed(&m, &kstats, verify.as_ref(), trace.as_ref())
        );
    } else {
        print_summary(&m, &kstats, verify.as_ref(), trace.as_ref());
    }
    if let Some(v) = &verify {
        if !v.is_clean() {
            eprintln!("verify: {} violation(s) detected", v.total_violations);
            std::process::exit(1);
        }
    }
}

/// `resume <file.ckpt>` — restore a checkpointed run and carry it to
/// completion (or to another `--ckpt-at` pause point). The finished
/// metrics are byte-identical to an unpaused run's, and the observers
/// come back with it: a `--verify --trace` checkpoint resumes with the
/// oracle's books and the trace ring intact, so the final verify/trace
/// JSON objects match the unsplit run's.
fn cmd_resume(args: &[String]) {
    let Some(path) = args.first().filter(|p| !p.starts_with("--")) else { usage() };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read checkpoint {path}: {e}");
        std::process::exit(1)
    });
    let sys = System::from_ckpt(&bytes).unwrap_or_else(|e| {
        eprintln!("cannot resume {path}: {e}");
        std::process::exit(1)
    });
    finish_run(args, sys, ckpt_args(args));
}

/// `serve [--bind <addr:port>] [--workers N]` — the sweep HTTP server
/// (DESIGN.md §16). Runs until `POST /shutdown`.
fn cmd_serve(args: &[String]) {
    let bind = arg_value(args, "--bind").unwrap_or_else(|| "127.0.0.1:8327".into());
    let workers = parsed_arg(args, "--workers")
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(cwfmem::sim::sweep::jobs);
    let server = cwfmem::dse::Server::start(&bind, workers).unwrap_or_else(|e| {
        eprintln!("cannot bind {bind}: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "cwfmem serve: http://{} ({workers} workers) — POST /sweep, GET /sweep/<id>, \
         GET /sweep/<id>/stream, GET /sweep/<id>/cell/<n>[/trace], GET /stats, POST /shutdown",
        server.addr()
    );
    server.wait();
    server.stop();
    eprintln!("cwfmem serve: stopped");
}

/// `run` — build the system for a suite benchmark (`--bench`), a
/// file-backed device spec (`--spec file.toml`) or an external trace
/// (`--replay`), then hand it to [`finish_run`]. `--ckpt-at <cycle>
/// --ckpt-out <file>` pauses the run there and serializes the whole
/// simulator to a `cwfmem.ckpt.v1` file.
fn cmd_run(args: &[String]) {
    let cfg = build_config(args);
    let ckpt = ckpt_args(args);
    let replay = arg_value(args, "--replay");
    let spec_file = arg_value(args, "--spec").filter(|v| spec_is_path(v));
    if ckpt.is_some() && (replay.is_some() || spec_file.is_some()) {
        eprintln!("--ckpt-at supports built-in benchmarks and embedded specs only");
        std::process::exit(1);
    }
    let sys = if let Some(replay) = replay {
        // Replay an external trace, phase-shifted per core (see `dump-trace`).
        use cwfmem::sim::system::BoxedTrace;
        use cwfmem::workloads::FileTraceSource;
        let src = FileTraceSource::open(&replay).unwrap_or_else(|e| {
            eprintln!("cannot load trace {replay}: {e}");
            std::process::exit(1)
        });
        let mut cfg = cfg;
        // External traces are finite: keep the warm phases inside one pass.
        cfg.functional_warm_ops = (src.len() as u64 / 4).min(cfg.functional_warm_ops);
        cfg.warmup_dram_reads = 0;
        let n = usize::from(cfg.cores);
        let sources: Vec<BoxedTrace> = (0..n)
            .map(|i| Box::new(src.clone().starting_at(i * src.len() / n)) as BoxedTrace)
            .collect();
        let backend = cfg.mem.build(cfg.parity_error_rate, cfg.seed);
        System::with_trace_sources(&cfg, &replay, sources, backend)
    } else {
        let bench = arg_value(args, "--bench").unwrap_or_else(|| "leslie3d".into());
        let Some(profile) = cwfmem::workloads::by_name(&bench) else {
            eprintln!("unknown benchmark '{bench}'");
            usage()
        };
        match spec_file {
            Some(path) => {
                // A file-backed spec: build the homogeneous backend from
                // the parsed config (baseline topology; single-command
                // x9-class parts need only 4 devices per 72-bit access).
                let spec = load_spec(&path);
                let chips = match spec.config.addressing {
                    cwfmem::dram::AddressingStyle::SingleCommand => 4,
                    cwfmem::dram::AddressingStyle::RasCas => 9,
                };
                let backend = MemBackend::Homogeneous(cwfmem::memctrl::HomogeneousMemory::new(
                    spec.config,
                    4,
                    1,
                    chips,
                    cwfmem::memctrl::CtrlParams::default(),
                ));
                System::with_backend(&cfg, profile, backend)
            }
            None => System::new(&cfg, profile),
        }
    };
    finish_run(args, sys, ckpt);
}

/// The text summary of a finished run.
fn print_summary(
    m: &cwfmem::sim::RunMetrics,
    kstats: &cwfmem::sim::KernelStats,
    verify: Option<&cwfmem::sim::VerifyReport>,
    trace: Option<&cwfmem::sim::TraceReport>,
) {
    let cores = m.insts_per_core.len();
    println!("{} on {} ({cores} cores, {} reads):", m.mem.label(), m.bench, m.dram_reads);
    println!("  IPC (aggregate)        {:.3}", m.ipc_total());
    println!("  critical-word latency  {:.1} ns", m.avg_cw_latency_ns());
    println!(
        "  DRAM read latency      {:.1} ns (queue {:.1} + service {:.1})",
        m.avg_read_latency_ns(),
        m.mem_stats.avg_queue_ns(),
        m.mem_stats.avg_service_ns()
    );
    println!("  bus utilization        {:.1}%", m.bus_utilization() * 100.0);
    println!("  row-buffer hit rate    {:.1}%", m.row_hit_rate() * 100.0);
    println!("  DRAM power             {:.2} W", m.dram_power_w(LpddrIo::ServerAdapted));
    if let Some(c) = m.cwf {
        println!("  critical served fast   {:.1}%", c.served_fast_fraction() * 100.0);
        println!("  fast-part head start   {:.0} CPU cycles", c.avg_head_start());
    }
    println!(
        "  kernel                 {} ({:.1}x cycles per mem tick, {:.1}x per core tick)",
        kstats.kernel.name(),
        kstats.tick_ratio(),
        kstats.core_tick_ratio()
    );
    let spans = kstats.core_span_cycles();
    if spans > 0 {
        let pc = |x: u64| 100.0 * x as f64 / spans as f64;
        println!(
            "  core spans             {spans} cycles batched \
             (stall {:.0}%, wait {:.0}%, cruise {:.0}%, replay {:.0}%)",
            pc(kstats.core_stall_cycles),
            pc(kstats.core_wait_cycles),
            pc(kstats.core_cruise_cycles),
            pc(kstats.core_replay_cycles)
        );
    }
    if let Some(v) = verify {
        if v.is_clean() {
            println!(
                "  verify                 clean ({} commands, {} events, {} core spans checked)",
                v.commands_checked, v.events_checked, v.core_spans
            );
        } else {
            println!(
                "  verify                 {} violation(s); first: {}",
                v.total_violations,
                v.violations.first().map_or_else(String::new, ToString::to_string)
            );
        }
    }
    if let Some(t) = trace {
        println!(
            "  trace                  {} events ({} dropped), {} reads decomposed",
            t.events.len(),
            t.dropped,
            t.summary.reads
        );
    }
}

fn cmd_trace_check(args: &[String]) {
    let Some(path) = args.first() else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1)
    });
    match cwfmem::tracelog::json::validate_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: valid Chrome/Perfetto trace ({} events, {} metadata, {} tracks)",
                check.events, check.metadata, check.tracks
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID trace: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_sweep(args: &[String]) {
    use cwfmem::sim::{report, sweep, Table};
    let reads = reads_arg(args, 8_000);
    let benches: Vec<String> = if args.iter().any(|a| a == "--all-benches") {
        all_benches().iter().map(|b| (*b).to_owned()).collect()
    } else if let Some(list) = arg_value(args, "--benches") {
        list.split(',').map(str::to_owned).collect()
    } else {
        default_benches().iter().map(|b| (*b).to_owned()).collect()
    };
    let kinds: Vec<MemKind> = arg_value(args, "--kinds").map_or_else(
        || vec![MemKind::Ddr3, MemKind::Rl, MemKind::RlAdaptive],
        |list| list.split(',').map(parse_kind).collect(),
    );
    let jobs = parsed_arg(args, "--jobs").unwrap_or_else(sweep::jobs);
    let json_dir = arg_value(args, "--json").map(std::path::PathBuf::from);

    let bench_refs: Vec<&str> = benches.iter().map(String::as_str).collect();
    let cells = sweep::grid(&bench_refs, &kinds, reads);
    eprintln!(
        "sweep: {} cells ({} benches x {} kinds), {jobs} workers",
        cells.len(),
        benches.len(),
        kinds.len()
    );
    let results = sweep::run_cells_with(&cells, jobs);

    let mut cols = vec!["bench".to_owned()];
    for k in &kinds {
        cols.push(format!("{} IPC", k.label()));
        cols.push(format!("{} cw-p99 ns", k.label()));
    }
    let mut table = Table::new(
        "Sweep: IPC and p99 critical-word latency",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut failures = 0usize;
    for (bench, row) in bench_refs.iter().zip(results.chunks(kinds.len())) {
        let mut cells_out = vec![(*bench).to_owned()];
        for r in row {
            match r {
                cwfmem::sim::CellResult::Done(m, k) => {
                    cells_out.push(format!("{:.3}", m.ipc_total()));
                    cells_out.push(format!("{:.1}", m.cw_latency_ns_quantile(0.99)));
                    if let Some(dir) = &json_dir {
                        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                            std::fs::write(
                                dir.join(format!("{}__{}.json", m.bench, m.mem.slug())),
                                report::to_json_diag(m, k),
                            )
                        }) {
                            eprintln!("cannot write JSON to {}: {e}", dir.display());
                            std::process::exit(1);
                        }
                    }
                }
                cwfmem::sim::CellResult::Failed { bench, mem, error } => {
                    failures += 1;
                    eprintln!("FAILED {bench}/{}: {error}", mem.label());
                    cells_out.push("failed".to_owned());
                    cells_out.push("-".to_owned());
                }
            }
        }
        table.row(cells_out);
    }
    println!("{table}");
    if let Some(dir) = &json_dir {
        eprintln!("wrote {} JSON documents to {}", results.len() - failures, dir.display());
    }
    if failures > 0 {
        eprintln!("{failures} cell(s) failed");
        std::process::exit(1);
    }
}

fn cmd_compare(args: &[String]) {
    let bench = arg_value(args, "--bench").unwrap_or_else(|| "leslie3d".into());
    let reads = reads_arg(args, 8_000);
    println!(
        "{:<10} {:>8} {:>9} {:>12} {:>9}",
        "config", "IPC", "vs DDR3", "cw-lat (ns)", "DRAM W"
    );
    let mut base = None;
    for (_, kind) in KINDS {
        let m = run_benchmark(&RunConfig::paper(kind, reads), &bench);
        let ipc = m.ipc_total();
        let b = *base.get_or_insert(ipc);
        println!(
            "{:<10} {:>8.2} {:>8.1}% {:>12.1} {:>9.2}",
            kind.label(),
            ipc,
            (ipc / b - 1.0) * 100.0,
            m.avg_cw_latency_ns(),
            m.dram_power_w(LpddrIo::ServerAdapted)
        );
    }
}

fn cmd_dump_trace(args: &[String]) {
    let bench = arg_value(args, "--bench").unwrap_or_else(|| "leslie3d".into());
    let core: u8 = parsed_arg(args, "--core").unwrap_or(0);
    let ops: u64 = parsed_arg(args, "--ops").unwrap_or(100_000);
    let seed: u64 = parsed_arg(args, "--seed").unwrap_or(0xD2A4_0001);
    let Some(out) = arg_value(args, "--out") else { usage() };
    let Some(profile) = cwfmem::workloads::by_name(&bench) else {
        eprintln!("unknown benchmark '{bench}'");
        std::process::exit(1)
    };
    let mut gen = cwfmem::workloads::TraceGen::new(profile, core, seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1)
    }));
    cwfmem::workloads::dump(&mut gen, ops, &mut f).expect("trace write");
    println!("wrote {ops} records of {bench} (core {core}) to {out}");
}

fn cmd_figures(args: &[String]) {
    let which = args.first().cloned().unwrap_or_else(|| "all".into());
    let reads = reads_arg(args, 8_000);
    let csv_dir = arg_value(args, "--csv").map(std::path::PathBuf::from);
    let benches: Vec<&'static str> =
        if args.iter().any(|a| a == "--all-benches") { all_benches() } else { default_benches() };
    let run = |name: &str| -> bool { which == name || which == "all" };
    let emit = |tables: Vec<cwfmem::sim::Table>| {
        for t in tables {
            println!("{t}");
            if let Some(dir) = &csv_dir {
                match t.write_csv(dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("csv write failed: {e}"),
                }
            }
        }
    };
    if run("fig1") {
        let (a, b) = fig1_homogeneous(&benches, reads);
        emit(vec![a, b]);
    }
    if run("fig2") {
        emit(vec![fig2_power_utilization()]);
    }
    if run("fig3") {
        emit(vec![fig3_line_profiles((40 * reads).max(200_000))]);
    }
    if run("fig4") {
        emit(vec![fig4_critical_word_distribution(&benches, 4 * reads)]);
    }
    if run("fig6") {
        let (a, b, c) = fig6_7_8_cwf(&benches, reads);
        emit(vec![a, b, c]);
    }
    if run("fig9") {
        emit(vec![fig9_placement(&benches, reads)]);
    }
    if run("fig10") {
        let (a, b) = fig10_11_energy(&benches, reads);
        emit(vec![a, b]);
    }
    if run("ablations") {
        emit(vec![ablations(&benches, reads)]);
    }
    if run("alternatives") {
        let (a, b) = alternatives(&benches, reads);
        emit(vec![a, b]);
    }
}
