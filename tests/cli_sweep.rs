//! CLI regression: `cwfmem sweep` must exit nonzero when any cell
//! panics (CI relies on the exit status to catch silently broken grids)
//! and zero when the grid completes. Hostile or mistyped input to the
//! other subcommands must end in an error exit, never an abort.

use std::process::Command;

fn cwfmem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cwfmem"))
}

#[test]
fn sweep_exits_nonzero_on_a_failed_cell() {
    // An unknown benchmark is not validated up front: its cell panics
    // inside the worker, becomes `CellResult::Failed`, and the sweep
    // must report it through the exit status.
    let out = cwfmem()
        .args(["sweep", "--benches", "no-such-bench", "--kinds", "rl", "--reads", "120"])
        .output()
        .expect("run cwfmem");
    assert!(!out.status.success(), "a failed cell must produce a nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("FAILED no-such-bench"), "stderr: {stderr}");
    assert!(stderr.contains("1 cell(s) failed"), "stderr: {stderr}");
}

#[test]
fn sweep_with_a_mixed_grid_still_fails_overall() {
    // One good cell and one bad: the good cell's result is printed, but
    // the sweep as a whole is a failure.
    let out = cwfmem()
        .args([
            "sweep",
            "--benches",
            "libquantum,no-such-bench",
            "--kinds",
            "ddr3",
            "--reads",
            "120",
            "--jobs",
            "2",
        ])
        .output()
        .expect("run cwfmem");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("libquantum"), "good cell missing from table: {stdout}");
    assert!(stdout.contains("failed"), "failed cell missing from table: {stdout}");
}

#[test]
fn sweep_exits_zero_when_all_cells_complete() {
    let out = cwfmem()
        .args(["sweep", "--benches", "libquantum", "--kinds", "ddr3", "--reads", "120"])
        .output()
        .expect("run cwfmem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clean sweep must exit zero; stderr: {stderr}");
    assert!(!stderr.contains("failed"), "stderr: {stderr}");
}

#[test]
fn trace_check_rejects_a_nesting_attack() {
    // 200 000 unclosed brackets: the parser's depth cap must reject them
    // before they exhaust its stack.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write deep file");
    let out = cwfmem().arg("trace-check").arg(&path).output().expect("run cwfmem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("INVALID"), "stderr: {stderr}");
}

#[test]
fn run_with_an_unknown_bench_is_a_usage_error() {
    let out = cwfmem().args(["run", "--bench", "no-such-bench"]).output().expect("run cwfmem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown benchmark 'no-such-bench'"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn out_of_range_cores_and_zero_reads_are_usage_errors() {
    // Each used to panic inside the hierarchy (exit 101), run an empty
    // measurement window, or silently fall back to the flag's default;
    // the CLI boundary must reject them first.
    for (args, needle) in [
        (&["run", "--bench", "mcf", "--cores", "0"][..], "'cores' must be in 1..=8"),
        (&["run", "--bench", "mcf", "--cores", "9"][..], "'cores' must be in 1..=8"),
        (&["run", "--bench", "mcf", "--cores", "many"][..], "invalid --cores value"),
        (&["run", "--bench", "mcf", "--seed", "abc"][..], "invalid --seed value"),
        (&["run", "--bench", "mcf", "--reads", "0"][..], "--reads must be at least 1"),
        (&["sweep", "--benches", "mcf", "--kinds", "rl", "--reads", "0"][..], "--reads must be"),
    ] {
        let out = cwfmem().args(args).output().expect("run cwfmem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
