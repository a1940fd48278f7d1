//! Where a result came from: host, toolchain, revision, command, seed.

use std::path::Path;

/// Printed with every result: the model has no reference measurements.
pub const VALIDITY: &str = "the cwfmem model is unvalidated against real hardware; \
                            the benchmark gives no error figure";

/// The git revision of the checkout in the working directory, read from
/// `.git` directly (nothing outside the checkout is consulted).
fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unavailable (not a git checkout)".to_owned();
    };
    let Some(refname) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(refname))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == refname).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unresolved {refname}"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// One JSON object recording the result's provenance.
#[must_use]
pub fn json(args: &[String], seed: u64) -> String {
    let q = |s: &str| format!("\"{}\"", cwf_tracelog::json::escape(s));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \"command\": [{}], \
         \"seed\": \"{seed}\", \"validity\": {}}}",
        q(&cpu_model()),
        q(&rustc_version()),
        q(&git_revision()),
        args.iter().map(|a| q(a)).collect::<Vec<_>>().join(", "),
        q(VALIDITY)
    )
}
