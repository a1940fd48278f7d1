//! The sweep-service side: an in-process `cwf_dse::Server`, driven over
//! HTTP by one client connection at a time.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cwf_dse::http::client_request;
use cwf_dse::Json;
use sim_harness::config::MemKind;
use sim_harness::sweep::cell_seed;
use sim_harness::RunConfig;

use crate::cells::{paper_cfg, timed_pass, CellRun};
use crate::gate::Gate;
use crate::hostspeed::HostSpeed;

/// A sweep grid as `POST /sweep` expands it: every bench × every kind,
/// bench-major.
pub struct Grid {
    /// Benchmarks, in body order.
    pub benches: Vec<&'static str>,
    /// Memory kinds, in body order.
    pub kinds: Vec<MemKind>,
    /// Measured-window reads per cell.
    pub reads: u64,
}

impl Grid {
    /// The request body for base seed `seed` (below 2^53: the server
    /// reads body numbers as doubles). Kernel and oracle are pinned so the
    /// server's environment defaults cannot leak in.
    #[must_use]
    pub fn body(&self, seed: u64) -> String {
        let list = |xs: Vec<String>| xs.join(", ");
        format!(
            "{{\"benches\": [{}], \"kinds\": [{}], \"reads\": {}, \"verify\": false, \
             \"kernel\": \"event\", \"seed\": {seed}}}",
            list(self.benches.iter().map(|b| format!("\"{b}\"")).collect()),
            list(self.kinds.iter().map(|k| format!("\"{}\"", k.slug())).collect()),
            self.reads
        )
    }

    /// The cells the server builds for base seed `seed`, in index order.
    #[must_use]
    pub fn cells(&self, seed: u64) -> Vec<(&'static str, RunConfig)> {
        let mut out = Vec::with_capacity(self.benches.len() * self.kinds.len());
        for &b in &self.benches {
            for &k in &self.kinds {
                out.push((b, paper_cfg(k, self.reads, cell_seed(seed, b, k))));
            }
        }
        out
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.benches.len() * self.kinds.len()
    }
}

/// Response of a streamed endpoint: status and every JSON line with the
/// time it arrived.
struct Streamed {
    status: u16,
    lines: Vec<(Duration, String)>,
}

/// `GET path`, reading the chunked ndjson body line by line so each
/// progress line is timestamped on arrival (relative to `t0`).
fn get_streamed(addr: SocketAddr, path: &str, t0: Instant) -> std::io::Result<Streamed> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: cwfmem\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    s.flush()?;
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line.split_whitespace().nth(1).and_then(|x| x.parse().ok()).unwrap_or(0);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
    }
    let mut lines = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let l = line.trim_end();
        if l.starts_with('{') {
            lines.push((t0.elapsed(), l.to_owned()));
        }
    }
    Ok(Streamed { status, lines })
}

/// One request with its status checked: a transport error or a non-2xx
/// status is a failed operation. Returns the body on success.
fn request(
    gate: &mut Gate,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Option<String> {
    match client_request(addr, method, path, body) {
        Ok((status, text)) => gate
            .check((200..300).contains(&status), || format!("{method} {path}: HTTP {status}"))
            .then_some(text),
        Err(e) => {
            gate.check(false, || format!("{method} {path}: {e}"));
            None
        }
    }
}

fn num(v: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_u64()
}

/// Cache and pool counters from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Cells answered from a finished cache entry.
    pub hits: u64,
    /// Cells batched onto an in-flight computation.
    pub batched: u64,
    /// Cells computed.
    pub misses: u64,
    /// Pool work steals.
    pub steals: u64,
}

/// Read `/stats`.
pub fn stats(gate: &mut Gate, addr: SocketAddr) -> Option<Stats> {
    let text = request(gate, addr, "GET", "/stats", None)?;
    let v = Json::parse(text.trim()).ok();
    let s = v.as_ref().and_then(|v| {
        Some(Stats {
            hits: num(v, &["cache", "hits"])?,
            batched: num(v, &["cache", "batched"])?,
            misses: num(v, &["cache", "misses"])?,
            steals: num(v, &["pool", "steals"])?,
        })
    });
    gate.check(s.is_some(), || format!("/stats unparsable: {text}"));
    s
}

/// One submitted sweep, streamed to completion. Times run from the start
/// of the POST.
pub struct Sweep {
    /// Sweep id.
    pub id: u64,
    /// POST round trip.
    pub post: Duration,
    /// First progress line with at least one cell done.
    pub first_cell: Duration,
    /// Stream closed (last cell delivered).
    pub done: Duration,
}

/// Submit `body` (`n` cells) and read its `/stream` to the end. The last
/// progress line must show every cell done, none failed, no duplicate
/// delivery, and all (`warm`) or no cache hits.
fn sweep(gate: &mut Gate, addr: SocketAddr, body: &str, n: usize, warm: bool) -> Option<Sweep> {
    let t0 = Instant::now();
    let text = request(gate, addr, "POST", "/sweep", Some(body))?;
    let post = t0.elapsed();
    let id = Json::parse(text.trim()).ok().and_then(|v| v.get("id").and_then(Json::as_u64));
    gate.check(id.is_some(), || format!("POST /sweep: no id in {text}"));
    let id = id?;
    let path = format!("/sweep/{id}/stream");
    let streamed = match get_streamed(addr, &path, t0) {
        Ok(s) => s,
        Err(e) => {
            gate.check(false, || format!("GET {path}: {e}"));
            return None;
        }
    };
    gate.check(streamed.status == 200, || format!("GET {path}: HTTP {}", streamed.status));
    let parsed: Vec<(Duration, Json)> =
        streamed.lines.iter().filter_map(|(t, l)| Json::parse(l).ok().map(|v| (*t, v))).collect();
    let last = parsed.last().map(|(_, v)| v);
    let want = |k: &str| last.and_then(|v| num(v, &[k]));
    let (done, total, failed, dups, hits) = (
        want("done"),
        want("total"),
        want("failed"),
        want("duplicate_deliveries"),
        want("cache_hits"),
    );
    let n = n as u64;
    gate.check(done == Some(n) && total == Some(n) && failed == Some(0), || {
        format!("sweep {id}: stream ended at done={done:?} total={total:?} failed={failed:?}")
    });
    gate.check(dups == Some(0), || format!("sweep {id}: duplicate deliveries {dups:?}"));
    let want_hits = if warm { n } else { 0 };
    gate.check(hits == Some(want_hits), || {
        format!(
            "sweep {id}: {hits:?} cache hits, expected {want_hits} ({})",
            if warm { "warm" } else { "cold" }
        )
    });
    let first_cell = parsed
        .iter()
        .find(|(_, v)| num(v, &["done"]).is_some_and(|d| d > 0))
        .map_or(Duration::ZERO, |(t, _)| *t);
    let done_at = streamed.lines.last().map_or(t0.elapsed(), |(t, _)| *t);
    Some(Sweep { id, post, first_cell, done: done_at })
}

/// Everything one service round measured. The cold sweep, offline pass
/// and trace fetches carry host-speed factors or are normalised by them
/// (see [`HostSpeed`]); request latencies are raw, for the caller to scale
/// by the run's echo round trips; `post_ms` and `first_cell_ms` are raw.
#[derive(Default)]
pub struct Round {
    /// Cold sweep: cells and normalised seconds from POST to last delivery.
    pub cold: Option<(usize, f64)>,
    /// Cold POST round trip, ms.
    pub post_ms: Option<f64>,
    /// Cold POST to first delivered cell, ms.
    pub first_cell_ms: Option<f64>,
    /// Warm resubmission, POST to stream close, ms (one per resubmit).
    pub warm_ms: Vec<f64>,
    /// Echo round trips, ms, one before each warm resubmission and each
    /// document fetch.
    pub echo_ms: Vec<f64>,
    /// `/cell/<n>` round trips, ms.
    pub fetch_ms: Vec<f64>,
    /// `/cell/<n>/trace` round trips, normalised s (one per fetch).
    pub trace_fetch_s: Vec<f64>,
    /// The fetched Perfetto document (every refetch is byte-identical),
    /// not yet validated: see [`check_trace`].
    pub trace: Option<String>,
    /// Cold documents, cell-index order.
    pub docs: Vec<String>,
    /// Offline reruns of the cold cells (`report::to_json_diag`), raw,
    /// each with its host-speed factor.
    pub offline: Vec<(CellRun, f64)>,
    /// `/stats` before and after the round.
    pub stats: Option<(Stats, Stats)>,
}

/// Fetches of the trace cell per round. Each reruns the cell with
/// tracing on, so one per round gave too few samples for a steady median.
const TRACE_FETCHES: usize = 3;

/// Warm resubmissions per round, at least. Each takes about half a
/// millisecond, so a round's median has a hundred samples for little cost.
const WARM_SWEEPS: usize = 100;

/// Warm resubmissions per round whose every cell document is fetched:
/// enough to make at least 600 fetches, so that a round's p90 has far
/// more than ten samples beyond it. A fetch takes a fraction of a
/// millisecond.
fn fetched_resubmits(cells: usize) -> usize {
    600usize.div_ceil(cells.max(1))
}

/// One service round over `grid` with base seed `seed` (fresh per round,
/// so every cold cell misses the cache):
/// 1. POST the cold sweep and stream it to completion;
/// 2. check every cell's seed in `/sweep/<id>` (seeds are JSON strings:
///    64-bit values), fetch every cold document and compare it byte for
///    byte with an offline run of the same config and seed;
/// 3. resubmit the same body at least [`WARM_SWEEPS`] times (all hits,
///    identical bytes) and fetch every cell of the first
///    [`fetched_resubmits`] of them;
/// 4. fetch the trace of cell `trace_cell` [`TRACE_FETCHES`] times and
///    check every refetch writes the same bytes.
///
/// `hs` probes the host speed between the phases; its last probe should
/// be fresh when the round starts.
pub fn round(
    gate: &mut Gate,
    addr: SocketAddr,
    grid: &Grid,
    seed: u64,
    trace_cell: usize,
    hs: &mut HostSpeed,
) -> Round {
    let mut out = Round::default();
    let before = stats(gate, addr);
    let body = grid.body(seed);
    let n = grid.len();
    let cells = grid.cells(seed);
    let Some(cold) = sweep(gate, addr, &body, n, false) else { return out };
    out.cold = Some((n, cold.done.as_secs_f64() * hs.factor()));
    out.post_ms = Some(cold.post.as_secs_f64() * 1e3);
    out.first_cell_ms = Some(cold.first_cell.as_secs_f64() * 1e3);

    if let Some(text) = request(gate, addr, "GET", &format!("/sweep/{}", cold.id), None) {
        let status = Json::parse(text.trim()).ok();
        let listed =
            status.as_ref().and_then(|v| v.get("cells")).and_then(Json::as_arr).unwrap_or(&[]);
        gate.check(listed.len() == n, || {
            format!("sweep {}: status lists {} cells", cold.id, listed.len())
        });
        for (i, (c, (bench, cfg))) in listed.iter().zip(&cells).enumerate() {
            let seed_s = c.get("seed").and_then(Json::as_str).and_then(|s| s.parse::<u64>().ok());
            let same = seed_s == Some(cfg.seed)
                && c.get("bench").and_then(Json::as_str) == Some(bench)
                && c.get("mem").and_then(Json::as_str) == Some(cfg.mem.slug().as_str());
            gate.check(same, || {
                format!("sweep {} cell {i}: identity differs from {bench}/{}", cold.id, cfg.seed)
            });
        }
    }

    // Each request is paired with one echo round trip (see `HostSpeed`).
    let fetch = |gate: &mut Gate, out: &mut Round, hs: &mut HostSpeed, id: u64, i: usize| {
        out.echo_ms.extend(hs.echo());
        let t = Instant::now();
        let doc = request(gate, addr, "GET", &format!("/sweep/{id}/cell/{i}"), None);
        out.fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        doc
    };
    // The offline reruns go first, so that every document fetch below is
    // measured in one kept-awake stretch.
    hs.mark();
    let offline = timed_pass(gate, &cells, true, hs);

    let awake = KeepAwake::start();
    for (i, run) in offline.iter().enumerate() {
        let doc = fetch(gate, &mut out, hs, cold.id, i).unwrap_or_default();
        if let Some((run, _)) = run {
            let what = format!("cold cell {i} ({}) vs offline run", cells[i].0);
            gate.same_bytes(&what, &run.doc, &doc);
        }
        out.docs.push(doc);
    }
    let fetched = fetched_resubmits(n);
    for k in 0..WARM_SWEEPS.max(fetched) {
        out.echo_ms.extend(hs.echo());
        let Some(warm) = sweep(gate, addr, &body, n, true) else { continue };
        out.warm_ms.push(warm.done.as_secs_f64() * 1e3);
        if k >= fetched {
            continue;
        }
        for i in 0..n {
            if let Some(doc) = fetch(gate, &mut out, hs, warm.id, i) {
                gate.same_bytes(&format!("warm cell {i} vs cold"), &out.docs[i], &doc);
            }
        }
    }
    drop(awake);
    out.offline = offline.into_iter().flatten().collect();

    let path = format!("/sweep/{}/cell/{trace_cell}/trace", cold.id);
    hs.mark();
    for _ in 0..TRACE_FETCHES {
        let t = Instant::now();
        let trace = request(gate, addr, "GET", &path, None);
        let trace_s = t.elapsed().as_secs_f64();
        let f = hs.factor();
        let Some(trace) = trace else { continue };
        out.trace_fetch_s.push(trace_s * f);
        match &out.trace {
            Some(first) => {
                gate.same_bytes(&format!("trace of cell {trace_cell} refetch"), first, &trace);
            }
            None => out.trace = Some(trace),
        }
    }

    let after = stats(gate, addr);
    if let (Some(b), Some(a)) = (before, after) {
        let warm_cells = (out.warm_ms.len() * n) as u64;
        gate.check(a.misses - b.misses == n as u64, || {
            format!("/stats: {} misses for {n} unique cells", a.misses - b.misses)
        });
        gate.check(a.hits - b.hits == warm_cells && a.batched == b.batched, || {
            format!(
                "/stats: {} hits, {} batched for {warm_cells} warm cells",
                a.hits - b.hits,
                a.batched - b.batched
            )
        });
        out.stats = Some((b, a));
    }
    out
}

/// The fetched trace must pass `validate_chrome_trace`. Kept out of
/// [`round`] so that the validator's own memory is not counted in the
/// round's peak resident set.
pub fn check_trace(gate: &mut Gate, trace_cell: usize, trace: &str) {
    let valid = cwf_tracelog::json::validate_chrome_trace(trace);
    gate.check(valid.is_ok(), || {
        format!("trace of cell {trace_cell}: {}", valid.err().unwrap_or_default())
    });
}

/// Time a one-cell cold sweep of `bench`/`kind` from POST to delivery.
pub fn single_cell_service(
    gate: &mut Gate,
    addr: SocketAddr,
    bench: &'static str,
    kind: MemKind,
    reads: u64,
    seed: u64,
) -> Option<Duration> {
    let grid = Grid { benches: vec![bench], kinds: vec![kind], reads };
    sweep(gate, addr, &grid.body(seed), 1, false).map(|s| s.done)
}

/// Threads that keep every CPU runnable-busy (yielding in a loop) while
/// sub-millisecond request latencies are measured. A request crosses
/// several thread wake-ups; on a virtual machine, waking a halted vCPU
/// goes through the hypervisor and costs anywhere from microseconds to
/// milliseconds depending on what else the host runs, which swamped the
/// request's own cost. The yielding threads give way to any runnable
/// thread at once, so the request path runs as soon as it is woken.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// One yielding thread per available CPU.
    #[must_use]
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let n = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..n)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Poll `/healthz` until it answers 200.
pub fn wait_healthy(addr: SocketAddr) -> bool {
    for _ in 0..10_000 {
        if matches!(client_request(addr, "GET", "/healthz", None), Ok((200, _))) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_body_and_cells_agree_with_server_expansion() {
        let grid = Grid {
            benches: vec!["stream", "mcf"],
            kinds: vec![MemKind::Ddr3, MemKind::Rl],
            reads: 2_000,
        };
        let body = grid.body(42);
        let v = Json::parse(&body).expect("body parses");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("verify").and_then(Json::as_bool), Some(false));
        let cells = grid.cells(42);
        let order: Vec<(&str, String)> = cells.iter().map(|(b, c)| (*b, c.mem.slug())).collect();
        assert_eq!(
            order,
            [("stream", "ddr3"), ("stream", "rl"), ("mcf", "ddr3"), ("mcf", "rl")]
                .map(|(b, k)| (b, k.to_owned()))
        );
        assert_eq!(cells[3].1.seed, cell_seed(42, "mcf", MemKind::Rl));
        assert_eq!(fetched_resubmits(4), 150);
        assert_eq!(fetched_resubmits(6), 100);
        assert_eq!(fetched_resubmits(30), 20);
    }
}
