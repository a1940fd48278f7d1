//! Host-speed normalisation of the end-to-end timings.
//!
//! On a shared host the same simulator work takes up to 1.6x longer from
//! one minute to the next, with CPU time tracking wall time, so raw
//! seconds compare two runs only if both caught the host in the same
//! state. The benchmark therefore times a fixed reference kernel of its
//! own, the *probe*, right before and right after each measured stretch,
//! and scales the stretch by how much slower than nominal the probe ran:
//!
//! ```text
//! normalised = raw * PROBE_NOMINAL_S / mean(probe before, probe after)
//! ```
//!
//! The result reads as seconds on the host at its nominal speed. The
//! probe is benchmark code and never calls the simulator, so a change to
//! the program moves the normalised figure by the same factor as the raw
//! one. The CPU probe is allocation and pointer heavy (ordered-map churn
//! over a few MiB), like the simulator's own queues and tables; of the
//! probes tried it tracked the simulator's slow-downs most closely.
//!
//! Sub-millisecond request latencies swing with the host's thread wake-up
//! and loopback cost instead, which the CPU probe does not see. They are
//! scaled by a second probe of that kind: round trips to a loopback echo
//! server of the benchmark's own ([`Echo`]), interleaved one for one with
//! the requests. A percentile of a round's request latencies is scaled by
//! the same percentile of the round's echo round trips
//! ([`request_percentile`]). Over 10-20 s windows the median and p90
//! document fetch tracked the median and p90 echo round trip with
//! correlations of 0.83-0.95.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats;

/// Map operations per probe.
const PROBE_OPS: u64 = 200_000;
/// Distinct keys the probe churns over.
const PROBE_KEYS: u64 = 100_000;
/// Probe seconds at the host's nominal speed: the median probe on the
/// 2-CPU Intel Xeon container the benchmark was written on, in its
/// quiet stretches. It only fixes the scale, so normalised figures read
/// close to raw seconds there; comparisons do not depend on its value.
const PROBE_NOMINAL_S: f64 = 0.05;

/// Echo round-trip percentiles, ms, at the host's nominal speed
/// (measured as [`PROBE_NOMINAL_S`] was). Like it, they only fix the
/// scale.
const ECHO_NOMINAL_MS: [(f64, f64); 2] = [(50.0, 0.05), (90.0, 0.065)];
/// Body bytes of an echo response: about one cell document.
const ECHO_BODY: usize = 4096;
/// First bytes of the request that stops the echo server.
const ECHO_QUIT: &[u8] = b"QUIT";

/// Run the CPU probe once; returns its wall seconds.
fn probe() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..PROBE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % PROBE_KEYS;
        if k & 3 == 0 {
            map.remove(&k);
        } else {
            *map.entry(k).or_insert(0) += i;
        }
        if let Some((_, v)) = map.range(k..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// A loopback HTTP-shaped echo: one thread accepts a connection, reads a
/// request head, answers [`ECHO_BODY`] bytes and closes, as the sweep
/// server does for a document fetch, with none of its code.
#[derive(Debug)]
pub struct Echo {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    /// Bind an ephemeral loopback port and start serving.
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound.
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {ECHO_BODY}\r\nConnection: close\r\n\r\n{}",
                "x".repeat(ECHO_BODY)
            );
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { continue };
                let head = read_head(&mut conn);
                if head.starts_with(ECHO_QUIT) {
                    break;
                }
                let _ = conn.write_all(response.as_bytes());
            }
        });
        Ok(Echo { addr, thread: Some(thread) })
    }

    /// One round trip: connect, send a request head, read the response to
    /// the end. Returns milliseconds, or `None` on an I/O error.
    #[must_use]
    pub fn round_trip(&self) -> Option<f64> {
        let t = Instant::now();
        let mut s = TcpStream::connect(self.addr).ok()?;
        s.write_all(b"GET /echo HTTP/1.1\r\nHost: cwfbench\r\nConnection: close\r\n\r\n").ok()?;
        let mut body = Vec::with_capacity(ECHO_BODY + 128);
        s.read_to_end(&mut body).ok()?;
        (body.len() > ECHO_BODY).then(|| t.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = s.write_all(ECHO_QUIT);
            let _ = s.write_all(b"\r\n\r\n");
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Read up to the end of a request head (or EOF).
fn read_head(conn: &mut TcpStream) -> Vec<u8> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    head
}

/// Probe samples of one run, taken back to back with the measured work.
#[derive(Debug, Default)]
pub struct HostSpeed {
    last: Option<f64>,
    samples: Vec<f64>,
    echo: Option<Echo>,
    rtts: Vec<f64>,
}

impl HostSpeed {
    /// Probe now: the start of a measured stretch.
    pub fn mark(&mut self) {
        let p = probe();
        self.samples.push(p);
        self.last = Some(p);
    }

    /// Probe now, at the end of the stretch that began at the previous
    /// probe, and return that stretch's factor (nominal over the mean of
    /// its two probes). Multiply a stretch's seconds by it; divide a rate.
    /// The probe also marks the start of the next stretch.
    pub fn factor(&mut self) -> f64 {
        let before = self.last.unwrap_or_else(probe);
        self.mark();
        let after = self.last.unwrap_or(before);
        PROBE_NOMINAL_S / ((before + after) / 2.0)
    }

    /// Probe samples so far.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Time one echo round trip, ms (the echo server starts on first
    /// use). `None` if the echo server is unreachable.
    pub fn echo(&mut self) -> Option<f64> {
        if self.echo.is_none() {
            self.echo = Echo::start().ok();
        }
        let ms = self.echo.as_ref().and_then(Echo::round_trip)?;
        self.rtts.push(ms);
        Some(ms)
    }

    /// Echo round trips so far, ms.
    #[must_use]
    pub fn round_trips(&self) -> &[f64] {
        &self.rtts
    }
}

/// The `p`-th percentile (50 or 90) of request latencies `ms`, scaled by
/// the nominal echo percentile over the same percentile of `echoes`, the
/// round trips taken alongside them. `None` if either is empty or `p` has
/// no nominal value.
#[must_use]
pub fn request_percentile(ms: &[f64], echoes: &[f64], p: f64) -> Option<f64> {
    let &(_, nominal) = ECHO_NOMINAL_MS.iter().find(|(q, _)| *q == p)?;
    (!ms.is_empty() && !echoes.is_empty())
        .then(|| stats::percentile(ms, p) * nominal / stats::percentile(echoes, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_probes_on_both_sides() {
        let mut hs = HostSpeed::default();
        hs.mark();
        let f = hs.factor();
        let s = hs.samples();
        assert_eq!(s.len(), 2);
        let want = PROBE_NOMINAL_S / ((s[0] + s[1]) / 2.0);
        assert!((f - want).abs() < 1e-12 && f > 0.0);
        hs.factor();
        assert_eq!(hs.samples().len(), 3, "a factor's end probe starts the next stretch");
    }

    #[test]
    fn echo_round_trips_succeed_and_scale_request_percentiles() {
        let mut hs = HostSpeed::default();
        let echoes: Vec<f64> = (0..20).filter_map(|_| hs.echo()).collect();
        assert_eq!(echoes.len(), 20, "every round trip to the echo server succeeds");
        assert_eq!(hs.round_trips(), echoes.as_slice());
        drop(hs); // stops and joins the echo thread

        let ms: Vec<f64> = (1..=10).map(f64::from).collect();
        let echoes = [0.5; 10];
        for (p, nominal) in ECHO_NOMINAL_MS {
            let want = stats::percentile(&ms, p) * nominal / 0.5;
            assert_eq!(request_percentile(&ms, &echoes, p), Some(want));
        }
        assert_eq!(request_percentile(&ms, &echoes, 99.0), None);
        assert_eq!(request_percentile(&ms, &[], 50.0), None);
        assert_eq!(request_percentile(&[], &echoes, 50.0), None);
    }
}
