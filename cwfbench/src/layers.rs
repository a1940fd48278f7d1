//! Benchmark-side instruments for the traced run: a counting trace
//! source, a timing memory-backend wrapper, and an open-loop replay
//! driver that attributes host time to the cache hierarchy and to the
//! memory side without touching program code.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cache_hier::{AccessOutcome, HierParams, Hierarchy, StoreOutcome, Woken};
use cpu_model::{TraceOp, TraceSource};
use mem_ctrl::{AuditRecord, ChannelDesc, LineRequest, MainMemory, MemBusy, MemEvent};
use mem_ctrl::{MemSystemStats, Token};
use sim_harness::RunConfig;
use workloads::{BenchmarkProfile, TraceGen};

/// A trace source that counts `next_op` calls and otherwise passes the
/// inner stream through untouched. Counting is one uncontended
/// load/store per op (the source has a single owner thread); timing each
/// op here would cost more than the generator itself, so generator time
/// is measured by [`time_generation`] on an identical stream instead.
pub struct CountedSource<S> {
    inner: S,
    calls: Arc<AtomicU64>,
}

impl<S> CountedSource<S> {
    /// Wrap `inner`; the returned counter reads the calls made so far.
    pub fn new(inner: S) -> (Self, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        (CountedSource { inner, calls: Arc::clone(&calls) }, calls)
    }
}

impl<S: TraceSource> TraceSource for CountedSource<S> {
    fn next_op(&mut self) -> TraceOp {
        let n = self.calls.load(Ordering::Relaxed);
        self.calls.store(n + 1, Ordering::Relaxed);
        self.inner.next_op()
    }
}

/// A [`MainMemory`] wrapper that times every call into the backend and
/// counts ticks, submits, `MemBusy` rejections and ticks whose event
/// drain delivered something. It never alters an argument or a result.
pub struct Timed<M> {
    inner: M,
    spent: Cell<Duration>,
    /// `tick` calls.
    pub tick_calls: u64,
    /// `try_submit` calls.
    pub submit_calls: u64,
    /// `try_submit` calls rejected with [`MemBusy`].
    pub busy: u64,
    /// `drain_events` calls that delivered at least one event.
    pub useful_drains: u64,
}

impl<M> Timed<M> {
    /// Wrap a backend.
    pub fn new(inner: M) -> Self {
        Timed {
            inner,
            spent: Cell::new(Duration::ZERO),
            tick_calls: 0,
            submit_calls: 0,
            busy: 0,
            useful_drains: 0,
        }
    }

    /// Host time spent inside the wrapped backend so far.
    pub fn spent(&self) -> Duration {
        self.spent.get()
    }

    /// The wrapped backend.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    fn charge(&self, since: Instant) {
        self.spent.set(self.spent.get() + since.elapsed());
    }
}

impl<M: MainMemory> MainMemory for Timed<M> {
    fn try_submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let t = Instant::now();
        let r = self.inner.try_submit(req, now);
        self.charge(t);
        self.submit_calls += 1;
        self.busy += u64::from(r.is_err());
        r
    }

    fn tick(&mut self, now: u64) {
        let t = Instant::now();
        self.inner.tick(now);
        self.charge(t);
        self.tick_calls += 1;
    }

    fn drain_events(&mut self, now: u64, out: &mut Vec<MemEvent>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.drain_events(now, out);
        self.charge(t);
        self.useful_drains += u64::from(out.len() > before);
    }

    fn stats(&mut self, now: u64) -> MemSystemStats {
        self.inner.stats(now)
    }

    fn next_activity(&self, now: u64) -> Option<u64> {
        let t = Instant::now();
        let r = self.inner.next_activity(now);
        self.charge(t);
        r
    }

    fn enable_audit(&mut self) {
        self.inner.enable_audit();
    }

    fn audit_channels(&self) -> Vec<ChannelDesc> {
        self.inner.audit_channels()
    }

    fn drain_audit(&mut self, out: &mut Vec<AuditRecord>) {
        self.inner.drain_audit(out);
    }

    fn enable_trace(&mut self) {
        self.inner.enable_trace();
    }

    fn drain_trace(&mut self, out: &mut Vec<cwf_tracelog::TraceEvent>) {
        self.inner.drain_trace(out);
    }
}

/// The hierarchy parameters `System` builds for `cfg`.
#[must_use]
pub fn hier_params(cfg: &RunConfig) -> HierParams {
    let mut hp = if cfg.prefetch {
        HierParams::paper_default(cfg.cores)
    } else {
        HierParams::no_prefetch(cfg.cores)
    };
    hp.cores = cfg.cores;
    hp
}

/// The functional-warm stream of every core, exactly as `System`
/// consumes it: per core, `ops_per_core` memory operations with the
/// gaps between them skipped.
pub struct WarmStream {
    /// Per core: `(byte address, is_store)` in stream order.
    pub ops: Vec<Vec<(u64, bool)>>,
    /// Per core: `next_op` calls the warm consumed.
    pub calls: Vec<u64>,
}

/// Fresh generators for `cfg` (same seeds as `System::new`).
#[must_use]
pub fn generators(cfg: &RunConfig, profile: &BenchmarkProfile) -> Vec<TraceGen> {
    (0..cfg.cores).map(|c| TraceGen::new(profile, c, cfg.seed)).collect()
}

/// Pull the functional-warm stream out of `gens`, leaving each generator
/// positioned where the timed run starts.
pub fn collect_warm(gens: &mut [TraceGen], ops_per_core: u64) -> WarmStream {
    let mut ops = Vec::with_capacity(gens.len());
    let mut calls = Vec::with_capacity(gens.len());
    for gen in gens {
        let mut v = Vec::with_capacity(usize::try_from(ops_per_core).unwrap_or(0));
        let mut n = 0;
        while (v.len() as u64) < ops_per_core {
            n += 1;
            match gen.next_op() {
                TraceOp::Gap(_) => {}
                TraceOp::Load { addr, .. } => v.push((addr, false)),
                TraceOp::Store { addr, .. } => v.push((addr, true)),
            }
        }
        ops.push(v);
        calls.push(n);
    }
    WarmStream { ops, calls }
}

/// Replay a warm stream through [`Hierarchy::warm_access`] in `System`'s
/// order (core by core); returns the dirty L2 evictions it reported.
pub fn warm<M: MainMemory>(h: &mut Hierarchy<M>, ws: &WarmStream) -> Vec<(u64, u8)> {
    let mut evictions = Vec::new();
    for (core, ops) in ws.ops.iter().enumerate() {
        let core = u8::try_from(core).expect("core index fits u8");
        for &(addr, store) in ops {
            h.warm_access(core, addr, store, &mut |l, w| evictions.push((l, w)));
        }
    }
    evictions
}

/// Time the generator alone over the exact call counts a run made:
/// per core, `warm[c]` calls and then `run[c]` more, on fresh
/// generators. Returns `(warm, run)` host time.
#[must_use]
pub fn time_generation(
    cfg: &RunConfig,
    profile: &BenchmarkProfile,
    warm: &[u64],
    run: &[u64],
) -> (Duration, Duration) {
    let (mut tw, mut tr) = (Duration::ZERO, Duration::ZERO);
    for (c, mut gen) in generators(cfg, profile).into_iter().enumerate() {
        let t = Instant::now();
        for _ in 0..warm[c] {
            black_box(gen.next_op());
        }
        tw += t.elapsed();
        let t = Instant::now();
        for _ in 0..run[c] {
            black_box(gen.next_op());
        }
        tr += t.elapsed();
    }
    (tw, tr)
}

/// Outstanding demand misses one replayed core may have in flight.
const REPLAY_CAP: u32 = 16;
/// Instructions a replayed core issues per cycle when paying a gap.
const REPLAY_WIDTH: u64 = 4;

/// What one replay produced: a digest of every simulated outcome (for
/// the determinism and pass-through checks) and the host time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOut {
    /// FNV-1a over every access outcome and wake-up, in order.
    pub digest: u64,
    /// Last simulated cycle.
    pub cycles: u64,
    /// Demand misses sent to memory during the replay.
    pub misses: u64,
    /// Calls into the hierarchy (`load`, `store`, `tick`, `next_activity`).
    pub calls: u64,
    /// Host time inside those calls.
    pub hier: Duration,
    /// Host time of the whole replay loop.
    pub wall: Duration,
}

#[derive(Default)]
struct ReplayCore {
    next_at: u64,
    pending: Option<TraceOp>,
    outstanding: u32,
}

fn fold(d: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *d ^= u64::from(b);
        *d = d.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Open-loop layer replay: each core issues its trace's loads and stores
/// when due (gaps cost `ceil(gap / 4)` cycles), regardless of earlier
/// completions, with at most [`REPLAY_CAP`] misses outstanding; the
/// memory side is ticked only at [`Hierarchy::next_activity`]. Stops
/// once `target_misses` demand misses have gone to memory. This is not
/// `System`'s step loop: there is no ROB and no retirement, only the
/// hierarchy and the backend under the workload's access stream.
pub fn replay<M: MainMemory>(
    h: &mut Hierarchy<M>,
    gens: &mut [TraceGen],
    target_misses: u64,
) -> ReplayOut {
    let wall = Instant::now();
    let mut cores: Vec<ReplayCore> = gens.iter().map(|_| ReplayCore::default()).collect();
    let mut woken: Vec<Woken> = Vec::new();
    let mut out = ReplayOut {
        digest: 0xcbf2_9ce4_8422_2325,
        cycles: 0,
        misses: 0,
        calls: 0,
        hier: Duration::ZERO,
        wall: Duration::ZERO,
    };
    let base = h.stats().demand_misses;
    let max_cycles = 4_000 * target_misses.max(1_000);
    let mut now = 0u64;
    let mut mem_due = 0u64;
    while h.stats().demand_misses - base < target_misses && now < max_cycles {
        for (c, (core, gen)) in cores.iter_mut().zip(gens.iter_mut()).enumerate() {
            let c8 = u8::try_from(c).expect("core index fits u8");
            while core.next_at <= now && core.outstanding < REPLAY_CAP {
                let op = core.pending.take().unwrap_or_else(|| gen.next_op());
                let blocked = match op {
                    TraceOp::Gap(n) => {
                        core.next_at = now + u64::from(n).div_ceil(REPLAY_WIDTH);
                        continue;
                    }
                    TraceOp::Load { addr, pc } => {
                        let t = Instant::now();
                        let r = h.load(c8, pc, addr, now);
                        out.hier += t.elapsed();
                        out.calls += 1;
                        match r {
                            AccessOutcome::Hit { complete_at } => {
                                fold(&mut out.digest, complete_at);
                                false
                            }
                            AccessOutcome::Miss { load_id } => {
                                fold(&mut out.digest, load_id);
                                core.outstanding += 1;
                                false
                            }
                            AccessOutcome::Blocked => true,
                        }
                    }
                    TraceOp::Store { addr, pc } => {
                        let t = Instant::now();
                        let r = h.store(c8, pc, addr, now);
                        out.hier += t.elapsed();
                        out.calls += 1;
                        r == StoreOutcome::Blocked
                    }
                };
                fold(&mut out.digest, u64::from(blocked));
                if blocked {
                    core.pending = Some(op);
                    core.next_at = now + 1;
                }
            }
        }
        if mem_due <= now {
            let t = Instant::now();
            h.tick(now, &mut woken);
            out.hier += t.elapsed();
            out.calls += 1;
            for w in woken.drain(..) {
                fold(&mut out.digest, (u64::from(w.core) << 56) ^ w.load_id ^ (w.at << 20));
                let core = &mut cores[usize::from(w.core)];
                core.outstanding = core.outstanding.saturating_sub(1);
            }
        }
        let t = Instant::now();
        mem_due = h.next_activity(now).unwrap_or(u64::MAX);
        out.hier += t.elapsed();
        out.calls += 1;
        let core_due = cores
            .iter()
            .filter(|c| c.outstanding < REPLAY_CAP)
            .map(|c| c.next_at)
            .min()
            .unwrap_or(u64::MAX);
        let next = mem_due.min(core_due).max(now + 1);
        if next == u64::MAX {
            break;
        }
        now = next;
    }
    out.cycles = now;
    out.misses = h.stats().demand_misses - base;
    fold(&mut out.digest, out.cycles);
    fold(&mut out.digest, out.misses);
    out.wall = wall.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_harness::config::MemKind;
    use sim_harness::sweep::cell_seed;

    fn cfg(kind: MemKind) -> RunConfig {
        let mut c = RunConfig::paper(kind, 400);
        c.functional_warm_ops = 2_000;
        c.seed = cell_seed(7, "lbm", kind);
        c
    }

    #[test]
    fn counted_source_passes_the_identical_op_stream() {
        let profile = workloads::by_name("lbm").expect("lbm");
        let (mut wrapped, calls) = CountedSource::new(TraceGen::new(profile, 3, 99));
        let mut plain = TraceGen::new(profile, 3, 99);
        for _ in 0..20_000 {
            assert_eq!(wrapped.next_op(), plain.next_op());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 20_000);
    }

    #[test]
    fn timed_backend_passes_the_identical_event_stream() {
        let kinds = [
            MemKind::Rl,
            MemKind::Ddr3,
            MemKind::parse("dramcache:rldram3+nvm_slow").expect("kind"),
        ];
        for kind in kinds {
            let cfg = cfg(kind);
            let profile = workloads::by_name("lbm").expect("lbm");
            let mut gp = generators(&cfg, profile);
            let ws = collect_warm(&mut gp, cfg.functional_warm_ops);
            let mut gt = generators(&cfg, profile);
            let _ = collect_warm(&mut gt, cfg.functional_warm_ops);

            let mut plain = Hierarchy::new(hier_params(&cfg), kind.build(0.0, cfg.seed));
            let mut timed =
                Hierarchy::new(hier_params(&cfg), Timed::new(kind.build(0.0, cfg.seed)));
            for (l, w) in warm(&mut plain, &ws) {
                plain.memory_mut().seed_adaptive_tag(l, w);
            }
            for (l, w) in warm(&mut timed, &ws) {
                timed.memory_mut().inner_mut().seed_adaptive_tag(l, w);
            }
            let a = replay(&mut plain, &mut gp, 300);
            let b = replay(&mut timed, &mut gt, 300);
            assert_eq!((a.digest, a.cycles, a.misses), (b.digest, b.cycles, b.misses), "{kind:?}");
            assert!(a.misses >= 300, "{kind:?} replay stopped early");
            let t = timed.memory();
            assert!(t.tick_calls > 0 && t.submit_calls > 0 && t.useful_drains > 0);
            assert!(t.spent() <= b.hier, "backend time nests inside hierarchy time");
            assert!(b.hier <= b.wall);
            let (sp, st) = (plain.stats(), timed.stats());
            assert_eq!((sp.loads, sp.fills, sp.writebacks), (st.loads, st.fills, st.writebacks));
        }
    }

    #[test]
    fn warm_stream_matches_system_consumption() {
        // `System` consumes the warm stream through the trace sources;
        // the collected stream must have made the same number of calls.
        let kind = MemKind::Rl;
        let cfg = cfg(kind);
        let profile = workloads::by_name("lbm").expect("lbm");
        let counters: Vec<_>;
        let sources: Vec<sim_harness::system::BoxedTrace> = {
            let (s, c): (Vec<_>, Vec<_>) = generators(&cfg, profile)
                .into_iter()
                .map(|g| {
                    let (w, n) = CountedSource::new(g);
                    (Box::new(w) as sim_harness::system::BoxedTrace, n)
                })
                .unzip();
            counters = c;
            s
        };
        let _sys = sim_harness::System::with_trace_sources(
            &cfg,
            "lbm",
            sources,
            kind.build(cfg.parity_error_rate, cfg.seed),
        );
        let ws = collect_warm(&mut generators(&cfg, profile), cfg.functional_warm_ops);
        let seen: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(seen, ws.calls);
    }
}
