//! The full cache hierarchy: private L1s, shared inclusive L2 with a MESI
//! sharer directory, per-word MSHRs, stride prefetcher and the writeback
//! path to main memory.

use std::collections::VecDeque;

use cwf_tracelog::TraceEvent;
use mem_ctrl::{LineRequest, MainMemory, MemEvent, Token};

use crate::cache::{Cache, CacheCfg, LineMeta};
use crate::mshr::{MshrEntry, MshrFile, Waiter};
use crate::prefetch::StridePrefetcher;

/// One observation for the cross-layer verify oracle: the hierarchy's side
/// of the memory contract, recorded in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierAudit {
    /// A read (demand or prefetch) accepted by the backend at CPU cycle
    /// `at` under `token`.
    Submit {
        /// Backend-issued transaction token.
        token: Token,
        /// CPU cycle of submission.
        at: u64,
    },
    /// A memory event drained from the backend at CPU cycle `delivered_at`
    /// (the event's own timestamp rides inside `ev`).
    Event {
        /// The drained event.
        ev: MemEvent,
        /// CPU cycle the hierarchy actually saw it.
        delivered_at: u64,
    },
}

/// Hierarchy configuration (defaults are the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierParams {
    /// Number of cores (each gets a private L1D).
    pub cores: u8,
    /// L1 shape.
    pub l1: CacheCfg,
    /// Shared L2 shape.
    pub l2: CacheCfg,
    /// L1 hit latency in CPU cycles.
    pub l1_latency: u64,
    /// L2 hit latency in CPU cycles.
    pub l2_latency: u64,
    /// Outstanding line fills.
    pub mshr_capacity: usize,
    /// Enable the stride prefetcher.
    pub prefetch: bool,
    /// Prefetch degree (lines ahead).
    pub prefetch_degree: u32,
    /// Writeback-buffer backpressure threshold: when this many dirty
    /// evictions are waiting for the memory write queues, new misses
    /// stall. This preserves the fill→eviction feedback that lets write
    /// drains complete (an unbounded buffer would let reads outrun the
    /// write path indefinitely and then starve behind a standing drain).
    pub writeback_stall_threshold: usize,
}

impl HierParams {
    /// Table 1 values: 32KB/2-way/1-cycle L1, 4MB/8-way/10-cycle shared L2.
    #[must_use]
    pub fn paper_default(cores: u8) -> Self {
        HierParams {
            cores,
            l1: CacheCfg::l1_32k_2way(),
            l2: CacheCfg::l2_4m_8way(),
            l1_latency: 1,
            l2_latency: 10,
            mshr_capacity: 128,
            prefetch: true,
            prefetch_degree: 2,
            writeback_stall_threshold: 16,
        }
    }

    /// Same, with the prefetcher disabled (§6.1.1 ablation).
    #[must_use]
    pub fn no_prefetch(cores: u8) -> Self {
        HierParams { prefetch: false, ..Self::paper_default(cores) }
    }
}

/// Result of a load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Data available at `complete_at` (cache or MSHR-buffered hit).
    Hit {
        /// CPU cycle at which the load's value is ready.
        complete_at: u64,
    },
    /// Missed to memory; a wake-up with this handle will be delivered.
    Miss {
        /// Handle matched against [`Woken::load_id`].
        load_id: u64,
    },
    /// Structural stall (MSHR or memory queue full); retry next cycle.
    Blocked,
}

/// Result of a store access (stores retire through a write buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Absorbed.
    Done,
    /// Structural stall; retry next cycle.
    Blocked,
}

/// A load whose data has arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Woken {
    /// Core that issued the load.
    pub core: u8,
    /// Handle returned by [`Hierarchy::load`].
    pub load_id: u64,
    /// CPU cycle the data became usable.
    pub at: u64,
}

/// Hierarchy-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierStats {
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// L1 hits (loads + stores).
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Demand accesses that found their line already in flight.
    pub mshr_secondary: u64,
    /// Demand misses sent to memory.
    pub demand_misses: u64,
    /// Accesses rejected for lack of MSHR space.
    pub blocked_mshr: u64,
    /// Accesses rejected because the memory queue was full.
    pub blocked_mem: u64,
    /// Prefetch reads sent to memory.
    pub prefetches_issued: u64,
    /// Prefetched lines later touched by demand.
    pub prefetches_useful: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Line fills installed.
    pub fills: u64,
    /// Demand fills (denominator for critical-word stats).
    pub demand_fills: u64,
    /// Sum of critical-word latencies (alloc → word usable), CPU cycles.
    pub cw_latency_sum: u64,
    /// Distribution of critical-word latencies (alloc → word usable),
    /// CPU cycles. Same events as [`HierStats::cw_latency_sum`], but
    /// bucketed so p50/p95/p99 tail latency can be reported.
    pub cw_lat_hist: dram_timing::stats::LatencyHist,
    /// Demand fills whose critical word came from the fast DIMM.
    pub cw_served_fast: u64,
    /// Secondary accesses to a different word than the critical one.
    pub secondary_diff_word: u64,
    /// Sum of gaps (CPU cycles) between first and second access to an
    /// in-flight line (paper §6.1.1's first-to-second access analysis).
    pub secondary_gap_sum: u64,
    /// Per-word critical-word counts at the DRAM level (Figure 4).
    pub critical_word_hist: [u64; 8],
    /// Completed runs of consecutive L1-hit accesses (a run is closed by
    /// the first access that leaves the L1 hit path, or by an explicit
    /// [`Hierarchy::flush_hit_streaks`] at a measurement boundary).
    pub l1_hit_spans: u64,
    /// Total L1 hits inside completed runs. After a boundary flush this
    /// is exactly [`HierStats::l1_hits`]; between flushes it lags by the
    /// length of the currently open run.
    pub l1_hit_span_hits: u64,
}

impl HierStats {
    /// Mean critical-word latency in CPU cycles.
    #[must_use]
    pub fn avg_cw_latency(&self) -> f64 {
        if self.demand_fills == 0 {
            0.0
        } else {
            self.cw_latency_sum as f64 / self.demand_fills as f64
        }
    }

    /// Fraction of demand critical words served by the fast DIMM.
    #[must_use]
    pub fn cw_fast_fraction(&self) -> f64 {
        if self.demand_fills == 0 {
            0.0
        } else {
            self.cw_served_fast as f64 / self.demand_fills as f64
        }
    }

    /// Fraction of DRAM-level critical words that are word 0 (Figure 4).
    #[must_use]
    pub fn word0_fraction(&self) -> f64 {
        let total: u64 = self.critical_word_hist.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.critical_word_hist[0] as f64 / total as f64
        }
    }

    /// Subtract an earlier snapshot of the same hierarchy (warm-up
    /// exclusion). Every counter and histogram lives here, next to the
    /// field definitions, so a new field cannot silently miss the
    /// warm-up-delta path.
    pub fn sub(&mut self, earlier: &HierStats) {
        self.loads -= earlier.loads;
        self.stores -= earlier.stores;
        self.l1_hits -= earlier.l1_hits;
        self.l2_hits -= earlier.l2_hits;
        self.mshr_secondary -= earlier.mshr_secondary;
        self.demand_misses -= earlier.demand_misses;
        self.blocked_mshr -= earlier.blocked_mshr;
        self.blocked_mem -= earlier.blocked_mem;
        self.prefetches_issued -= earlier.prefetches_issued;
        self.prefetches_useful -= earlier.prefetches_useful;
        self.writebacks -= earlier.writebacks;
        self.fills -= earlier.fills;
        self.demand_fills -= earlier.demand_fills;
        self.cw_latency_sum -= earlier.cw_latency_sum;
        self.cw_lat_hist.sub(&earlier.cw_lat_hist);
        self.cw_served_fast -= earlier.cw_served_fast;
        self.secondary_diff_word -= earlier.secondary_diff_word;
        self.secondary_gap_sum -= earlier.secondary_gap_sum;
        for (a, b) in self.critical_word_hist.iter_mut().zip(&earlier.critical_word_hist) {
            *a -= b;
        }
        // Span counters subtract cleanly only if the snapshot was taken
        // at a flushed boundary (no run open across it); the harness
        // calls `flush_hit_streaks` before snapshotting to guarantee
        // that, keeping `l1_hit_span_hits == l1_hits` in every delta.
        self.l1_hit_spans -= earlier.l1_hit_spans;
        self.l1_hit_span_hits -= earlier.l1_hit_span_hits;
    }
}

/// The complete on-chip memory hierarchy bound to a main-memory backend.
#[derive(Debug)]
pub struct Hierarchy<M> {
    params: HierParams,
    l1s: Vec<Cache>,
    l2: Cache,
    mshr: MshrFile,
    prefetchers: Vec<StridePrefetcher>,
    mem: M,
    /// Set when a core-path access submitted (or attempted to submit) a
    /// request to the backend since the last [`Hierarchy::take_backend_touched`];
    /// the event kernel only recomputes its wake bound when this fires.
    backend_touched: bool,
    writeback_buf: VecDeque<LineRequest>,
    next_load_id: u64,
    ev_buf: Vec<MemEvent>,
    /// Reusable waiter wake buffer (fill path stays allocation-free).
    wake_buf: Vec<Waiter>,
    /// Reusable prefetch candidate buffer (miss path stays allocation-free).
    pf_buf: Vec<u64>,
    /// Length of the currently open run of consecutive L1 hits.
    l1_streak: u64,
    stats: HierStats,
    /// Verify-oracle observation log (`None` ⇒ auditing disabled).
    audit: Option<Vec<HierAudit>>,
    /// Trace-event buffer (`None` ⇒ tracing disabled).
    trace: Option<Vec<TraceEvent>>,
}

/// Most cores a hierarchy supports: the width of the L2 sharer bitmask.
pub const MAX_CORES: u8 = 8;

impl<M: MainMemory> Hierarchy<M> {
    /// Build a hierarchy over `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `params.cores` is outside `1..=MAX_CORES`.
    #[must_use]
    pub fn new(params: HierParams, mem: M) -> Self {
        assert!((1..=MAX_CORES).contains(&params.cores), "1..={MAX_CORES} cores supported");
        Hierarchy {
            l1s: (0..params.cores).map(|_| Cache::new(params.l1)).collect(),
            l2: Cache::new(params.l2),
            mshr: MshrFile::new(params.mshr_capacity),
            prefetchers: (0..params.cores)
                .map(|_| StridePrefetcher::new(64, params.prefetch_degree))
                .collect(),
            mem,
            backend_touched: false,
            writeback_buf: VecDeque::new(),
            next_load_id: 0,
            ev_buf: Vec::new(),
            wake_buf: Vec::new(),
            pf_buf: Vec::new(),
            l1_streak: 0,
            stats: HierStats::default(),
            audit: None,
            trace: None,
            params,
        }
    }

    /// Start recording submits and drained events for the verify oracle,
    /// and enable command/power auditing on the backend. Observation only
    /// — no timing or replacement decision changes.
    pub fn enable_audit(&mut self) {
        self.audit = Some(Vec::new());
        self.mem.enable_audit();
    }

    /// Take the buffered observations recorded since the last call.
    /// Returns an empty vec while auditing is disabled.
    pub fn take_audit(&mut self) -> Vec<HierAudit> {
        match &mut self.audit {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Start emitting trace events (cache misses, MSHR lifecycle, word
    /// arrivals) and enable tracing on the backend. Observation only — no
    /// timing or replacement decision changes.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
        self.mem.enable_trace();
    }

    /// Append the hierarchy's and the backend's buffered trace events to
    /// `out`. No-op while tracing is disabled.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some(buf) = &mut self.trace {
            out.append(buf);
        }
        self.mem.drain_trace(out);
    }

    /// Audit the inclusive-L2 directory against actual L1 residency, in
    /// both directions: every L1-resident line must be L2-resident with
    /// that core's sharer bit set, and every set sharer bit must have the
    /// line in that L1. Returns one message per broken entry.
    #[must_use]
    pub fn check_inclusion(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (c, l1) in self.l1s.iter().enumerate() {
            for (line, _) in l1.iter_resident() {
                match self.l2.peek(line) {
                    None => out.push(format!("line {line:#x} in L1[{c}] but not in L2")),
                    Some(meta) if meta.sharers & (1 << c) == 0 => out.push(format!(
                        "line {line:#x} in L1[{c}] but sharer bit clear (sharers {:#04b})",
                        meta.sharers
                    )),
                    Some(_) => {}
                }
            }
        }
        for (line, meta) in self.l2.iter_resident() {
            for c in 0..self.params.cores {
                if meta.sharers & (1 << c) != 0 && self.l1s[usize::from(c)].peek(line).is_none() {
                    out.push(format!(
                        "L2 directory lists core {c} for line {line:#x} not in its L1"
                    ));
                }
            }
        }
        out
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// The memory backend (for backend-specific statistics).
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// Immutable access to the memory backend.
    #[must_use]
    pub fn memory(&self) -> &M {
        &self.mem
    }

    fn word_of(addr: u64) -> u8 {
        ((addr >> 3) & 7) as u8
    }

    /// Issue a load from `core` at `pc` for byte address `addr`.
    pub fn load(&mut self, core: u8, pc: u64, addr: u64, now: u64) -> AccessOutcome {
        self.stats.loads += 1;
        let line = addr >> 6;

        if self.l1s[usize::from(core)].lookup(line).is_some() {
            self.stats.l1_hits += 1;
            self.l1_streak += 1;
            return AccessOutcome::Hit { complete_at: now + self.params.l1_latency };
        }
        self.access_below_l1(core, pc, addr, now, false)
    }

    /// Issue a store from `core` at `pc` for byte address `addr`.
    pub fn store(&mut self, core: u8, pc: u64, addr: u64, now: u64) -> StoreOutcome {
        self.stats.stores += 1;
        let line = addr >> 6;
        if self.l1s[usize::from(core)].lookup(line).is_some() {
            self.stats.l1_hits += 1;
            self.l1_streak += 1;
            self.store_upgrade(core, line);
            return StoreOutcome::Done;
        }
        match self.access_below_l1(core, pc, addr, now, true) {
            AccessOutcome::Blocked => StoreOutcome::Blocked,
            _ => StoreOutcome::Done,
        }
    }

    /// Close the currently open L1-hit run, if any, and fold it into the
    /// span counters. The harness calls this at measurement boundaries
    /// (warm-up snapshot, end of run) so [`HierStats::sub`] deltas see
    /// fully flushed spans; a miss closes runs implicitly.
    pub fn flush_hit_streaks(&mut self) {
        if self.l1_streak > 0 {
            self.stats.l1_hit_spans += 1;
            self.stats.l1_hit_span_hits += self.l1_streak;
            self.l1_streak = 0;
        }
    }

    /// Mark the line dirty in L2 and invalidate other sharers (MESI
    /// upgrade on a store hit).
    fn store_upgrade(&mut self, core: u8, line: u64) {
        if let Some(meta) = self.l2.lookup(line) {
            meta.dirty = true;
            let others = meta.sharers & !(1 << core);
            meta.sharers = 1 << core;
            if others != 0 {
                for c in 0..self.params.cores {
                    if others & (1 << c) != 0 {
                        self.l1s[usize::from(c)].invalidate(line);
                    }
                }
            }
        }
    }

    /// Common L2/MSHR/memory path for loads and stores that missed L1.
    fn access_below_l1(
        &mut self,
        core: u8,
        pc: u64,
        addr: u64,
        now: u64,
        is_store: bool,
    ) -> AccessOutcome {
        let line = addr >> 6;
        let word = Self::word_of(addr);
        // Host-side prefetch hints (see `warm_access`): start the fills
        // of the two dependent random-set probes below — `line`'s L2 set
        // and, on an L2 hit, the displaced L1 victim's directory set.
        self.l2.prefetch_set(line);
        if let Some(victim) = self.l1s[usize::from(core)].victim_peek(line) {
            self.l2.prefetch_set(victim);
        }
        self.flush_hit_streaks();
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent::L1Miss { core, at: now, line });
        }

        // L2 hit: fill the requesting L1 and account coherence.
        if let Some(meta) = self.l2.lookup(line) {
            self.stats.l2_hits += 1;
            if meta.prefetched {
                meta.prefetched = false;
                // First demand touch of a prefetched line defines its
                // critical word for the adaptive placement (§4.2.5).
                meta.crit_word = word;
                self.stats.prefetches_useful += 1;
            }
            meta.sharers |= 1 << core;
            if is_store {
                self.store_upgrade(core, line);
            }
            self.fill_l1(core, line);
            return AccessOutcome::Hit { complete_at: now + self.params.l2_latency };
        }
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent::L2Miss { core, at: now, line });
        }

        // Train the prefetcher on the L2 miss stream. Candidates go
        // through a reusable buffer so training never allocates.
        if self.params.prefetch {
            let mut candidates = std::mem::take(&mut self.pf_buf);
            candidates.clear();
            self.prefetchers[usize::from(core)].train_into(pc, addr, &mut candidates);
            for &target in &candidates {
                self.try_prefetch(core, target, now);
            }
            self.pf_buf = candidates;
        }

        // Line already in flight?
        if let Some(entry) = self.mshr.by_line(line) {
            self.stats.mshr_secondary += 1;
            if !entry.demand {
                entry.demand = true;
                entry.critical_word = word;
            } else if word != entry.critical_word {
                self.stats.secondary_diff_word += 1;
                self.stats.secondary_gap_sum += now - entry.allocated_at;
            }
            entry.fill_cores |= 1 << core;
            if is_store {
                entry.store_pending = true;
                return AccessOutcome::Hit { complete_at: now };
            }
            if entry.word_ready(word) {
                // The word is buffered in the MSHR; forward at L2 speed.
                return AccessOutcome::Hit { complete_at: now + self.params.l2_latency };
            }
            let load_id = self.next_load_id;
            self.next_load_id += 1;
            entry.waiters.push(Waiter { load_id, word, core });
            return AccessOutcome::Miss { load_id };
        }

        // Fresh miss: needs an MSHR, a memory slot, and a writeback path
        // that is keeping up (each fill may evict a dirty line).
        if !self.mshr.has_space() {
            self.stats.blocked_mshr += 1;
            return AccessOutcome::Blocked;
        }
        if self.writeback_buf.len() >= self.params.writeback_stall_threshold {
            self.stats.blocked_mem += 1;
            return AccessOutcome::Blocked;
        }
        let req = LineRequest::demand_read(line << 6, word, core);
        self.backend_touched = true;
        let token = match self.mem.try_submit(&req, now) {
            Ok(Some(t)) => t,
            Ok(None) => unreachable!("demand read returns a token"),
            Err(_) => {
                self.stats.blocked_mem += 1;
                return AccessOutcome::Blocked;
            }
        };
        if let Some(buf) = &mut self.audit {
            buf.push(HierAudit::Submit { token, at: now });
        }
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent::MshrAlloc {
                token,
                core,
                at: now,
                line,
                critical_word: word,
                demand: true,
            });
        }
        self.stats.demand_misses += 1;
        self.stats.critical_word_hist[usize::from(word)] += 1;
        let mut entry = MshrEntry::new(line, token, word, true, now);
        entry.fill_cores = 1 << core;
        if is_store {
            entry.store_pending = true;
            self.mshr.allocate(entry);
            return AccessOutcome::Hit { complete_at: now };
        }
        let load_id = self.next_load_id;
        self.next_load_id += 1;
        entry.waiters.push(Waiter { load_id, word, core });
        self.mshr.allocate(entry);
        AccessOutcome::Miss { load_id }
    }

    /// Issue a prefetch for the line containing `target` if it is not
    /// already resident or in flight. Dropped silently on any stall.
    fn try_prefetch(&mut self, core: u8, target: u64, now: u64) {
        let line = target >> 6;
        if self.l2.peek(line).is_some() || self.mshr.by_line(line).is_some() {
            return;
        }
        if !self.mshr.has_space() {
            return;
        }
        let req = LineRequest::prefetch_read(line << 6, core);
        self.backend_touched = true;
        if let Ok(Some(token)) = self.mem.try_submit(&req, now) {
            if let Some(buf) = &mut self.audit {
                buf.push(HierAudit::Submit { token, at: now });
            }
            if let Some(buf) = &mut self.trace {
                buf.push(TraceEvent::MshrAlloc {
                    token,
                    core,
                    at: now,
                    line,
                    critical_word: 0,
                    demand: false,
                });
            }
            self.stats.prefetches_issued += 1;
            self.mshr.allocate(MshrEntry::new(line, token, 0, false, now));
        }
    }

    /// Install `line` in `core`'s L1, maintaining the L2 sharer directory.
    fn fill_l1(&mut self, core: u8, line: u64) {
        let evicted = self.l1s[usize::from(core)].insert(line, LineMeta::default());
        if let Some((victim, _)) = evicted {
            if let Some(meta) = self.l2.lookup(victim) {
                meta.sharers &= !(1 << core);
            }
        }
    }

    /// Install a finished fill in L2 (and requesters' L1s); queue the
    /// victim's writeback if dirty.
    fn install_fill(&mut self, entry: &MshrEntry) {
        self.stats.fills += 1;
        if entry.demand {
            self.stats.demand_fills += 1;
        }
        let meta = LineMeta {
            dirty: entry.store_pending,
            sharers: entry.fill_cores,
            crit_word: entry.critical_word,
            prefetched: !entry.demand,
        };
        if let Some((victim, vmeta)) = self.l2.insert(entry.line, meta) {
            // Inclusive L2: purge the victim from every L1.
            if vmeta.sharers != 0 {
                for c in 0..self.params.cores {
                    if vmeta.sharers & (1 << c) != 0 {
                        self.l1s[usize::from(c)].invalidate(victim);
                    }
                }
            }
            if vmeta.dirty {
                self.stats.writebacks += 1;
                self.writeback_buf.push_back(LineRequest::writeback(
                    victim << 6,
                    vmeta.crit_word,
                    0,
                ));
            }
        }
        for c in 0..self.params.cores {
            if entry.fill_cores & (1 << c) != 0 {
                self.fill_l1(c, entry.line);
            }
        }
    }

    /// Advance one CPU cycle: tick memory, process completions, retry
    /// buffered writebacks. Woken loads are appended to `woken`.
    pub fn tick(&mut self, now: u64, woken: &mut Vec<Woken>) {
        self.mem.tick(now);
        let mut ev = std::mem::take(&mut self.ev_buf);
        ev.clear();
        self.mem.drain_events(now, &mut ev);
        if let Some(buf) = &mut self.audit {
            for e in &ev {
                buf.push(HierAudit::Event { ev: *e, delivered_at: now });
            }
        }
        // Waiter wakes route through a reusable buffer: `words_arrived_into`
        // and `drain_waiters_into` append without allocating, and draining
        // before `release` lets the slab recycle the waiter Vec's capacity.
        let mut wakes = std::mem::take(&mut self.wake_buf);
        for e in &ev {
            wakes.clear();
            match *e {
                MemEvent::WordsAvailable { token, at, words, served_fast } => {
                    if let Some(entry) = self.mshr.by_token(token) {
                        if let Some(buf) = &mut self.trace {
                            buf.push(TraceEvent::WordsArrived { token, at, words, served_fast });
                        }
                        if entry.critical_word_at.is_none()
                            && words & (1 << entry.critical_word) != 0
                        {
                            entry.critical_word_at = Some(at);
                            entry.critical_served_fast = served_fast;
                        }
                        entry.words_arrived_into(words, &mut wakes);
                        for w in &wakes {
                            woken.push(Woken { core: w.core, load_id: w.load_id, at });
                        }
                    }
                }
                MemEvent::LineFilled { token, at } => {
                    if let Some(entry) = self.mshr.by_token(token) {
                        entry.drain_waiters_into(&mut wakes);
                    }
                    if let Some(entry) = self.mshr.release(token) {
                        if let Some(buf) = &mut self.trace {
                            buf.push(TraceEvent::FillDone { token, at });
                        }
                        for w in &wakes {
                            woken.push(Woken { core: w.core, load_id: w.load_id, at });
                        }
                        if entry.demand {
                            let cw_at = entry.critical_word_at.unwrap_or(at);
                            self.stats.cw_latency_sum += cw_at - entry.allocated_at;
                            self.stats.cw_lat_hist.record(cw_at - entry.allocated_at);
                            if entry.critical_served_fast {
                                self.stats.cw_served_fast += 1;
                            }
                        }
                        self.install_fill(&entry);
                    }
                }
            }
        }
        self.wake_buf = wakes;
        self.ev_buf = ev;

        while let Some(front) = self.writeback_buf.front() {
            match self.mem.try_submit(front, now) {
                Ok(_) => {
                    self.writeback_buf.pop_front();
                }
                Err(_) => break,
            }
        }
    }

    /// Earliest CPU cycle strictly after `now` at which [`Hierarchy::tick`]
    /// could do anything observable, or `None` when the whole memory side
    /// is quiescent.
    ///
    /// The bound is the lattice-min over the hierarchy's components, where
    /// a component that cannot act on its own contributes ⊤ (never) and
    /// drops out of the fold:
    ///
    /// - **caches / prefetcher** — passive: they change state only inside
    ///   `load`/`store` (the caller's issue path) → ⊤;
    /// - **MSHR fills** — complete only when the backend hands a
    ///   `WordsAvailable`/`LineFilled` event across, and the backend's
    ///   bound covers its own pending completion hand-offs → folded into
    ///   the backend term;
    /// - **buffered writebacks** — retried every tick, but a buffered
    ///   writeback implies a full backend write queue, whose next dequeue
    ///   is one of the backend's folded candidate commands → also covered;
    /// - **backend** — derived from its memoized per-(rank, bank, class)
    ///   ready-cycles: earliest candidate command, refresh action, power
    ///   transition, or completion hand-off.
    ///
    /// The debug assertions below pin the two "covered by the backend"
    /// arguments: a quiescent backend must imply no outstanding fills and
    /// no buffered writebacks, otherwise the fold would be optimistic.
    #[must_use]
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        let backend = self.mem.next_activity(now);
        debug_assert!(
            backend.is_some() || self.mshr.is_empty(),
            "quiescent backend with {} MSHR fills outstanding",
            self.mshr.len()
        );
        debug_assert!(
            backend.is_some() || self.writeback_buf.is_empty(),
            "quiescent backend with {} writebacks buffered",
            self.writeback_buf.len()
        );
        backend
    }

    /// True if a core-path access has touched the memory backend (submit
    /// or blocked submit attempt) since the last call; clears the flag.
    /// The event kernel uses this to skip recomputing its wake bound on
    /// pure cache-hit cycles, where the backend provably did not change.
    pub fn take_backend_touched(&mut self) -> bool {
        std::mem::take(&mut self.backend_touched)
    }

    /// Flush remaining writebacks opportunistically (end of run).
    pub fn pending_writebacks(&self) -> usize {
        self.writeback_buf.len()
    }

    /// Peek a line in `core`'s L1 without touching LRU (testing).
    #[must_use]
    pub fn l1_peek(&self, core: u8, line: u64) -> Option<&LineMeta> {
        self.l1s[usize::from(core)].peek(line)
    }

    /// Peek a line in the shared L2 without touching LRU (testing).
    #[must_use]
    pub fn l2_peek(&self, line: u64) -> Option<&LineMeta> {
        self.l2.peek(line)
    }

    /// Outstanding MSHR entries (testing).
    #[must_use]
    pub fn mshr_len(&self) -> usize {
        self.mshr.len()
    }

    /// Functional (timing-free) warming access, used to fast-forward the
    /// cache state the way the paper fast-forwards 2 B instructions before
    /// measuring. Performs full L1/L2 lookup/insert/evict and coherence
    /// bookkeeping but issues no memory transactions and records no
    /// statistics. Dirty L2 evictions are reported to `on_writeback` so
    /// the caller can replay them into the backing store's adaptive
    /// placement state (§4.2.5).
    pub fn warm_access<F>(&mut self, core: u8, addr: u64, is_store: bool, on_writeback: &mut F)
    where
        F: FnMut(u64, u8),
    {
        let line = addr >> 6;
        let word = Self::word_of(addr);
        // Host-side prefetch hints: the L2 set of `line` and — if this
        // access will displace an L1 line — the victim's L2 directory set
        // are both probed below on random (host-cache-cold) sets; pulling
        // them early overlaps the two dependent miss chains.
        self.l2.prefetch_set(line);
        if self.l1s[usize::from(core)].lookup(line).is_some() {
            if is_store {
                self.store_upgrade(core, line);
            }
            return;
        }
        if let Some(victim) = self.l1s[usize::from(core)].victim_peek(line) {
            self.l2.prefetch_set(victim);
        }
        if let Some(meta) = self.l2.lookup(line) {
            meta.sharers |= 1 << core;
            if meta.prefetched {
                meta.prefetched = false;
                meta.crit_word = word;
            }
            if is_store {
                self.store_upgrade(core, line);
            }
            self.fill_l1(core, line);
            return;
        }
        // Miss: install instantly (no timing), as a long-warmed cache would.
        let meta =
            LineMeta { dirty: is_store, sharers: 1 << core, crit_word: word, prefetched: false };
        if let Some((victim, vmeta)) = self.l2.insert(line, meta) {
            if vmeta.sharers != 0 {
                for c in 0..self.params.cores {
                    if vmeta.sharers & (1 << c) != 0 {
                        self.l1s[usize::from(c)].invalidate(victim);
                    }
                }
            }
            if vmeta.dirty {
                on_writeback(victim, vmeta.crit_word);
            }
        }
        self.fill_l1(core, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_ctrl::HomogeneousMemory;

    fn hier(cores: u8) -> Hierarchy<HomogeneousMemory> {
        Hierarchy::new(HierParams::paper_default(cores), HomogeneousMemory::baseline_ddr3())
    }

    fn run(h: &mut Hierarchy<HomogeneousMemory>, from: u64, to: u64) -> Vec<Woken> {
        let mut woken = Vec::new();
        for now in from..to {
            h.tick(now, &mut woken);
        }
        woken
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = hier(1);
        let out = h.load(0, 0x400, 0x8000, 0);
        let AccessOutcome::Miss { load_id } = out else { panic!("expected miss") };
        let woken = run(&mut h, 0, 1_000);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].load_id, load_id);
        assert!(matches!(h.load(0, 0x400, 0x8000, 1_000), AccessOutcome::Hit { .. }));
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().demand_fills, 1);
    }

    #[test]
    fn l2_hit_after_other_core_fetched() {
        let mut h = hier(2);
        h.load(0, 0x400, 0x8000, 0);
        run(&mut h, 0, 1_000);
        // Core 1 misses its L1 but hits the shared L2.
        let out = h.load(1, 0x900, 0x8000, 1_000);
        let AccessOutcome::Hit { complete_at } = out else { panic!("expected L2 hit") };
        assert_eq!(complete_at, 1_000 + 10);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn secondary_miss_merges_not_duplicates() {
        let mut h = hier(2);
        h.load(0, 0x400, 0x8000, 0);
        // Different word of the same line from another core while in flight.
        let out = h.load(1, 0x900, 0x8008, 1);
        assert!(matches!(out, AccessOutcome::Miss { .. }));
        assert_eq!(h.stats().mshr_secondary, 1);
        assert_eq!(h.stats().demand_misses, 1, "no duplicate DRAM request");
        let woken = run(&mut h, 1, 2_000);
        assert_eq!(woken.len(), 2, "both loads wake");
        assert_eq!(h.stats().secondary_diff_word, 1);
    }

    #[test]
    fn store_miss_is_write_allocate_and_marks_dirty() {
        let mut h = hier(1);
        assert_eq!(h.store(0, 0x10, 0xA000, 0), StoreOutcome::Done);
        run(&mut h, 0, 1_000);
        // Line resident and dirty in L2.
        assert!(h.l2.peek(0xA000 >> 6).unwrap().dirty);
    }

    #[test]
    fn store_invalidates_other_sharers() {
        let mut h = hier(2);
        h.load(0, 0x10, 0xA000, 0);
        run(&mut h, 0, 1_000);
        h.load(1, 0x20, 0xA000, 1_000); // L2 hit, core 1 now shares
        assert_eq!(h.l2.peek(0xA000 >> 6).unwrap().sharers, 0b11);
        h.store(0, 0x30, 0xA000, 1_001);
        assert_eq!(h.l2.peek(0xA000 >> 6).unwrap().sharers, 0b01);
        // Core 1's next load misses L1 again (invalidated) but hits L2.
        let out = h.load(1, 0x20, 0xA000, 1_002);
        assert!(matches!(out, AccessOutcome::Hit { complete_at } if complete_at == 1_012));
    }

    #[test]
    fn dirty_eviction_reaches_memory_as_writeback() {
        let mut h = Hierarchy::new(
            HierParams {
                l2: CacheCfg { sets: 2, ways: 2 },
                prefetch: false,
                ..HierParams::paper_default(1)
            },
            HomogeneousMemory::baseline_ddr3(),
        );
        // Dirty a line, then evict it with conflicting fills.
        h.store(0, 0x10, 0, 0);
        run(&mut h, 0, 600);
        for i in 1..=2u64 {
            h.load(0, 0x10, i * 2 * 64, 600 * i);
            run(&mut h, 600 * i, 600 * (i + 1));
        }
        assert_eq!(h.stats().writebacks, 1);
        let mem_stats = h.memory_mut().stats(5_000);
        assert_eq!(mem_stats.total_writes(), 1);
    }

    #[test]
    fn prefetcher_fills_ahead_of_demand() {
        let mut h = hier(1);
        // Stream loads, 64B apart: after training, prefetches cover the
        // next lines and later loads hit.
        let mut now = 0u64;
        for i in 0..32u64 {
            h.load(0, 0x42, 0x10_0000 + i * 64, now);
            now += 400;
            run(&mut h, now - 400, now);
        }
        assert!(h.stats().prefetches_issued > 0);
        assert!(h.stats().prefetches_useful > 0);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut h = Hierarchy::new(
            HierParams { mshr_capacity: 2, prefetch: false, ..HierParams::paper_default(1) },
            HomogeneousMemory::baseline_ddr3(),
        );
        assert!(matches!(h.load(0, 1, 0 << 6, 0), AccessOutcome::Miss { .. }));
        assert!(matches!(h.load(0, 1, 100 << 6, 0), AccessOutcome::Miss { .. }));
        assert!(matches!(h.load(0, 1, 200 << 6, 0), AccessOutcome::Blocked));
        assert_eq!(h.stats().blocked_mshr, 1);
    }

    #[test]
    fn critical_word_histogram_tracks_requested_words() {
        let mut h = hier(1);
        h.load(0, 1, 0x8000 + 3 * 8, 0); // word 3
        h.load(0, 2, 0x9000, 0); // word 0
        run(&mut h, 0, 2_000);
        assert_eq!(h.stats().critical_word_hist[3], 1);
        assert_eq!(h.stats().critical_word_hist[0], 1);
        assert_eq!(h.stats().word0_fraction(), 0.5);
    }
}

impl cwf_ckpt::Ckpt for HierAudit {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            HierAudit::Submit { token, at } => {
                w.put_u8(0);
                cwf_ckpt::Ckpt::save(&token, w);
                w.put_u64(at);
            }
            HierAudit::Event { ev, delivered_at } => {
                w.put_u8(1);
                cwf_ckpt::Ckpt::save(&ev, w);
                w.put_u64(delivered_at);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => HierAudit::Submit { token: cwf_ckpt::Ckpt::load(r)?, at: r.get_u64()? },
            1 => HierAudit::Event { ev: cwf_ckpt::Ckpt::load(r)?, delivered_at: r.get_u64()? },
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid HierAudit tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(HierStats {
    loads,
    stores,
    l1_hits,
    l2_hits,
    mshr_secondary,
    demand_misses,
    blocked_mshr,
    blocked_mem,
    prefetches_issued,
    prefetches_useful,
    writebacks,
    fills,
    demand_fills,
    cw_latency_sum,
    cw_lat_hist,
    cw_served_fast,
    secondary_diff_word,
    secondary_gap_sum,
    critical_word_hist,
    l1_hit_spans,
    l1_hit_span_hits,
});

impl<M> Hierarchy<M> {
    /// Serialize the hierarchy's mutable state. The memory backend is
    /// delegated to `save_mem` because its concrete type is only known
    /// to the caller. Reusable scratch buffers (`ev_buf`, `wake_buf`,
    /// `pf_buf`) are cleared at the start of every use, so they carry
    /// no state across steps and are not encoded. The trace buffer is
    /// re-armed by `enable_trace` on restore and holds nothing once
    /// drained, so tracing doesn't block a checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when the trace buffer holds undrained events or `save_mem`
    /// fails.
    pub fn save_state(
        &self,
        w: &mut cwf_ckpt::Writer,
        save_mem: impl FnOnce(&M, &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()>,
    ) -> cwf_ckpt::Result<()> {
        let Hierarchy {
            params: _,
            l1s,
            l2,
            mshr,
            prefetchers,
            mem,
            backend_touched,
            writeback_buf,
            next_load_id,
            ev_buf: _,
            wake_buf: _,
            pf_buf: _,
            l1_streak,
            stats,
            audit,
            trace,
        } = self;
        if trace.as_ref().is_some_and(|t| !t.is_empty()) {
            return Err(cwf_ckpt::CkptError::new(
                "cannot checkpoint a hierarchy with undrained trace events",
            ));
        }
        w.section(b"HIER");
        w.put_u64(l1s.len() as u64);
        for c in l1s {
            c.save_state(w);
        }
        l2.save_state(w);
        mshr.save_state(w);
        w.put_u64(prefetchers.len() as u64);
        for p in prefetchers {
            p.save_state(w);
        }
        cwf_ckpt::Ckpt::save(backend_touched, w);
        cwf_ckpt::Ckpt::save(writeback_buf, w);
        cwf_ckpt::Ckpt::save(next_load_id, w);
        cwf_ckpt::Ckpt::save(l1_streak, w);
        cwf_ckpt::Ckpt::save(stats, w);
        cwf_ckpt::Ckpt::save(audit, w);
        w.section(b"HMEM");
        save_mem(mem, w)
    }

    /// Restore state saved by [`Hierarchy::save_state`] into a freshly
    /// constructed hierarchy with the same parameters; the backend is
    /// restored by `load_mem`.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, a core-count mismatch, or when
    /// `load_mem` fails.
    pub fn load_state(
        &mut self,
        r: &mut cwf_ckpt::Reader<'_>,
        load_mem: impl FnOnce(&mut M, &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()>,
    ) -> cwf_ckpt::Result<()> {
        r.expect_section(b"HIER")?;
        let n_l1 = r.get_u64()?;
        if n_l1 != self.l1s.len() as u64 {
            return Err(cwf_ckpt::CkptError::new("L1 count mismatch"));
        }
        for c in &mut self.l1s {
            c.load_state(r)?;
        }
        self.l2.load_state(r)?;
        self.mshr.load_state(r)?;
        let n_pf = r.get_u64()?;
        if n_pf != self.prefetchers.len() as u64 {
            return Err(cwf_ckpt::CkptError::new("prefetcher count mismatch"));
        }
        for p in &mut self.prefetchers {
            p.load_state(r)?;
        }
        self.backend_touched = cwf_ckpt::Ckpt::load(r)?;
        self.writeback_buf = cwf_ckpt::Ckpt::load(r)?;
        self.next_load_id = cwf_ckpt::Ckpt::load(r)?;
        self.l1_streak = cwf_ckpt::Ckpt::load(r)?;
        self.stats = cwf_ckpt::Ckpt::load(r)?;
        self.audit = cwf_ckpt::Ckpt::load(r)?;
        self.ev_buf.clear();
        self.wake_buf.clear();
        self.pf_buf.clear();
        r.expect_section(b"HMEM")?;
        load_mem(&mut self.mem, r)
    }
}
