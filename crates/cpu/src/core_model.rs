//! The ROB-limited core model.
//!
//! The reorder buffer is a fixed ring buffer (`RobRing`) and the core
//! exposes two execution paths with identical semantics:
//!
//! * [`Core::tick`] — the exact per-cycle step (retire up to `width`,
//!   then fetch/issue up to `width`), used whenever the core may
//!   interact with the outside world (pull a trace op, issue a memory
//!   access, retry a blocked op, emit trace events);
//! * [`Core::advance`] — a batched replay of a *span* of cycles during
//!   which [`Core::next_activity`] guarantees no interaction can occur.
//!   The replay drains whole retire-able spans in O(1) jumps (full-ROB
//!   stall and retire waits, steady-state compute cruising) and falls
//!   back to exact single-cycle replay across transitions, so the state
//!   after `advance(a, b)` is bit-identical to `b - a` calls of `tick`.

use cwf_tracelog::{TraceEvent, RETIRE_BATCH};

use crate::trace::{TraceOp, TraceSource};

/// Core configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Fetch/dispatch/execute/retire width per cycle.
    pub width: u32,
    /// Completion latency of a non-memory instruction.
    pub pipe_latency: u64,
}

impl CoreParams {
    /// 64-entry ROB, 4-wide, 5-cycle pipeline (Table 1).
    #[must_use]
    pub fn paper_default() -> Self {
        CoreParams { rob_size: 64, width: 4, pipe_latency: 5 }
    }
}

/// Kind of memory operation handed to the issue sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// Data load (blocks retirement until data returns).
    Load,
    /// Data store (retires through a write buffer).
    Store,
}

/// A memory operation presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Load or store.
    pub kind: MemOpKind,
    /// Byte address.
    pub addr: u64,
    /// Program counter of the static instruction.
    pub pc: u64,
    /// Issuing core.
    pub core: u8,
}

/// Hierarchy's answer when the core issues a [`MemOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueResult {
    /// The operation completes at a known cycle (cache hit, store absorb).
    Done {
        /// Completion cycle.
        complete_at: u64,
    },
    /// The operation missed to memory; [`Core::complete_load`] will be
    /// called with `load_id` when the data arrives.
    Pending {
        /// Wake-up handle.
        load_id: u64,
    },
    /// Structural stall (MSHR/queue full): the core retries next cycle.
    Blocked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntry {
    /// Completes at the given cycle.
    Done(u64),
    /// A load waiting on memory.
    Load { load_id: u64 },
}

/// Fixed-capacity ring buffer of in-flight ROB entries. Entries live in
/// a flat slab indexed modulo the capacity — no reallocation, no pointer
/// chasing, and `advance`'s cruise jump can rewrite the whole window in
/// one pass.
#[derive(Debug)]
struct RobRing {
    buf: Vec<RobEntry>,
    head: usize,
    len: usize,
}

impl RobRing {
    fn new(capacity: usize) -> Self {
        RobRing { buf: vec![RobEntry::Done(0); capacity], head: 0, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Physical index of logical slot `k` (0 = head).
    fn idx(&self, k: usize) -> usize {
        let i = self.head + k;
        if i >= self.buf.len() {
            i - self.buf.len()
        } else {
            i
        }
    }

    fn get(&self, k: usize) -> &RobEntry {
        &self.buf[self.idx(k)]
    }

    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.buf[self.head];
        self.head = self.idx(1);
        self.len -= 1;
        Some(e)
    }

    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(!self.is_full(), "ROB overflow");
        let i = self.idx(self.len);
        self.buf[i] = e;
        self.len += 1;
    }
}

/// What a core would do if ticked right now (event-kernel quiescence
/// classification; see [`Core::next_activity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreActivity {
    /// The core would interact this cycle (pull a trace op, retry a
    /// blocked op, or emit trace events) — it must be ticked now.
    Active,
    /// ROB full, head completes at the given future cycle; ticks until
    /// then are no-ops.
    WaitRetire(u64),
    /// ROB full, head is a load waiting on memory; each skipped cycle
    /// adds exactly one memory-stall cycle and nothing else.
    WaitLoad,
    /// Fetch-limited compute span: the pending instruction gap cannot be
    /// exhausted before the given cycle, so no trace pull — and hence no
    /// memory interaction — can happen strictly before it. Cycles up to
    /// the bound are replayed exactly by [`Core::advance`].
    Compute(u64),
}

/// Cycle accounting for one batched [`Core::advance`] span, broken down
/// by how each covered cycle was handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanOutcome {
    /// Full-ROB head-load stall cycles batched in one O(1) jump (each
    /// charges one memory-stall cycle, exactly like the per-cycle tick).
    pub stall_cycles: u64,
    /// Full-ROB retire-wait cycles jumped to the head's completion time.
    pub wait_cycles: u64,
    /// Steady-state compute cycles covered by the O(1) cruise jump
    /// (retire `width` / fetch `width` per cycle, rematerialized).
    pub cruise_cycles: u64,
    /// Transitional cycles replayed one at a time (exact tick semantics).
    pub replayed_cycles: u64,
    /// First cycle at which the span needed an op from the trace or a
    /// blocked-op retry — the caller's activity bound was optimistic.
    /// `None` for every sound span; the verify oracle audits this.
    pub overrun_at: Option<u64>,
}

/// One out-of-order core.
#[derive(Debug)]
pub struct Core {
    id: u8,
    params: CoreParams,
    rob: RobRing,
    /// Non-memory instructions still to fetch from the current gap.
    pending_gap: u32,
    /// A memory op that was `Blocked` and must be retried.
    stalled: Option<TraceOp>,
    retired: u64,
    loads_issued: u64,
    stores_issued: u64,
    /// Cycles in which nothing could be retired while the ROB head was a
    /// pending load (memory-stall cycles).
    pub mem_stall_cycles: u64,
    /// Trace-event buffer (`None` ⇒ tracing disabled).
    tracelog: Option<Vec<TraceEvent>>,
    /// True while a ROB-stall span is open (edge detection for trace).
    stall_open: bool,
    /// Retirements since the last batched `Retire` trace event.
    retire_pending: u16,
    /// `(cycle, first_load_slot)` at which [`Core::advance`]'s cruise
    /// last left the ROB as a verified readiness staircase (completed
    /// slot `s` done by `cycle + s / width`; `usize::MAX` ⇒ no pending
    /// load in the window). Lets back-to-back cruise spans revalidate in
    /// O(1). [`Core::tick`] carries the mark forward when the cycle's
    /// retires and pushes provably preserve the staircase; a load
    /// completion or a single-cycle replay clears it.
    cruise_mark: Option<(u64, usize)>,
}

impl Core {
    /// Create core `id`.
    #[must_use]
    pub fn new(id: u8, params: CoreParams) -> Self {
        Core {
            id,
            params,
            rob: RobRing::new(params.rob_size),
            pending_gap: 0,
            stalled: None,
            retired: 0,
            loads_issued: 0,
            stores_issued: 0,
            mem_stall_cycles: 0,
            tracelog: None,
            stall_open: false,
            retire_pending: 0,
            cruise_mark: None,
        }
    }

    /// Start buffering trace events (ROB-stall edges and batched retire
    /// counts). Observation only — no timing changes. While tracing,
    /// [`Core::next_activity`] reports `Active` on every non-full-ROB
    /// cycle so the per-cycle edge events keep their exact timestamps.
    pub fn enable_trace(&mut self) {
        self.tracelog = Some(Vec::new());
    }

    /// Append buffered trace events to `out`. No-op while disabled.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some(buf) = &mut self.tracelog {
            out.append(buf);
        }
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Loads issued to the hierarchy.
    #[must_use]
    pub fn loads_issued(&self) -> u64 {
        self.loads_issued
    }

    /// Stores issued to the hierarchy.
    #[must_use]
    pub fn stores_issued(&self) -> u64 {
        self.stores_issued
    }

    /// Current ROB occupancy.
    #[must_use]
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Classify what [`Core::tick`] would do at cycle `now` without
    /// running it, bounding how far the core can run without interacting
    /// with anything outside itself.
    ///
    /// With a full ROB the head check decides:
    ///
    /// - head `Done(at)` with `at > now`: nothing happens until `at` —
    ///   `WaitRetire(at)`;
    /// - head pending `Load`: the only effect per cycle is one
    ///   `mem_stall_cycles` increment — `WaitLoad`, which the kernel
    ///   batch-accounts over skipped cycles;
    /// - head `Done(at)` with `at <= now`: retire-limited execution —
    ///   classified by the gap bound below, exactly like the free-slot
    ///   case (retires free at most `width` slots per cycle, so the gap
    ///   drains no faster than `width` per cycle either way).
    ///
    /// While the fetch loop is draining a pending instruction gap it
    /// cannot pull a trace op: at most `width` gap instructions fetch
    /// per cycle, so the earliest possible pull is
    /// `now + ceil((gap + 1) / width) - 1` — `Compute(bound)`. Cycles
    /// strictly before the bound are pure retire/fetch work that
    /// [`Core::advance`] replays exactly. A core holding a blocked op,
    /// an exhausted gap, or an enabled trace buffer must be ticked now —
    /// `Active`.
    #[must_use]
    pub fn next_activity(&self, now: u64) -> CoreActivity {
        if self.rob.is_full() {
            match self.rob.front() {
                Some(RobEntry::Done(at)) if *at > now => return CoreActivity::WaitRetire(*at),
                Some(RobEntry::Load { .. }) => return CoreActivity::WaitLoad,
                // Head ready: retire-limited gap draining. Fall through to
                // the gap bound — the fetch loop frees at most `width`
                // slots per cycle, so the gap still cannot be exhausted
                // (and hence the trace cannot be pulled) any sooner; a
                // retire stall deep in the window only delays it further.
                _ => {}
            }
        }
        if self.tracelog.is_some() || self.stalled.is_some() || self.pending_gap == 0 {
            return CoreActivity::Active;
        }
        let w = u64::from(self.params.width.max(1));
        let bound = now + (u64::from(self.pending_gap) + 1).div_ceil(w) - 1;
        if bound <= now {
            CoreActivity::Active
        } else {
            CoreActivity::Compute(bound)
        }
    }

    /// The earliest cycle `>= now` at which the core must execute a real
    /// [`Core::tick`] ([`Core::next_activity`] folded to a single bound;
    /// `u64::MAX` = only a memory wake-up can make it interact again).
    #[must_use]
    pub fn next_wake(&self, now: u64) -> u64 {
        match self.next_activity(now) {
            CoreActivity::Active => now,
            CoreActivity::WaitRetire(at) => at,
            CoreActivity::WaitLoad => u64::MAX,
            CoreActivity::Compute(at) => at,
        }
    }

    /// Batch-account `cycles` skipped memory-stall cycles (the per-cycle
    /// kernel's head-`Load` increment, applied in one step). Only valid
    /// while [`Core::next_activity`] reports [`CoreActivity::WaitLoad`].
    pub fn add_stall_cycles(&mut self, cycles: u64) {
        self.mem_stall_cycles += cycles;
    }

    /// Deliver data for a pending load (match by `load_id`).
    pub fn complete_load(&mut self, load_id: u64, at: u64) {
        self.cruise_mark = None;
        for k in 0..self.rob.len() {
            let i = self.rob.idx(k);
            if matches!(self.rob.buf[i], RobEntry::Load { load_id: l } if l == load_id) {
                self.rob.buf[i] = RobEntry::Done(at);
                return;
            }
        }
        debug_assert!(false, "completion for unknown load {load_id}");
    }

    /// Advance one CPU cycle: retire up to `width` completed instructions
    /// from the ROB head, then fetch/issue up to `width` new ones.
    pub fn tick<T, F>(&mut self, now: u64, trace: &mut T, issue: &mut F)
    where
        T: TraceSource + ?Sized,
        F: FnMut(MemOp) -> IssueResult,
    {
        // Carry the cruise mark across this tick instead of discarding
        // it. Retiring up to `width` ready heads preserves the staircase
        // (each slot's bound loosens by one full step per cycle:
        // `base + (s + r) / w <= (now + 1) + s / w` for `r <= w`,
        // `base <= now`), so the mark survives as long as every entry
        // pushed this cycle lands on the staircase too — checked per
        // push below. This keeps back-to-back advance spans O(1) to
        // revalidate even though every span boundary runs a real tick.
        let mut mark = match self.cruise_mark.take() {
            Some((base, fl)) if base <= now => Some(fl),
            _ => None,
        };
        let mark_w = (self.params.width.max(1)) as usize;
        // Retire.
        let mut retired_this_cycle = 0;
        let mut stalled_on_load = false;
        while retired_this_cycle < self.params.width {
            match self.rob.front() {
                Some(RobEntry::Done(at)) if *at <= now => {
                    self.rob.pop_front();
                    self.retired += 1;
                    retired_this_cycle += 1;
                }
                Some(RobEntry::Load { .. }) if retired_this_cycle == 0 => {
                    self.mem_stall_cycles += 1;
                    stalled_on_load = true;
                    break;
                }
                _ => break,
            }
        }
        if let Some(fl) = &mut mark {
            // Retirement never pops a Load, so the first-load slot just
            // shifts down with the head.
            if *fl != usize::MAX {
                *fl -= retired_this_cycle as usize;
            }
        }
        if let Some(buf) = &mut self.tracelog {
            if stalled_on_load != self.stall_open {
                self.stall_open = stalled_on_load;
                buf.push(if stalled_on_load {
                    TraceEvent::RobStallBegin { core: self.id, at: now }
                } else {
                    TraceEvent::RobStallEnd { core: self.id, at: now }
                });
            }
            self.retire_pending += retired_this_cycle as u16;
            if self.retire_pending >= RETIRE_BATCH {
                buf.push(TraceEvent::Retire { core: self.id, at: now, count: self.retire_pending });
                self.retire_pending = 0;
            }
        }

        // Fetch/issue.
        let mut fetched = 0;
        while fetched < self.params.width && self.rob.len() < self.params.rob_size {
            if self.pending_gap > 0 {
                self.pending_gap -= 1;
                Self::mark_track(
                    &mut mark,
                    self.rob.len(),
                    Some(now + self.params.pipe_latency),
                    now,
                    mark_w,
                );
                self.rob.push_back(RobEntry::Done(now + self.params.pipe_latency));
                fetched += 1;
                continue;
            }
            let op = match self.stalled.take() {
                Some(op) => op,
                None => trace.next_op(),
            };
            match op {
                TraceOp::Gap(n) => {
                    self.pending_gap = n;
                    if n == 0 {
                        // Defensive: an empty gap is a no-op record.
                        continue;
                    }
                }
                TraceOp::Load { addr, pc } => {
                    match issue(MemOp { kind: MemOpKind::Load, addr, pc, core: self.id }) {
                        IssueResult::Done { complete_at } => {
                            self.loads_issued += 1;
                            Self::mark_track(
                                &mut mark,
                                self.rob.len(),
                                Some(complete_at),
                                now,
                                mark_w,
                            );
                            self.rob.push_back(RobEntry::Done(complete_at));
                            fetched += 1;
                        }
                        IssueResult::Pending { load_id } => {
                            self.loads_issued += 1;
                            Self::mark_track(&mut mark, self.rob.len(), None, now, mark_w);
                            self.rob.push_back(RobEntry::Load { load_id });
                            fetched += 1;
                        }
                        IssueResult::Blocked => {
                            self.stalled = Some(op);
                            break;
                        }
                    }
                }
                TraceOp::Store { addr, pc } => {
                    match issue(MemOp { kind: MemOpKind::Store, addr, pc, core: self.id }) {
                        IssueResult::Done { complete_at } => {
                            self.stores_issued += 1;
                            Self::mark_track(
                                &mut mark,
                                self.rob.len(),
                                Some(complete_at.max(now + 1)),
                                now,
                                mark_w,
                            );
                            self.rob.push_back(RobEntry::Done(complete_at.max(now + 1)));
                            fetched += 1;
                        }
                        IssueResult::Pending { .. } => {
                            // Stores retire via the write buffer; a pending
                            // result is treated as done next cycle.
                            self.stores_issued += 1;
                            Self::mark_track(&mut mark, self.rob.len(), Some(now + 1), now, mark_w);
                            self.rob.push_back(RobEntry::Done(now + 1));
                            fetched += 1;
                        }
                        IssueResult::Blocked => {
                            self.stalled = Some(op);
                            break;
                        }
                    }
                }
            }
        }
        self.cruise_mark = mark.map(|fl| (now + 1, fl));
    }

    /// Update the carried cruise mark for an entry about to be pushed at
    /// logical `slot`: a completion must land on the staircase
    /// (`at <= (now + 1) + slot / w`) or the mark dies; a pending load
    /// (`done_at` = `None`) never breaks the staircase but becomes the
    /// first-load slot if none was recorded yet.
    fn mark_track(mark: &mut Option<usize>, slot: usize, done_at: Option<u64>, now: u64, w: usize) {
        if let Some(fl) = mark {
            match done_at {
                Some(at) => {
                    if at > now + 1 + (slot / w) as u64 {
                        *mark = None;
                    }
                }
                None => {
                    if *fl == usize::MAX {
                        *fl = slot;
                    }
                }
            }
        }
    }

    /// Batch-replay cycles `from..to` (exclusive), during which
    /// [`Core::next_activity`] at `from` guarantees no interaction: the
    /// resulting state is bit-identical to `to - from` calls of
    /// [`Core::tick`] whose fetch loop never reaches the trace. Spans
    /// compose: `advance(a, b)` then `advance(b, c)` equals
    /// `advance(a, c)`.
    ///
    /// Three fast paths cover almost every cycle — the full-ROB
    /// head-load stall (one `mem_stall_cycles` charge per cycle, batched
    /// in O(1)), the full-ROB retire wait (jump to the head's completion
    /// time), and the *staircase cruise*: whenever every completed entry
    /// in the window forms a readiness staircase (slot `s` done by
    /// `cur + s / width`) and the pipeline latency is short enough that
    /// back-filled entries are ready when their retire turn comes, the
    /// core retires `width` and fetches `width` per cycle, so a whole
    /// run of cycles collapses into one window shift-and-rewrite. The
    /// cruise stops at the first pending load's retire turn, at the gap's
    /// exhaustion, or at `to`, whichever is first. Transitions between
    /// the regimes are replayed one cycle at a time with exact tick
    /// semantics.
    ///
    /// If a cycle strictly before `to` *would* need the trace (or a
    /// blocked-op retry), the caller's bound was optimistic: the fetch
    /// is suppressed, the cycle is recorded in
    /// [`SpanOutcome::overrun_at`], and the verify oracle turns it into
    /// a violation. Sound bounds never trip this.
    pub fn advance(&mut self, from: u64, to: u64) -> SpanOutcome {
        debug_assert!(self.tracelog.is_none(), "spans are disabled while tracing");
        let mut out = SpanOutcome::default();
        let w = self.params.width as usize;
        let lat = self.params.pipe_latency;
        let mut cur = from;
        while cur < to {
            if self.rob.is_full() {
                match self.rob.front() {
                    Some(RobEntry::Load { .. }) => {
                        // No fetch, no retire: one stall charge per cycle
                        // until the span ends (a completion cannot arrive
                        // inside a span).
                        let n = to - cur;
                        self.mem_stall_cycles += n;
                        out.stall_cycles += n;
                        cur = to;
                        continue;
                    }
                    Some(RobEntry::Done(at)) if *at > cur => {
                        let j = (*at).min(to);
                        out.wait_cycles += j - cur;
                        cur = j;
                        continue;
                    }
                    _ => {}
                }
            }
            // Staircase cruise: every completed slot `s` is done by
            // `cur + s / width`, so each cycle retires exactly `width`
            // ready heads and back-fills exactly `width` gap entries at
            // `+ lat` — the window length is preserved and the staircase
            // just shifts forward. The `lat` guard ensures a back-filled
            // entry is always done by the time it reaches the retire
            // window, keeping the staircase inductive; a pending load in
            // the window caps the jump so retirement never reaches it.
            // Works at any window length (full-ROB gap draining and the
            // non-full steady compute state are the same regime). The
            // shift is applied in O(shift): retiring `shift` heads from a
            // ring is a head advance, so only the entries fetched during
            // the last cruise cycles are actually written.
            let len = self.rob.len();
            if lat > 0
                && w > 0
                && len >= w
                && self.pending_gap as usize >= w
                && lat <= ((len - w) / w + 1) as u64
            {
                let scan = match self.cruise_mark {
                    Some((mark, fl)) if mark <= cur => Some(fl),
                    _ => self.staircase_scan(cur, w),
                };
                if let Some(first_load) = scan {
                    debug_assert_eq!(self.staircase_scan(cur, w), Some(first_load));
                    let k = (u64::from(self.pending_gap) / w as u64)
                        .min(to - cur)
                        .min((first_load / w) as u64);
                    if k > 0 {
                        let n = w as u64 * k;
                        self.retired += n;
                        self.pending_gap -= n as u32;
                        let shift = n.min(len as u64) as usize;
                        self.rob.head = self.rob.idx(shift);
                        for s in (len - shift)..len {
                            // Fetched during cruise cycle `cur + j`.
                            let j = k - 1 - ((len - 1 - s) / w) as u64;
                            let i = self.rob.idx(s);
                            self.rob.buf[i] = RobEntry::Done(cur + j + lat);
                        }
                        out.cruise_cycles += k;
                        cur += k;
                        self.cruise_mark = Some((
                            cur,
                            if first_load == usize::MAX { usize::MAX } else { first_load - shift },
                        ));
                        continue;
                    }
                }
            }
            if self.replay_cycle(cur) && out.overrun_at.is_none() {
                out.overrun_at = Some(cur);
            }
            out.replayed_cycles += 1;
            cur += 1;
        }
        out
    }

    /// Scan for the staircase-cruise state at cycle `now`: every
    /// completed slot `s` is done by `now + s / width`. Returns the
    /// logical slot of the first pending load (`usize::MAX` when none) —
    /// the cruise may only run while retirement stays strictly below
    /// that slot — or `None` when some completed slot is not ready in
    /// time.
    fn staircase_scan(&self, now: u64, w: usize) -> Option<usize> {
        let mut first_load = usize::MAX;
        for s in 0..self.rob.len() {
            match self.rob.get(s) {
                RobEntry::Done(at) => {
                    if *at > now + (s / w) as u64 {
                        return None;
                    }
                }
                RobEntry::Load { .. } => {
                    if first_load == usize::MAX {
                        first_load = s;
                    }
                }
            }
        }
        Some(first_load)
    }

    /// One exact tick with the trace unreachable: retire as [`Core::tick`]
    /// does, then fetch only gap instructions. Returns true when the real
    /// tick would have needed the trace (span overrun; fetch suppressed).
    fn replay_cycle(&mut self, now: u64) -> bool {
        self.cruise_mark = None;
        let mut retired_this_cycle = 0;
        while retired_this_cycle < self.params.width {
            match self.rob.front() {
                Some(RobEntry::Done(at)) if *at <= now => {
                    self.rob.pop_front();
                    self.retired += 1;
                    retired_this_cycle += 1;
                }
                Some(RobEntry::Load { .. }) if retired_this_cycle == 0 => {
                    self.mem_stall_cycles += 1;
                    break;
                }
                _ => break,
            }
        }
        let mut fetched = 0;
        while fetched < self.params.width && self.rob.len() < self.params.rob_size {
            if self.pending_gap == 0 {
                return true;
            }
            self.pending_gap -= 1;
            self.rob.push_back(RobEntry::Done(now + self.params.pipe_latency));
            fetched += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Script(Vec<TraceOp>, usize);
    impl Script {
        fn new(ops: Vec<TraceOp>) -> Self {
            Script(ops, 0)
        }
    }
    impl TraceSource for Script {
        fn next_op(&mut self) -> TraceOp {
            let op = self.0[self.1 % self.0.len()];
            self.1 += 1;
            op
        }
    }

    #[test]
    fn pure_compute_ipc_approaches_width() {
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Gap(100)]);
        let cycles = 1_000u64;
        for now in 0..cycles {
            core.tick(now, &mut t, &mut |_| unreachable!("no memory ops"));
        }
        let ipc = core.retired() as f64 / cycles as f64;
        assert!(ipc > 3.5, "ipc = {ipc}");
    }

    #[test]
    fn pending_load_blocks_retirement_until_completion() {
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Load { addr: 0, pc: 1 }, TraceOp::Gap(200)]);
        let mut first = true;
        let mut issue = |_op: MemOp| {
            if first {
                first = false;
                IssueResult::Pending { load_id: 42 }
            } else {
                IssueResult::Done { complete_at: 0 }
            }
        };
        for now in 0..50 {
            core.tick(now, &mut t, &mut issue);
        }
        // The load heads the ROB: nothing retires, and the ROB fills.
        assert_eq!(core.retired(), 0);
        assert_eq!(core.rob_len(), 64);
        assert!(core.mem_stall_cycles > 0);
        core.complete_load(42, 50);
        for now in 50..120 {
            core.tick(now, &mut t, &mut |_| IssueResult::Done { complete_at: 0 });
        }
        assert!(core.retired() > 64);
    }

    #[test]
    fn rob_bounds_outstanding_loads() {
        // Every op is a pending load: at most rob_size can be in flight.
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Load { addr: 0, pc: 1 }]);
        let mut next_id = 0u64;
        let mut issued = 0u64;
        let mut issue = |_op: MemOp| {
            next_id += 1;
            issued += 1;
            IssueResult::Pending { load_id: next_id }
        };
        for now in 0..100 {
            core.tick(now, &mut t, &mut issue);
        }
        assert_eq!(issued, 64, "MLP window equals ROB size");
    }

    #[test]
    fn blocked_op_is_retried_not_dropped() {
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Load { addr: 0x40, pc: 1 }, TraceOp::Gap(50)]);
        let mut attempts = 0;
        let mut issue = |op: MemOp| {
            attempts += 1;
            assert_eq!(op.addr, 0x40, "same op re-presented");
            if attempts < 3 {
                IssueResult::Blocked
            } else {
                IssueResult::Done { complete_at: 10 }
            }
        };
        for now in 0..3 {
            core.tick(now, &mut t, &mut issue);
        }
        assert_eq!(attempts, 3);
        assert_eq!(core.loads_issued(), 1);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Store { addr: 0, pc: 1 }, TraceOp::Gap(3)]);
        for now in 0..100 {
            core.tick(now, &mut t, &mut |_| IssueResult::Done { complete_at: 0 });
        }
        assert!(core.retired() > 50);
        assert!(core.stores_issued() > 10);
    }

    #[test]
    fn retire_width_is_respected() {
        let mut core = Core::new(0, CoreParams { rob_size: 64, width: 4, pipe_latency: 0 });
        let mut t = Script::new(vec![TraceOp::Gap(u32::MAX)]);
        core.tick(0, &mut t, &mut |_| unreachable!());
        assert_eq!(core.rob_len(), 4, "fetch width bounds per-cycle fetch");
        core.tick(1, &mut t, &mut |_| unreachable!());
        // 4 retired, 4 more fetched.
        assert_eq!(core.retired(), 4);
    }

    #[test]
    fn compute_bound_is_never_optimistic() {
        // Drive a gap-heavy core tick by tick; whenever next_activity
        // promises a compute span, the trace must not be pulled before
        // the bound.
        struct Recorder {
            pulls: Vec<u64>,
            gap: u32,
            now: u64,
        }
        impl TraceSource for Recorder {
            fn next_op(&mut self) -> TraceOp {
                let at = self.now;
                self.pulls.push(at);
                TraceOp::Gap(self.gap)
            }
        }
        for gap in [1u32, 3, 4, 5, 17, 64] {
            let mut core = Core::new(0, CoreParams::paper_default());
            let mut t = Recorder { pulls: Vec::new(), gap, now: 0 };
            let mut bound_floor = 0u64;
            for now in 0..200u64 {
                t.now = now;
                if let CoreActivity::Compute(b) = core.next_activity(now) {
                    assert!(b > now, "Compute bound must be in the future");
                    bound_floor = b;
                }
                let before = t.pulls.len();
                core.tick(now, &mut t, &mut |_| unreachable!("gaps only"));
                if t.pulls.len() > before {
                    assert!(now >= bound_floor, "gap {gap}: pull at {now} before {bound_floor}");
                }
            }
            assert!(!t.pulls.is_empty(), "gap {gap}: the trace was never reached");
        }
    }

    #[test]
    fn advance_matches_tick_over_a_pure_compute_span() {
        let params = CoreParams::paper_default();
        let mut a = Core::new(0, params);
        let mut b = Core::new(0, params);
        // Prime both with a long gap via one real tick.
        let mut t = Script::new(vec![TraceOp::Gap(1_000)]);
        a.tick(0, &mut t, &mut |_| unreachable!());
        let mut t = Script::new(vec![TraceOp::Gap(1_000)]);
        b.tick(0, &mut t, &mut |_| unreachable!());
        // a: exact per-cycle; b: one batched span.
        let mut t = Script::new(vec![TraceOp::Gap(1_000)]);
        for now in 1..200u64 {
            a.tick(now, &mut t, &mut |_| panic!("span must not issue"));
        }
        let out = b.advance(1, 200);
        assert_eq!(out.overrun_at, None);
        assert!(out.cruise_cycles > 150, "cruise covers the steady state: {out:?}");
        assert_eq!(a.retired(), b.retired());
        assert_eq!(a.rob_len(), b.rob_len());
        assert_eq!(a.mem_stall_cycles, b.mem_stall_cycles);
        assert_eq!(a.pending_gap, b.pending_gap);
    }

    #[test]
    fn advance_reports_an_optimistic_bound_as_overrun() {
        let mut core = Core::new(0, CoreParams::paper_default());
        let mut t = Script::new(vec![TraceOp::Gap(8)]);
        core.tick(0, &mut t, &mut |_| unreachable!());
        // Gap of 8 at width 4 exhausts during cycle 2; advancing to 10
        // overruns (a sound caller would stop at next_activity's bound).
        let bound = match core.next_activity(1) {
            CoreActivity::Compute(b) => b,
            other => panic!("expected compute span, got {other:?}"),
        };
        let out = core.advance(1, 10);
        let overrun = out.overrun_at.expect("bound exceeded");
        assert!(overrun >= bound, "overrun {overrun} cannot precede the bound {bound}");
    }
}

impl cwf_ckpt::Ckpt for RobEntry {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            RobEntry::Done(at) => {
                w.put_u8(0);
                w.put_u64(at);
            }
            RobEntry::Load { load_id } => {
                w.put_u8(1);
                w.put_u64(load_id);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => RobEntry::Done(r.get_u64()?),
            1 => RobEntry::Load { load_id: r.get_u64()? },
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid RobEntry tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(RobRing { buf, head, len });

impl Core {
    /// Serialize the core's mutable state (ROB contents, in-flight op,
    /// retirement counters, span bookkeeping). `id` and `params` are
    /// rebuilt on restore; the trace log is re-armed by `enable_trace`
    /// and holds nothing once drained, so tracing doesn't block a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when the trace log holds undrained events.
    pub fn save_ckpt(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let Core {
            id: _,
            params: _,
            rob,
            pending_gap,
            stalled,
            retired,
            loads_issued,
            stores_issued,
            mem_stall_cycles,
            tracelog,
            stall_open,
            retire_pending,
            cruise_mark,
        } = self;
        if tracelog.as_ref().is_some_and(|t| !t.is_empty()) {
            return Err(cwf_ckpt::CkptError::new(
                "cannot checkpoint a core with undrained trace events",
            ));
        }
        w.section(b"CORE");
        cwf_ckpt::Ckpt::save(rob, w);
        cwf_ckpt::Ckpt::save(pending_gap, w);
        cwf_ckpt::Ckpt::save(stalled, w);
        cwf_ckpt::Ckpt::save(retired, w);
        cwf_ckpt::Ckpt::save(loads_issued, w);
        cwf_ckpt::Ckpt::save(stores_issued, w);
        cwf_ckpt::Ckpt::save(mem_stall_cycles, w);
        cwf_ckpt::Ckpt::save(stall_open, w);
        cwf_ckpt::Ckpt::save(retire_pending, w);
        cwf_ckpt::Ckpt::save(cruise_mark, w);
        Ok(())
    }

    /// Restore state saved by [`Core::save_ckpt`] into a freshly
    /// constructed core with the same `id` and `params`.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a ROB capacity mismatch.
    pub fn load_ckpt(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"CORE")?;
        let rob: RobRing = cwf_ckpt::Ckpt::load(r)?;
        if rob.buf.len() != self.rob.buf.len() {
            return Err(cwf_ckpt::CkptError::new("ROB capacity mismatch"));
        }
        self.rob = rob;
        self.pending_gap = cwf_ckpt::Ckpt::load(r)?;
        self.stalled = cwf_ckpt::Ckpt::load(r)?;
        self.retired = cwf_ckpt::Ckpt::load(r)?;
        self.loads_issued = cwf_ckpt::Ckpt::load(r)?;
        self.stores_issued = cwf_ckpt::Ckpt::load(r)?;
        self.mem_stall_cycles = cwf_ckpt::Ckpt::load(r)?;
        self.stall_open = cwf_ckpt::Ckpt::load(r)?;
        self.retire_pending = cwf_ckpt::Ckpt::load(r)?;
        self.cruise_mark = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
