//! A per-channel FR-FCFS transaction scheduler (USIMM-style).
//!
//! Each controller owns one [`Channel`] and two transaction queues. Per
//! device cycle it issues at most one DRAM command, chosen by
//! First-Ready-First-Come-First-Served order:
//!
//! 1. oldest transaction whose **column** command is ready (row-buffer hit),
//! 2. oldest whose **activate** is ready,
//! 3. oldest needing a **precharge** (row conflict), provided no older
//!    queued transaction still wants the currently open row.
//!
//! Demand reads outrank prefetch reads until a prefetch exceeds the age
//! threshold, at which point it is promoted (paper §5). Writes are
//! scheduled in drain mode, entered above the high watermark and left at
//! the low watermark (Table 1: 48-entry queues, watermarks 32/16), or
//! opportunistically when the read queue is empty.

use std::cell::Cell;

use dram_timing::{
    AddressingStyle, BankState, Channel, Command, DeviceConfig, DeviceKind, PagePolicy, PowerState,
};

use cwf_tracelog::TraceEvent;

use crate::mapping::Loc;
use crate::request::Token;
use crate::txnq::{Txn, TxnQueue};

/// A [`Controller`]'s memoized wake bound: nothing observable happens
/// at any device cycle in `at + 1..bound` unless the controller's state
/// changes first. Queries in `at..bound` return `bound` (`u64::MAX` ⇒
/// idle until new work); ticks strictly inside the window are skipped.
#[derive(Debug, Clone, Copy)]
struct WakeMemo {
    /// Device cycle of the fold.
    at: u64,
    /// The folded [`Controller::next_activity_mem`] bound.
    bound: u64,
    /// The scheduler idle bound the fold used: a skipped command-slot
    /// tick adopts it, exactly as a full, fruitless tick would.
    idle: u64,
}

/// The invalid memo: `at` above every query cycle, so no query or tick
/// falls inside its window.
const WAKE_UNKNOWN: WakeMemo = WakeMemo { at: u64::MAX, bound: 0, idle: 0 };

/// Transaction scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// First-Ready-FCFS: row hits jump ahead (the paper's policy, §5).
    FrFcfs,
    /// Strict in-order FCFS: only the oldest transaction's next command
    /// may issue (ablation baseline).
    Fcfs,
}

/// Tunable controller parameters (defaults follow the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlParams {
    /// Read queue capacity.
    pub read_q_capacity: usize,
    /// Write queue capacity.
    pub write_q_capacity: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wq_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub wq_low: usize,
    /// Prefetch age (device cycles) after which a prefetch read is promoted
    /// to demand priority.
    pub prefetch_promote_age: u64,
    /// Scheduling policy.
    pub policy: SchedPolicy,
}

impl Default for CtrlParams {
    fn default() -> Self {
        CtrlParams {
            read_q_capacity: 48,
            write_q_capacity: 48,
            wq_high: 32,
            wq_low: 16,
            prefetch_promote_age: 400,
            policy: SchedPolicy::FrFcfs,
        }
    }
}

/// A completed read, in device-cycle units (the owner converts to CPU
/// cycles using the channel's clock ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// Transaction handle given at enqueue.
    pub token: Token,
    /// Device cycle after the last data beat.
    pub data_end_mem: u64,
    /// Cycles spent queued (enqueue to column command).
    pub queue_mem: u64,
    /// Cycles from column command to last beat (core/service latency).
    pub service_mem: u64,
}

/// End-of-run statistics for one controller.
#[derive(Debug, Clone)]
pub struct ControllerStats {
    /// Device flavor behind this channel.
    pub kind: DeviceKind,
    /// Reporting label, e.g. `"ddr3-ch0"`.
    pub label: String,
    /// DRAM chips that participate in each access on this channel (for
    /// power scaling: 9 on the baseline, 8 on LPDDR2, 1 on an x9 RLDRAM
    /// sub-channel).
    pub chips_per_access: u32,
    /// Total device cycles elapsed.
    pub mem_cycles: u64,
    /// Clock period of this device in picoseconds.
    pub t_ck_ps: u32,
    /// Channel command/bus counters.
    pub channel: dram_timing::ChannelStats,
    /// Rank power-state residency (summed over ranks).
    pub residency: dram_timing::Residency,
    /// Number of ranks (residency is a sum over them).
    pub ranks: u32,
    /// Reads completed.
    pub reads_done: u64,
    /// Writes completed.
    pub writes_done: u64,
    /// Sum of read queueing delays in nanoseconds.
    // cwf-lint: allow(float-accum) -- derived once from the integer cycle sum at snapshot time
    pub sum_queue_ns: f64,
    /// Sum of read service latencies in nanoseconds.
    // cwf-lint: allow(float-accum) -- derived once from the integer cycle sum at snapshot time
    pub sum_service_ns: f64,
    /// Histogram of end-to-end read latencies (enqueue to last data
    /// beat), in integer nanoseconds.
    pub read_lat_hist: dram_timing::stats::LatencyHist,
}

impl ControllerStats {
    /// Subtract an earlier snapshot of the *same* controller (warm-up
    /// exclusion). Identity fields (kind, label, geometry, clock) are
    /// kept from `self`; every counter, histogram and residency field is
    /// reduced by the snapshot's contribution.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the snapshots are from different
    /// controllers (labels differ).
    pub fn sub(&mut self, earlier: &ControllerStats) {
        debug_assert_eq!(self.label, earlier.label, "controller delta across different channels");
        self.mem_cycles -= earlier.mem_cycles;
        self.channel.sub(&earlier.channel);
        self.residency.sub(&earlier.residency);
        self.reads_done -= earlier.reads_done;
        self.writes_done -= earlier.writes_done;
        self.sum_queue_ns -= earlier.sum_queue_ns;
        self.sum_service_ns -= earlier.sum_service_ns;
        self.read_lat_hist.sub(&earlier.read_lat_hist);
    }
}

/// One memory channel's transaction scheduler.
#[derive(Debug)]
pub struct Controller {
    cfg: DeviceConfig,
    params: CtrlParams,
    label: String,
    chips_per_access: u32,
    channel: Channel,
    read_q: TxnQueue,
    write_q: TxnQueue,
    drain: bool,
    /// Cached "no scheduler action before this cycle" bound: while `now`
    /// is strictly below it, `tick_mem` skips the drain-hysteresis check
    /// and every FR-FCFS selection pass outright. Derived from
    /// [`Self::sched_bound`] after a fruitless schedule round; reset to 0
    /// (unknown) by anything that can create or accelerate a candidate —
    /// an enqueue, any command issue, or a rank wake.
    sched_idle_until: u64,
    /// Memoized [`Self::next_activity_mem`] fold. A `Cell` because the
    /// query side takes `&self`; derived state, cleared by every mutation
    /// and never checkpointed.
    wake: Cell<WakeMemo>,
    refresh_deadline: Vec<u64>,
    refresh_bank_rr: Vec<u8>,
    completions: Vec<ReadCompletion>,
    mem_cycles: u64,
    reads_done: u64,
    writes_done: u64,
    sum_queue_mem: u64,
    sum_service_mem: u64,
    read_lat_hist: dram_timing::stats::LatencyHist,
    next_token: u64,
    /// Fault injection: number of upcoming refresh obligations to skip
    /// silently (deadline re-armed, no command issued). Only the verify
    /// oracle's seeded-fault tests set this.
    fault_drop_refreshes: u32,
    /// Fault injection: number of upcoming refresh obligations to re-arm
    /// as if the device were in self-refresh (silent `now + tREFI` reset,
    /// no command, rank awake) — the exact behavior of the old
    /// `tick_refresh` self-refresh branch when it fired on a woken rank.
    /// Only the verify oracle's seeded-fault tests set this.
    fault_phantom_self_refresh: u32,
    /// Request-linked trace sink (None ⇒ tracing off, zero work).
    trace: Option<TraceSink>,
}

/// Buffer for token-tagged [`TraceEvent`]s. Timestamps are converted
/// to CPU cycles at emission (device cycle × clock ratio), so the
/// host can merge sinks from channels in different clock domains.
#[derive(Debug)]
struct TraceSink {
    /// Global channel index (audit numbering).
    channel: u16,
    /// CPU cycles per device cycle.
    ratio: u64,
    events: Vec<TraceEvent>,
}

impl Controller {
    /// Create a controller over `ranks` ranks of `cfg` devices.
    #[must_use]
    pub fn new(cfg: DeviceConfig, ranks: u32, chips_per_access: u32, label: &str) -> Self {
        Self::with_params(cfg, ranks, chips_per_access, label, CtrlParams::default())
    }

    /// Create a controller with explicit queue parameters.
    #[must_use]
    pub fn with_params(
        cfg: DeviceConfig,
        ranks: u32,
        chips_per_access: u32,
        label: &str,
        params: CtrlParams,
    ) -> Self {
        let t_refi = u64::from(cfg.timings.t_refi);
        let banks = cfg.geometry.banks;
        let channel = Channel::new(cfg.clone(), ranks);
        Controller {
            cfg,
            params,
            label: label.to_owned(),
            chips_per_access,
            channel,
            read_q: TxnQueue::new(ranks, banks),
            write_q: TxnQueue::new(ranks, banks),
            drain: false,
            sched_idle_until: 0,
            wake: Cell::new(WAKE_UNKNOWN),
            refresh_deadline: (0..ranks).map(|r| t_refi.max(1) + u64::from(r) * 7).collect(),
            refresh_bank_rr: vec![0; ranks as usize],
            completions: Vec::new(),
            mem_cycles: 0,
            reads_done: 0,
            writes_done: 0,
            sum_queue_mem: 0,
            sum_service_mem: 0,
            read_lat_hist: dram_timing::stats::LatencyHist::default(),
            next_token: 0,
            fault_drop_refreshes: 0,
            fault_phantom_self_refresh: 0,
            trace: None,
        }
    }

    /// Start emitting request-linked [`TraceEvent`]s, reporting this
    /// controller as global channel index `channel` (the same
    /// numbering as [`crate::audit::ChannelDesc`] ordering).
    pub fn enable_trace(&mut self, channel: u16) {
        self.forget_wake();
        self.trace = Some(TraceSink {
            channel,
            ratio: u64::from(self.cfg.cpu_cycles_per_mem_cycle).max(1),
            events: Vec::new(),
        });
    }

    /// Take the trace events emitted since the last call (empty unless
    /// [`Controller::enable_trace`] was called).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(&mut t.events),
            None => Vec::new(),
        }
    }

    /// Fault injection: silently drop the next `n` refresh obligations —
    /// each deadline is re-armed as if the refresh had issued, but no
    /// command goes to the devices. Exists solely so the verify oracle's
    /// seeded-fault tests can prove the refresh ledger is not vacuous.
    pub fn inject_drop_refresh(&mut self, n: u32) {
        self.forget_wake();
        self.fault_drop_refreshes = n;
    }

    /// Fault injection: make the next `n` refresh obligations behave like
    /// the pre-fix self-refresh branch — the deadline silently resets to
    /// `now + tREFI` with no REF issued and the rank fully awake. Exists
    /// solely so the seeded-fault tests can prove the refresh ledger
    /// catches that (since-fixed) behavior.
    pub fn inject_phantom_self_refresh(&mut self, n: u32) {
        self.forget_wake();
        self.fault_phantom_self_refresh = n;
    }

    /// Device configuration behind this channel.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Reporting label given at construction (e.g. `"ddr3-ch0"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True if a read can currently be accepted.
    #[must_use]
    pub fn read_space(&self) -> bool {
        self.read_q.len() < self.params.read_q_capacity
    }

    /// True if a write can currently be accepted.
    #[must_use]
    pub fn write_space(&self) -> bool {
        self.write_q.len() < self.params.write_q_capacity
    }

    /// Current read-queue occupancy.
    #[must_use]
    pub fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    /// Current write-queue occupancy.
    #[must_use]
    pub fn write_q_len(&self) -> usize {
        self.write_q.len()
    }

    /// Enqueue a read transaction; returns its token, or `None` when full.
    pub fn enqueue_read(
        &mut self,
        token: Token,
        loc: Loc,
        prefetch: bool,
        enqueue_mem: u64,
    ) -> bool {
        if !self.read_space() {
            return false;
        }
        self.read_q.push(token, loc, prefetch, enqueue_mem);
        self.sched_idle_until = 0;
        self.forget_wake();
        if let Some(t) = self.trace.as_mut() {
            t.events.push(TraceEvent::McEnqueue {
                token,
                channel: t.channel,
                at: enqueue_mem * t.ratio,
            });
        }
        true
    }

    /// Enqueue a writeback; returns `false` when the write queue is full.
    pub fn enqueue_write(&mut self, loc: Loc, enqueue_mem: u64) -> bool {
        if !self.write_space() {
            return false;
        }
        let token = Token(u64::MAX - self.next_token);
        self.next_token += 1;
        self.write_q.push(token, loc, false, enqueue_mem);
        self.sched_idle_until = 0;
        self.forget_wake();
        true
    }

    /// Take the read completions produced since the last call.
    pub fn take_completions(&mut self) -> Vec<ReadCompletion> {
        if self.completions.is_empty() {
            // Every backend drains every controller it ticks; an empty
            // drain changes nothing, so the wake memo survives it.
            return Vec::new();
        }
        self.forget_wake();
        std::mem::take(&mut self.completions)
    }

    /// Drop the memoized wake bound (state changed under it).
    fn forget_wake(&self) {
        self.wake.set(WAKE_UNKNOWN);
    }

    /// Record every DRAM command this controller issues (protocol audit).
    pub fn enable_command_log(&mut self) {
        self.forget_wake();
        self.channel.enable_command_log();
    }

    /// Take the `(cycle, command)` log recorded so far.
    pub fn take_command_log(&mut self) -> Vec<(u64, dram_timing::Command)> {
        self.channel.take_command_log()
    }

    /// Take the `(cycle, rank, state)` power-transition log recorded so
    /// far (empty unless [`Controller::enable_command_log`] was called).
    pub fn take_power_log(&mut self) -> Vec<(u64, u8, PowerState)> {
        self.channel.take_power_log()
    }

    /// Number of ranks behind this channel.
    #[must_use]
    pub fn ranks(&self) -> u32 {
        self.channel.ranks().len() as u32
    }

    /// Advance one device cycle. `cmd_allowed` is false when a shared
    /// address/command bus gave this cycle's slot to a sibling sub-channel
    /// (§4.2.4). Returns `true` iff a command was issued.
    ///
    /// A tick strictly inside the memoized wake window (see
    /// [`Self::next_activity_mem`]) is a proven no-op: only the cycle
    /// counter moves.
    pub fn tick_mem(&mut self, now: u64, cmd_allowed: bool) -> bool {
        self.mem_cycles = self.mem_cycles.max(now + 1);
        let wake = self.wake.get();
        if wake.at < now && now < wake.bound {
            // Power management, refresh and every scheduler pass would
            // find nothing to do; with the command slot, a full tick would
            // only refresh an expired idle bound to the fold's value.
            if cmd_allowed && self.sched_idle_until <= now {
                debug_assert_eq!(wake.idle, self.sched_bound(now), "stale idle bound");
                self.sched_idle_until = wake.idle;
            }
            return false;
        }
        self.forget_wake();
        self.manage_power(now);
        if !cmd_allowed {
            return false;
        }
        if self.tick_refresh(now) {
            self.sched_idle_until = 0;
            return true;
        }
        // The memoized ready-cycles prove no scheduler candidate (and no
        // pending drain flip) before this bound — skip the whole round.
        if now < self.sched_idle_until {
            return false;
        }
        let issued = self.schedule_round(now);
        self.sched_idle_until = if issued { 0 } else { self.sched_bound(now) };
        issued
    }

    /// One scheduler round: apply the write-drain hysteresis, then run the
    /// FR-FCFS selection passes. Returns `true` iff a command issued.
    fn schedule_round(&mut self, now: u64) -> bool {
        // Write-drain hysteresis.
        let was_draining = self.drain;
        if self.write_q.len() >= self.params.wq_high {
            self.drain = true;
        } else if self.write_q.len() <= self.params.wq_low {
            self.drain = false;
        }
        if self.drain != was_draining {
            if let Some(t) = self.trace.as_mut() {
                let at = now * t.ratio;
                t.events.push(if self.drain {
                    TraceEvent::McDrainEnter { channel: t.channel, at }
                } else {
                    TraceEvent::McDrainExit { channel: t.channel, at }
                });
            }
        }
        if self.drain {
            // Read-favouring drain: a demand read whose row is already
            // open (a row-buffer hit) may bypass the drain — it costs the
            // write stream almost nothing and avoids multi-hundred-cycle
            // read blackouts. When the write queue is nearly overflowing,
            // writes go unconditionally first.
            let urgent = self.write_q.len() + 2 >= self.params.write_q_capacity;
            if !urgent {
                for demand in [true, false] {
                    if let Some(i) = self.find_column(now, true, demand) {
                        self.issue_column(now, true, i);
                        return true;
                    }
                }
            }
            self.schedule(now, false) || self.schedule(now, true)
        } else if !self.read_q.is_empty() {
            self.schedule(now, true)
        } else {
            self.schedule(now, false)
        }
    }

    /// How far ahead of a refresh deadline the power manager must wake a
    /// powered-down rank (and stop putting ranks to sleep), derived from
    /// the device timing parameters:
    ///
    /// ```text
    /// lead = tXP + (open > 0 ? tRP + open - 1 : 0)
    /// ```
    ///
    /// `manage_power` runs before `tick_refresh` within the same device
    /// cycle, so a rank woken at `deadline - tXP` has
    /// `next_cmd_ok = deadline` and its REF becomes legal exactly at the
    /// deadline. When the rank powered down with `open` rows still open,
    /// the REF must additionally wait for the serialized precharges that
    /// close them: the last of `open` precharges issues `open - 1` cycles
    /// after the first legal command slot, and its bank is idle `tRP`
    /// later. A powered-down rank's open-bank mask is frozen (no command
    /// can issue), so the lead is stable for the whole sleep.
    fn refresh_wake_ahead(&self, rank: usize) -> u64 {
        let t = &self.cfg.timings;
        let open = u64::from(self.channel.ranks()[rank].open_mask().count_ones());
        let pre_lead = if open > 0 { u64::from(t.t_rp) + open - 1 } else { 0 };
        u64::from(t.t_xp) + pre_lead
    }

    /// Wake ranks that have pending work; sleep ranks that do not.
    fn manage_power(&mut self, now: u64) {
        let ranks = self.channel.ranks().len();
        for r in 0..ranks {
            let r8 = r as u8;
            let busy = self.read_q.rank_busy(r) || self.write_q.rank_busy(r);
            let refresh_due = self.cfg.timings.t_refi != 0
                && now + self.refresh_wake_ahead(r) >= self.refresh_deadline[r];
            let state = self.channel.ranks()[r].power_state();
            if busy || (refresh_due && state == PowerState::PowerDown) {
                if state != PowerState::Up {
                    self.channel.wake_rank(r8, now);
                    if state == PowerState::SelfRefresh && self.cfg.timings.t_refi != 0 {
                        // Self-refresh maintained the array internally; the
                        // external refresh cadence restarts one full
                        // interval after wake-up (the verify ledger's
                        // suspension semantics).
                        self.refresh_deadline[r] = now + u64::from(self.cfg.timings.t_refi);
                    }
                    // A wake can pull scheduler candidates earlier.
                    self.sched_idle_until = 0;
                }
            } else if !busy && !refresh_due && state != PowerState::SelfRefresh {
                self.channel.maybe_sleep(r8, now, true);
            }
        }
    }

    /// Handle refresh obligations. Returns `true` if a command was issued.
    fn tick_refresh(&mut self, now: u64) -> bool {
        if self.cfg.timings.t_refi == 0 {
            return false;
        }
        let t_refi = u64::from(self.cfg.timings.t_refi);
        for r in 0..self.channel.ranks().len() {
            if now < self.refresh_deadline[r] {
                continue;
            }
            let r8 = r as u8;
            if self.channel.ranks()[r].power_state() == PowerState::SelfRefresh {
                // The device refreshes itself in self-refresh: the external
                // obligation is suspended — no silent deadline reset here —
                // and the cadence restarts a full tREFI after wake-up (see
                // `manage_power`), mirroring the verify ledger.
                continue;
            }
            if self.fault_phantom_self_refresh > 0 {
                self.fault_phantom_self_refresh -= 1;
                // Replays the pre-fix self-refresh branch on an awake rank:
                // deadline reset, no REF issued.
                self.refresh_deadline[r] = now + t_refi;
                self.sched_idle_until = 0;
                continue;
            }
            if self.fault_drop_refreshes > 0 {
                self.fault_drop_refreshes -= 1;
                self.refresh_deadline[r] += t_refi;
                // Unblocking the rank without an issue re-opens candidates.
                self.sched_idle_until = 0;
                continue;
            }
            // Same-bank refresh (RLDRAM3, DDR5 REFsb) rotates one bank per
            // tREFI slot; all-bank refresh drains the rank first.
            if self.cfg.refresh_per_bank {
                let bank = self.refresh_bank_rr[r];
                let cmd = Command::RefreshBank { rank: r8, bank };
                if self.channel.can_issue(&cmd, now) {
                    self.channel.issue(&cmd, now);
                    self.refresh_bank_rr[r] = (bank + 1) % self.cfg.geometry.banks as u8;
                    // Re-arm from the stored deadline, not the issue
                    // cycle: a late REF must not drift the cadence.
                    self.refresh_deadline[r] += t_refi;
                    return true;
                }
                // On an open-page device the target bank may hold an open
                // row (REFsb is only legal on an idle bank): close it.
                // Single-command devices never open rows, so this branch
                // is unreachable there.
                if self.channel.ranks()[r].open_mask() & (1u64 << bank) != 0 {
                    let pre = Command::precharge(r8, bank);
                    if self.channel.can_issue(&pre, now) {
                        self.channel.issue(&pre, now);
                        return true;
                    }
                }
                continue;
            }
            match self.cfg.addressing {
                AddressingStyle::SingleCommand => {
                    // Unreachable in practice: the spec layer requires
                    // per-bank refresh on single-command devices.
                    continue;
                }
                AddressingStyle::RasCas => {
                    // Close any open bank, then refresh the whole rank. The
                    // open-bank bitmask makes this allocation-free.
                    let mut open = self.channel.ranks()[r].open_mask();
                    if open == 0 {
                        let cmd = Command::Refresh { rank: r8 };
                        if self.channel.can_issue(&cmd, now) {
                            self.channel.issue(&cmd, now);
                            // Re-arm from the stored deadline, not the
                            // issue cycle: a late REF must not drift the
                            // cadence (each slipped cycle would otherwise
                            // compound forever).
                            self.refresh_deadline[r] += t_refi;
                            return true;
                        }
                    } else {
                        while open != 0 {
                            let bank = open.trailing_zeros() as u8;
                            open &= open - 1;
                            let cmd = Command::precharge(r8, bank);
                            if self.channel.can_issue(&cmd, now) {
                                self.channel.issue(&cmd, now);
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// A rank is blocked for normal traffic while its refresh is overdue.
    fn refresh_blocked(&self, rank: u8, now: u64) -> bool {
        self.cfg.timings.t_refi != 0 && now >= self.refresh_deadline[usize::from(rank)]
    }

    /// True when `txn` currently counts as demand priority.
    fn is_demand(&self, txn: &Txn, now: u64) -> bool {
        !txn.prefetch || now.saturating_sub(txn.enqueue_mem) >= self.params.prefetch_promote_age
    }

    /// FR-FCFS (or strict FCFS) over one queue. Returns `true` iff a
    /// command issued.
    fn schedule(&mut self, now: u64, reads: bool) -> bool {
        if (reads && self.read_q.is_empty()) || (!reads && self.write_q.is_empty()) {
            return false;
        }
        if self.params.policy == SchedPolicy::Fcfs {
            return self.schedule_fcfs(now, reads);
        }
        // Class-major: demand first, then (for reads) prefetch.
        for demand_pass in [true, false] {
            if !reads && !demand_pass {
                break; // writes have a single class
            }
            if let Some(i) = self.find_column(now, reads, demand_pass) {
                self.issue_column(now, reads, i);
                return true;
            }
            if self.cfg.addressing == AddressingStyle::RasCas {
                if let Some(i) = self.find_activate(now, reads, demand_pass) {
                    self.issue_activate(now, reads, i);
                    return true;
                }
                if let Some(i) = self.find_conflict_precharge(now, reads, demand_pass) {
                    self.issue_precharge(now, reads, i);
                    return true;
                }
            }
        }
        false
    }

    /// Strict FCFS: only the oldest transaction may make progress.
    fn schedule_fcfs(&mut self, now: u64, reads: bool) -> bool {
        let (slot, loc) = {
            let (slot, t) = self.queue(reads).oldest().expect("non-empty queue");
            (slot, t.loc)
        };
        if self.refresh_blocked(loc.rank, now) {
            return false;
        }
        let auto_pre = self.cfg.page_policy == PagePolicy::Closed;
        let col = self.column_cmd(self.queue(reads).get(slot), reads, auto_pre);
        if self.channel.can_issue(&col, now) {
            self.issue_column(now, reads, slot);
            return true;
        }
        if self.cfg.addressing == AddressingStyle::RasCas {
            match self.channel.bank_state(loc.rank, loc.bank) {
                BankState::Idle => {
                    let act = Command::activate(loc.rank, loc.bank, loc.row);
                    if self.channel.can_issue(&act, now) {
                        self.issue_activate(now, reads, slot);
                        return true;
                    }
                }
                BankState::Active { row } if row != loc.row => {
                    let pre = Command::precharge(loc.rank, loc.bank);
                    if self.channel.can_issue(&pre, now) {
                        self.issue_precharge(now, reads, slot);
                        return true;
                    }
                }
                BankState::Active { .. } => {}
            }
        }
        false
    }

    fn queue(&self, reads: bool) -> &TxnQueue {
        if reads {
            &self.read_q
        } else {
            &self.write_q
        }
    }

    /// Oldest transaction whose column command is ready now.
    ///
    /// Indexed: within one bank's bucket every candidate shares the same
    /// column timing bound (rows only affect legality), so the bucket's
    /// candidate is its first class-matching entry targeting the open row
    /// (open page) or its first class-matching entry (close page, banks
    /// always idle) — one `can_issue` probe per bank. The global pick is
    /// the minimum-seq candidate, which equals the old linear scan's first
    /// match.
    fn find_column(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let auto_pre = self.cfg.page_policy == PagePolicy::Closed;
        let q = self.queue(reads);
        let mut best: Option<(u64, u32)> = None;
        for r in 0..self.channel.ranks().len() {
            if !q.rank_busy(r) || self.refresh_blocked(r as u8, now) {
                continue;
            }
            let mut mask = q.busy_banks(r);
            while mask != 0 {
                let b = mask.trailing_zeros() as u8;
                mask &= mask - 1;
                // A bucket cannot beat the incumbent if even its front is
                // younger.
                if let Some((seq, _)) = best {
                    if q.bucket_front(r as u8, b).is_none_or(|f| f.seq >= seq) {
                        continue;
                    }
                }
                let open = match self.cfg.addressing {
                    AddressingStyle::RasCas => match self.channel.bank_state(r as u8, b) {
                        BankState::Active { row } => Some(row),
                        BankState::Idle => continue,
                    },
                    AddressingStyle::SingleCommand => None,
                };
                let cand = q.bucket(r as u8, b).find(|(_, t)| {
                    self.is_demand(t, now) == demand && open.is_none_or(|row| t.loc.row == row)
                });
                if let Some((slot, t)) = cand {
                    if best.is_some_and(|(seq, _)| t.seq >= seq) {
                        continue;
                    }
                    let cmd = self.column_cmd(t, reads, auto_pre);
                    if self.channel.can_issue(&cmd, now) {
                        best = Some((t.seq, slot));
                    }
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Oldest transaction whose bank is idle and whose ACT is ready.
    fn find_activate(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let q = self.queue(reads);
        let mut best: Option<(u64, u32)> = None;
        for r in 0..self.channel.ranks().len() {
            if !q.rank_busy(r) || self.refresh_blocked(r as u8, now) {
                continue;
            }
            let mut mask = q.busy_banks(r);
            while mask != 0 {
                let b = mask.trailing_zeros() as u8;
                mask &= mask - 1;
                if let Some((seq, _)) = best {
                    if q.bucket_front(r as u8, b).is_none_or(|f| f.seq >= seq) {
                        continue;
                    }
                }
                if self.channel.bank_state(r as u8, b) != BankState::Idle {
                    continue;
                }
                let cand = q.bucket(r as u8, b).find(|(_, t)| self.is_demand(t, now) == demand);
                if let Some((slot, t)) = cand {
                    if best.is_some_and(|(seq, _)| t.seq >= seq) {
                        continue;
                    }
                    let cmd = Command::activate(t.loc.rank, t.loc.bank, t.loc.row);
                    if self.channel.can_issue(&cmd, now) {
                        best = Some((t.seq, slot));
                    }
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Oldest transaction blocked by a conflicting open row, where no older
    /// same-class transaction still wants that open row.
    ///
    /// Row-hit preservation: a bank whose bucket still holds *any* entry
    /// targeting the open row (regardless of demand class) yields no
    /// precharge candidate — this mirrors the old linear scan, where only
    /// the queue being scheduled may veto (a parked write must not block
    /// read-side precharges).
    fn find_conflict_precharge(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let q = self.queue(reads);
        let mut best: Option<(u64, u32)> = None;
        for r in 0..self.channel.ranks().len() {
            if !q.rank_busy(r) || self.refresh_blocked(r as u8, now) {
                continue;
            }
            let mut mask = q.busy_banks(r);
            while mask != 0 {
                let b = mask.trailing_zeros() as u8;
                mask &= mask - 1;
                if let Some((seq, _)) = best {
                    if q.bucket_front(r as u8, b).is_none_or(|f| f.seq >= seq) {
                        continue;
                    }
                }
                let open = match self.channel.bank_state(r as u8, b) {
                    BankState::Active { row } => row,
                    BankState::Idle => continue,
                };
                if q.bucket(r as u8, b).any(|(_, t)| t.loc.row == open) {
                    continue; // an entry still wants the open row
                }
                // All remaining entries conflict with the open row.
                let cand = q.bucket(r as u8, b).find(|(_, t)| self.is_demand(t, now) == demand);
                if let Some((slot, t)) = cand {
                    if best.is_some_and(|(seq, _)| t.seq >= seq) {
                        continue;
                    }
                    let cmd = Command::precharge(t.loc.rank, t.loc.bank);
                    if self.channel.can_issue(&cmd, now) {
                        best = Some((t.seq, slot));
                    }
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Reference implementation of [`Controller::find_column`]: the
    /// pre-index linear scan in global FCFS order. Kept as the oracle for
    /// the pick-equivalence property tests — the indexed finders must
    /// select exactly the transaction this scan selects.
    #[cfg(test)]
    fn find_column_linear(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let auto_pre = self.cfg.page_policy == PagePolicy::Closed;
        let q = self.queue(reads);
        for (slot, t) in q.ordered() {
            if self.refresh_blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                continue;
            }
            if self.cfg.addressing == AddressingStyle::RasCas {
                match self.channel.bank_state(t.loc.rank, t.loc.bank) {
                    BankState::Active { row } if row == t.loc.row => {}
                    _ => continue,
                }
            }
            let cmd = self.column_cmd(&t, reads, auto_pre);
            if self.channel.can_issue(&cmd, now) {
                return Some(slot);
            }
        }
        None
    }

    /// Reference implementation of [`Controller::find_activate`] (linear
    /// FCFS scan); see [`Controller::find_column_linear`].
    #[cfg(test)]
    fn find_activate_linear(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let q = self.queue(reads);
        for (slot, t) in q.ordered() {
            if self.refresh_blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                continue;
            }
            if self.channel.bank_state(t.loc.rank, t.loc.bank) != BankState::Idle {
                continue;
            }
            let cmd = Command::activate(t.loc.rank, t.loc.bank, t.loc.row);
            if self.channel.can_issue(&cmd, now) {
                return Some(slot);
            }
        }
        None
    }

    /// Reference implementation of [`Controller::find_conflict_precharge`]
    /// (linear FCFS scan); see [`Controller::find_column_linear`].
    #[cfg(test)]
    fn find_conflict_precharge_linear(&self, now: u64, reads: bool, demand: bool) -> Option<u32> {
        let q = self.queue(reads);
        for (slot, t) in q.ordered() {
            if self.refresh_blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                continue;
            }
            let open = match self.channel.bank_state(t.loc.rank, t.loc.bank) {
                BankState::Active { row } if row != t.loc.row => row,
                _ => continue,
            };
            // Same row-hit veto as the indexed finder: any same-queue entry
            // still targeting the open row protects it from precharge.
            let protected = q.ordered().iter().any(|(_, o)| {
                o.loc.rank == t.loc.rank && o.loc.bank == t.loc.bank && o.loc.row == open
            });
            if protected {
                continue;
            }
            let cmd = Command::precharge(t.loc.rank, t.loc.bank);
            if self.channel.can_issue(&cmd, now) {
                return Some(slot);
            }
        }
        None
    }

    fn column_cmd(&self, t: &Txn, reads: bool, auto_pre: bool) -> Command {
        if reads {
            Command::read(t.loc.rank, t.loc.bank, t.loc.row, auto_pre)
        } else {
            Command::write(t.loc.rank, t.loc.bank, t.loc.row, auto_pre)
        }
    }

    fn issue_column(&mut self, now: u64, reads: bool, slot: u32) {
        let auto_pre = self.cfg.page_policy == PagePolicy::Closed;
        let txn = if reads { self.read_q.remove(slot) } else { self.write_q.remove(slot) };
        let cmd = self.column_cmd(&txn, reads, auto_pre);
        let out = self.channel.issue(&cmd, now);
        if let Some(t) = self.trace.as_mut() {
            t.events.push(TraceEvent::McCas {
                token: txn.token,
                channel: t.channel,
                at: now * t.ratio,
                rank: txn.loc.rank,
                bank: txn.loc.bank,
                write: !reads,
            });
        }
        if !txn.classified {
            // A direct column command on an open-page device is a row hit;
            // on a close-page device every access pays the full activate.
            match self.cfg.page_policy {
                PagePolicy::Open => self.channel.stats_mut().row_hits += 1,
                PagePolicy::Closed => self.channel.stats_mut().row_misses += 1,
            }
        }
        if reads {
            let data_end = out.data_end.expect("read produces data");
            self.reads_done += 1;
            let queue = now.saturating_sub(txn.enqueue_mem);
            #[cfg(feature = "trace-long-waits")]
            if queue > 200 {
                eprintln!(
                    "LONGWAIT q={} pf={} rank={} bank={} row={} now={}",
                    queue, txn.prefetch, txn.loc.rank, txn.loc.bank, txn.loc.row, now
                );
            }
            let service = data_end - now;
            self.sum_queue_mem += queue;
            self.sum_service_mem += service;
            // Integer-ns bucketing keeps the histogram identical across
            // platforms (no float rounding in the hot path).
            self.read_lat_hist
                .record((queue + service) * u64::from(self.cfg.timings.t_ck_ps) / 1000);
            self.completions.push(ReadCompletion {
                token: txn.token,
                data_end_mem: data_end,
                queue_mem: queue,
                service_mem: service,
            });
            if let Some(t) = self.trace.as_mut() {
                t.events.push(TraceEvent::McDataEnd {
                    token: txn.token,
                    channel: t.channel,
                    at: data_end * t.ratio,
                    burst_cycles: (u64::from(self.cfg.timings.t_burst) * t.ratio) as u32,
                });
            }
        } else {
            self.writes_done += 1;
        }
    }

    fn issue_activate(&mut self, now: u64, reads: bool, slot: u32) {
        let (loc, classified, token) = {
            let t = self.queue(reads).get(slot);
            (t.loc, t.classified, t.token)
        };
        let cmd = Command::activate(loc.rank, loc.bank, loc.row);
        self.channel.issue(&cmd, now);
        if !classified {
            self.channel.stats_mut().row_misses += 1;
        }
        if let Some(t) = self.trace.as_mut() {
            t.events.push(TraceEvent::McActivate {
                token,
                channel: t.channel,
                at: now * t.ratio,
                rank: loc.rank,
                bank: loc.bank,
            });
        }
        if reads {
            self.read_q.get_mut(slot).classified = true;
        } else {
            self.write_q.get_mut(slot).classified = true;
        }
    }

    fn issue_precharge(&mut self, now: u64, reads: bool, slot: u32) {
        let (loc, classified, token) = {
            let t = self.queue(reads).get(slot);
            (t.loc, t.classified, t.token)
        };
        let cmd = Command::precharge(loc.rank, loc.bank);
        self.channel.issue(&cmd, now);
        if !classified {
            self.channel.stats_mut().row_conflicts += 1;
        }
        if let Some(t) = self.trace.as_mut() {
            t.events.push(TraceEvent::McPrecharge {
                token,
                channel: t.channel,
                at: now * t.ratio,
                rank: loc.rank,
                bank: loc.bank,
            });
        }
        if reads {
            self.read_q.get_mut(slot).classified = true;
        } else {
            self.write_q.get_mut(slot).classified = true;
        }
    }

    /// Earliest device cycle strictly after `now` at which [`tick_mem`]
    /// could do anything observable, or `None` when the controller is
    /// idle forever absent new transactions.
    ///
    /// The bound is derived directly from the channel's memoized
    /// ready-cycles: for every candidate command the scheduler could pick
    /// (per-bank column / activate / conflict-precharge, plus the refresh
    /// action for an overdue rank), fold in its `earliest_issue` bound.
    /// Autonomous power management contributes:
    ///
    /// - `now + 1` for a non-`Up` rank with queued work (the power
    ///   manager wakes it on the very next tick) and for a pending
    ///   write-drain hysteresis flip (the flip edge is traced);
    /// - `deadline - refresh_wake_ahead()`: a powered-down rank is woken
    ///   ahead of its refresh deadline;
    /// - `deadline` / the refresh action's ready cycle once overdue;
    /// - `last_activity + powerdown_idle_cycles` for an idle `Up` rank
    ///   (suppressed inside the refresh-due window, where
    ///   the power manager refuses to sleep), and
    ///   `last_activity + self_refresh_idle_cycles` for the PD→SR
    ///   escalation.
    ///
    /// Every candidate is clamped to `now + 1`. Waking *early* is always
    /// safe — `tick_mem` with nothing ready is a deterministic no-op —
    /// only waking late could diverge from the per-cycle kernel.
    ///
    /// The result is memoized per controller. Every candidate is an
    /// absolute cycle, so while the state is unchanged a query at any
    /// later `now` below the bound folds to the same value and returns
    /// the memo in O(1); every mutation clears it. The same proof lets
    /// [`tick_mem`] skip a tick strictly inside the window.
    ///
    /// [`tick_mem`]: Self::tick_mem
    #[must_use]
    pub fn next_activity_mem(&self, now: u64) -> Option<u64> {
        let memo = self.wake.get();
        if memo.at <= now && now < memo.bound {
            debug_assert_eq!(memo.bound, self.fold_next_activity(now).bound, "stale wake memo");
            return (memo.bound != u64::MAX).then_some(memo.bound);
        }
        let fresh = self.fold_next_activity(now);
        self.wake.set(fresh);
        (fresh.bound != u64::MAX).then_some(fresh.bound)
    }

    /// The fresh fold behind [`Self::next_activity_mem`], as a memo
    /// computed at `now`.
    fn fold_next_activity(&self, now: u64) -> WakeMemo {
        let t = &self.cfg.timings;
        let t_refi = u64::from(t.t_refi);
        // Every candidate below is clamped to `now + 1`, so the fold can
        // stop the moment it reaches that floor — nothing can beat it.
        // The window is then empty, so the idle bound is never adopted.
        let floor = WakeMemo { at: now, bound: now + 1, idle: 0 };
        if !self.completions.is_empty() {
            return floor;
        }
        let mut next = u64::MAX;
        for (r, rank) in self.channel.ranks().iter().enumerate() {
            let busy = self.read_q.rank_busy(r) || self.write_q.rank_busy(r);
            let state = rank.power_state();
            let wake_ahead = self.refresh_wake_ahead(r);
            if busy && state != PowerState::Up {
                next = next.min(now + 1);
            }
            // A self-refreshing rank has no external refresh obligation;
            // its cadence restarts on wake (which `busy` above covers).
            if t_refi != 0 && state != PowerState::SelfRefresh {
                let deadline = self.refresh_deadline[r];
                if now < deadline {
                    next = next.min(deadline.max(now + 1));
                    if state == PowerState::PowerDown {
                        next = next.min(deadline.saturating_sub(wake_ahead).max(now + 1));
                    }
                } else if state != PowerState::Up
                    || self.fault_drop_refreshes > 0
                    || self.fault_phantom_self_refresh > 0
                {
                    // Fault drop/phantom or a wake in flight: the next
                    // tick acts.
                    next = next.min(now + 1);
                } else {
                    next = next.min(self.refresh_action_bound(r, now).max(now + 1));
                }
            }
            if !busy && self.cfg.powerdown_idle_cycles > 0 {
                // Sleep candidates only fire outside the refresh-due
                // window; inside it manage_power neither sleeps nor wakes
                // an Up rank, and the deadline fold above covers the rest.
                match state {
                    PowerState::Up => {
                        let at = rank.last_activity + u64::from(self.cfg.powerdown_idle_cycles);
                        if t_refi == 0 || at.saturating_add(wake_ahead) < self.refresh_deadline[r] {
                            next = next.min(at.max(now + 1));
                        }
                    }
                    PowerState::PowerDown => {
                        if self.cfg.self_refresh_idle_cycles > 0 && rank.open_banks() == 0 {
                            let at =
                                rank.last_activity + u64::from(self.cfg.self_refresh_idle_cycles);
                            if t_refi == 0
                                || at.saturating_add(wake_ahead) < self.refresh_deadline[r]
                            {
                                next = next.min(at.max(now + 1));
                            }
                        }
                    }
                    PowerState::SelfRefresh => {}
                }
            }
            if next <= now + 1 {
                return floor;
            }
        }
        let idle = self.sched_bound(now);
        WakeMemo { at: now, bound: next.min(idle), idle }
    }

    /// Ready cycle of the refresh action an overdue `Up` rank would take:
    /// the REF itself (or the round-robin bank refresh), or the earliest
    /// precharge closing an open bank ahead of it.
    fn refresh_action_bound(&self, r: usize, now: u64) -> u64 {
        let r8 = r as u8;
        if self.cfg.refresh_per_bank {
            let bank = self.refresh_bank_rr[r];
            let cmd = Command::RefreshBank { rank: r8, bank };
            if let Some(at) = self.channel.earliest_issue(&cmd, now) {
                return at;
            }
            // REFB blocked structurally: the target bank holds an open row
            // (open-page devices only); the precharge closing it is next.
            return self
                .channel
                .earliest_issue(&Command::precharge(r8, bank), now)
                .unwrap_or(now + 1);
        }
        match self.cfg.addressing {
            AddressingStyle::SingleCommand => {
                let cmd = Command::RefreshBank { rank: r8, bank: self.refresh_bank_rr[r] };
                self.channel.earliest_issue(&cmd, now).unwrap_or(now + 1)
            }
            AddressingStyle::RasCas => {
                let mut open = self.channel.ranks()[r].open_mask();
                if open == 0 {
                    let cmd = Command::Refresh { rank: r8 };
                    return self.channel.earliest_issue(&cmd, now).unwrap_or(now + 1);
                }
                let mut best = u64::MAX;
                while open != 0 {
                    let bank = open.trailing_zeros() as u8;
                    open &= open - 1;
                    if let Some(at) =
                        self.channel.earliest_issue(&Command::precharge(r8, bank), now)
                    {
                        best = best.min(at);
                    }
                }
                if best == u64::MAX {
                    now + 1
                } else {
                    best
                }
            }
        }
    }

    /// Lower bound on the next cycle the transaction scheduler could issue
    /// any command, folded over every per-bank candidate the FR-FCFS passes
    /// consider. Demand-class boundaries are ignored (a superset of
    /// candidates only wakes the kernel early, never late).
    fn sched_bound(&self, now: u64) -> u64 {
        // A still-valid cached bound is exact: every folded candidate is an
        // absolute cycle, and invalidation resets the cache to 0.
        if now < self.sched_idle_until {
            return self.sched_idle_until;
        }
        if self.read_q.is_empty() && self.write_q.is_empty() {
            // Unreachable with `drain` still set (writes only leave by
            // issuing, which clears the cache), but keep the flip honest.
            return if self.drain { now + 1 } else { u64::MAX };
        }
        let mut next = u64::MAX;
        // A pending write-drain hysteresis flip is applied (and traced) on
        // the next command-slot tick.
        let wq = self.write_q.len();
        let drain_next = if wq >= self.params.wq_high {
            true
        } else if wq <= self.params.wq_low {
            false
        } else {
            self.drain
        };
        if drain_next != self.drain {
            return now + 1;
        }
        if self.params.policy == SchedPolicy::Fcfs {
            // The strict-FCFS ablation gains little from exact bounds;
            // tick every cycle while work is queued.
            return now + 1;
        }
        if drain_next {
            next = next.min(self.queue_sched_bound(now, false));
            if next <= now + 1 {
                return next.max(now + 1);
            }
            next = next.min(self.queue_sched_bound(now, true));
        } else if !self.read_q.is_empty() {
            next = next.min(self.queue_sched_bound(now, true));
        } else {
            next = next.min(self.queue_sched_bound(now, false));
        }
        next.max(now + 1)
    }

    /// Candidate fold for one queue: per non-empty bank bucket, the column
    /// bound (an entry targeting the open row, or any entry on a
    /// close-page device), the activate bound (bank idle), or the
    /// conflict-precharge bound (no entry wants the open row).
    fn queue_sched_bound(&self, now: u64, reads: bool) -> u64 {
        let q = self.queue(reads);
        if q.is_empty() {
            return u64::MAX;
        }
        let auto_pre = self.cfg.page_policy == PagePolicy::Closed;
        let mut next = u64::MAX;
        for r in 0..self.channel.ranks().len() {
            let r8 = r as u8;
            if !q.rank_busy(r) || self.refresh_blocked(r8, now) {
                continue;
            }
            // A non-Up busy rank is woken next tick (folded by the caller
            // via the busy rule); its commands stay illegal until then.
            let mut mask = q.busy_banks(r);
            while mask != 0 {
                if next <= now + 1 {
                    // Clamped to `now + 1` by the caller — already minimal.
                    return next;
                }
                let b = mask.trailing_zeros() as u8;
                mask &= mask - 1;
                match self.cfg.addressing {
                    AddressingStyle::SingleCommand => {
                        let t = q.bucket_front(r8, b).expect("checked non-empty");
                        let cmd = self.column_cmd(t, reads, auto_pre);
                        if let Some(at) = self.channel.earliest_issue(&cmd, now) {
                            next = next.min(at);
                        }
                    }
                    AddressingStyle::RasCas => match self.channel.bank_state(r8, b) {
                        BankState::Active { row: open } => {
                            // The bucket is non-empty, so "no entry wants the
                            // open row" already implies a conflict; stop at
                            // the first open-row hit.
                            let wants_open = q.bucket(r8, b).any(|(_, t)| t.loc.row == open);
                            if wants_open {
                                let cmd = if reads {
                                    Command::read(r8, b, open, auto_pre)
                                } else {
                                    Command::write(r8, b, open, auto_pre)
                                };
                                if let Some(at) = self.channel.earliest_issue(&cmd, now) {
                                    next = next.min(at);
                                }
                            } else {
                                let cmd = Command::precharge(r8, b);
                                if let Some(at) = self.channel.earliest_issue(&cmd, now) {
                                    next = next.min(at);
                                }
                            }
                        }
                        BankState::Idle => {
                            let t = q.bucket_front(r8, b).expect("checked non-empty");
                            let cmd = Command::activate(r8, b, t.loc.row);
                            if let Some(at) = self.channel.earliest_issue(&cmd, now) {
                                next = next.min(at);
                            }
                        }
                    },
                }
            }
        }
        next
    }

    /// Snapshot statistics, settling residency up to `now` device cycles.
    pub fn stats(&mut self, now: u64) -> ControllerStats {
        self.forget_wake();
        let ns_per_cycle = f64::from(self.cfg.timings.t_ck_ps) / 1000.0;
        ControllerStats {
            kind: self.cfg.kind,
            label: self.label.clone(),
            chips_per_access: self.chips_per_access,
            mem_cycles: now.max(self.mem_cycles),
            t_ck_ps: self.cfg.timings.t_ck_ps,
            channel: *self.channel.stats(),
            residency: self.channel.residency(now.max(self.mem_cycles)),
            ranks: self.channel.ranks().len() as u32,
            reads_done: self.reads_done,
            writes_done: self.writes_done,
            sum_queue_ns: self.sum_queue_mem as f64 * ns_per_cycle,
            sum_service_ns: self.sum_service_mem as f64 * ns_per_cycle,
            read_lat_hist: self.read_lat_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::DeviceConfig;

    fn ddr3_ctrl() -> Controller {
        Controller::new(DeviceConfig::ddr3_1600(), 1, 9, "test")
    }

    fn run_until_done(ctrl: &mut Controller, max: u64) -> Vec<ReadCompletion> {
        let mut done = Vec::new();
        for now in 0..max {
            ctrl.tick_mem(now, true);
            done.extend(ctrl.take_completions());
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut c = ddr3_ctrl();
        let loc = Loc { rank: 0, bank: 0, row: 10, col: 0 };
        assert!(c.enqueue_read(Token(1), loc, false, 0));
        let done = run_until_done(&mut c, 200);
        assert_eq!(done.len(), 1);
        let t = DeviceConfig::ddr3_1600().timings;
        // ACT at 0, READ at tRCD, data end at tRCD + tRL + tBURST.
        assert_eq!(done[0].data_end_mem, u64::from(t.t_rcd + t.t_rl + t.t_burst));
        assert_eq!(done[0].token, Token(1));
    }

    #[test]
    fn row_hits_are_scheduled_first() {
        let mut c = ddr3_ctrl();
        // Two to the same row (different cols), one conflicting row, FCFS
        // order: conflict arrives between the two hits.
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 10, col: 0 }, false, 0));
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 0, row: 99, col: 0 }, false, 0));
        assert!(c.enqueue_read(Token(3), Loc { rank: 0, bank: 0, row: 10, col: 4 }, false, 0));
        let done = run_until_done(&mut c, 400);
        assert_eq!(done.len(), 3);
        let order: Vec<Token> = done.iter().map(|d| d.token).collect();
        // FR-FCFS reorders token 3 (row hit) ahead of token 2 (conflict).
        assert_eq!(order, vec![Token(1), Token(3), Token(2)]);
        let stats = c.stats(400);
        assert_eq!(stats.channel.row_hits, 1);
        assert_eq!(stats.channel.row_conflicts, 1);
        assert_eq!(stats.channel.row_misses, 1);
    }

    #[test]
    fn demand_outranks_fresh_prefetch() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 1, col: 0 }, true, 0));
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 1, row: 1, col: 0 }, false, 0));
        let done = run_until_done(&mut c, 300);
        assert_eq!(done[0].token, Token(2), "demand first despite FCFS order");
    }

    #[test]
    fn old_prefetch_is_promoted() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 1, col: 0 }, true, 0));
        // Age the prefetch past the promotion threshold with idle ticks...
        let mut now = 0;
        while now < 401 {
            // hold scheduling back by denying the command slot
            c.tick_mem(now, false);
            now += 1;
        }
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 1, row: 1, col: 0 }, false, now));
        let mut done = Vec::new();
        for t in now..now + 300 {
            c.tick_mem(t, true);
            done.extend(c.take_completions());
        }
        assert_eq!(done[0].token, Token(1), "aged prefetch keeps FCFS order");
    }

    #[test]
    fn write_drain_hysteresis() {
        let mut c = ddr3_ctrl();
        // Fill write queue to the high watermark.
        for i in 0..32u32 {
            assert!(c.enqueue_write(Loc { rank: 0, bank: (i % 8) as u8, row: i, col: 0 }, 0));
        }
        assert!(c.enqueue_read(Token(9), Loc { rank: 0, bank: 0, row: 500, col: 0 }, false, 0));
        // Drain mode must service writes below the low watermark before the
        // read goes out.
        let mut read_done_at = None;
        for now in 0..5_000 {
            c.tick_mem(now, true);
            for d in c.take_completions() {
                read_done_at = Some((now, d));
            }
            if read_done_at.is_some() {
                break;
            }
        }
        let (_, _d) = read_done_at.expect("read eventually completes");
        assert!(c.write_q_len() <= 16, "drain ran to the low watermark");
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut c = ddr3_ctrl();
        for now in 0..20_000 {
            c.tick_mem(now, true);
        }
        let s = c.stats(20_000);
        // 20000 cycles / tREFI(6240) ≈ 3 refreshes.
        assert!(s.channel.refreshes >= 2, "got {}", s.channel.refreshes);
    }

    #[test]
    fn rldram_reads_have_no_act() {
        let mut c = Controller::new(DeviceConfig::rldram3(), 1, 1, "rld");
        for i in 0..4u32 {
            assert!(c.enqueue_read(
                Token(u64::from(i)),
                Loc { rank: 0, bank: i as u8, row: i, col: 0 },
                false,
                0
            ));
        }
        let done = run_until_done(&mut c, 200);
        assert_eq!(done.len(), 4);
        let t = DeviceConfig::rldram3().timings;
        // First read issues at 0: data end at tRL + tBURST = 12; subsequent
        // ones pipeline on the data bus every tBURST cycles.
        assert_eq!(done[0].data_end_mem, u64::from(t.t_rl + t.t_burst));
        assert_eq!(done[1].data_end_mem - done[0].data_end_mem, u64::from(t.t_burst));
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut c = ddr3_ctrl();
        for i in 0..48u64 {
            assert!(c.enqueue_read(
                Token(i),
                Loc { rank: 0, bank: 0, row: 1, col: i as u32 },
                false,
                0
            ));
        }
        assert!(!c.read_space());
        assert!(!c.enqueue_read(Token(99), Loc { rank: 0, bank: 0, row: 1, col: 0 }, false, 0));
    }

    #[test]
    fn idle_rank_powers_down_and_recovers() {
        let mut c = Controller::new(DeviceConfig::lpddr2_800(), 1, 8, "lp");
        for now in 0..100 {
            c.tick_mem(now, true);
        }
        let s = c.stats(100);
        assert!(s.residency.precharge_powerdown > 0, "rank slept while idle");
        // A late read still completes correctly after wake + tXP.
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 3, col: 1 }, false, 100));
        let mut done = Vec::new();
        for now in 100..400 {
            c.tick_mem(now, true);
            done.extend(c.take_completions());
        }
        assert_eq!(done.len(), 1);
    }

    mod pick_equivalence {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        struct Item {
            rank: u8,
            bank: u8,
            row: u32,
            col: u32,
            write: bool,
            prefetch: bool,
            gap: u8,
        }

        /// Few rows and banks so buckets collect row hits, row conflicts
        /// and multi-entry FCFS chains instead of degenerating to one
        /// transaction per bank.
        fn item(ranks: u8, banks: u8) -> impl Strategy<Value = Item> {
            (0..ranks, 0..banks, 0u32..5, 0u32..64, prop::bool::ANY, prop::bool::ANY, 0u8..20)
                .prop_map(|(rank, bank, row, col, write, prefetch, gap)| Item {
                    rank,
                    bank,
                    row,
                    col,
                    write,
                    prefetch,
                    gap,
                })
        }

        /// At every cycle of a randomized run, the indexed finders must
        /// pick exactly the slot the retired linear scan picks, across
        /// both queues, both demand classes, and all three passes.
        fn assert_picks_match(cfg: DeviceConfig, ranks: u32, items: &[Item]) {
            let mut c = Controller::new(cfg, ranks, 8, "pick-eq");
            let mut now = 0u64;
            let mut tok = 0u64;
            let probe = |c: &Controller, now: u64| {
                for reads in [true, false] {
                    for demand in [true, false] {
                        assert_eq!(
                            c.find_column(now, reads, demand),
                            c.find_column_linear(now, reads, demand),
                            "column pick diverged at {now} (reads={reads}, demand={demand})"
                        );
                        assert_eq!(
                            c.find_activate(now, reads, demand),
                            c.find_activate_linear(now, reads, demand),
                            "activate pick diverged at {now} (reads={reads}, demand={demand})"
                        );
                        assert_eq!(
                            c.find_conflict_precharge(now, reads, demand),
                            c.find_conflict_precharge_linear(now, reads, demand),
                            "precharge pick diverged at {now} (reads={reads}, demand={demand})"
                        );
                    }
                }
            };
            for it in items {
                for _ in 0..it.gap {
                    probe(&c, now);
                    c.tick_mem(now, true);
                    now += 1;
                }
                let loc = Loc { rank: it.rank, bank: it.bank, row: it.row, col: it.col };
                if it.write {
                    let _ = c.enqueue_write(loc, now);
                } else if c.enqueue_read(Token(tok), loc, it.prefetch, now) {
                    tok += 1;
                }
            }
            // Drain across a refresh boundary so refresh_blocked ranks and
            // re-opened banks are probed too.
            for _ in 0..7_000 {
                probe(&c, now);
                c.tick_mem(now, true);
                c.take_completions();
                now += 1;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn indexed_frfcfs_matches_linear_scan_ddr3(
                items in prop::collection::vec(item(2, 8), 1..48)
            ) {
                assert_picks_match(DeviceConfig::ddr3_1600(), 2, &items);
            }

            #[test]
            fn indexed_frfcfs_matches_linear_scan_rldram3(
                items in prop::collection::vec(item(1, 16), 1..48)
            ) {
                assert_picks_match(DeviceConfig::rldram3(), 1, &items);
            }
        }
    }

    mod memo_equivalence {
        use super::*;
        use crate::aggregate::AggregatedController;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        struct Item {
            sub: usize,
            rank: u8,
            bank: u8,
            row: u32,
            write: bool,
            prefetch: bool,
            gap: u16,
        }

        /// Bursts separated by idle gaps long enough for ranks to power
        /// down and escalate to self-refresh between them.
        fn item(subs: usize, ranks: u8, banks: u8) -> impl Strategy<Value = Item> {
            // One gap in five is long (up to ~800 cycles).
            let gap = (0u16..12, 0u8..5).prop_map(|(g, r)| if r == 0 { g * 70 } else { g });
            (0..subs, 0..ranks, 0..banks, 0u32..4, prop::bool::ANY, prop::bool::ANY, gap).prop_map(
                |(sub, rank, bank, row, write, prefetch, gap)| Item {
                    sub,
                    rank,
                    bank,
                    row,
                    write,
                    prefetch,
                    gap,
                },
            )
        }

        /// Power management on, with short thresholds so it fires often.
        fn with_power(mut cfg: DeviceConfig) -> DeviceConfig {
            cfg.powerdown_idle_cycles = 16;
            cfg.self_refresh_idle_cycles = 400;
            cfg
        }

        /// A controller front the test drives: a bare [`Controller`] or an
        /// [`AggregatedController`] with its shared command bus.
        trait Driven {
            fn enable_log(&mut self);
            fn enqueue(&mut self, it: &Item, token: Token, now: u64) -> bool;
            fn tick(&mut self, now: u64);
            /// The memoized bound.
            fn bound(&self, now: u64) -> Option<u64>;
            /// A fresh fold, bypassing every memo.
            fn fresh(&self, now: u64) -> Option<u64>;
            fn drain(&mut self, out: &mut Vec<(usize, Token, u64)>);
            /// Each controller's scheduler idle bound.
            fn idle(&self) -> Vec<u64>;
            /// Stats, command and power logs, and shared-bus conflicts.
            fn finish(&mut self, now: u64) -> (String, String, u64);
        }

        fn fresh_bound(c: &Controller, now: u64) -> Option<u64> {
            let b = c.fold_next_activity(now).bound;
            (b != u64::MAX).then_some(b)
        }

        impl Driven for Controller {
            fn enable_log(&mut self) {
                self.enable_command_log();
            }
            fn enqueue(&mut self, it: &Item, token: Token, now: u64) -> bool {
                let loc = Loc { rank: it.rank, bank: it.bank, row: it.row, col: 0 };
                if it.write {
                    self.enqueue_write(loc, now)
                } else {
                    self.enqueue_read(token, loc, it.prefetch, now)
                }
            }
            fn tick(&mut self, now: u64) {
                self.tick_mem(now, true);
            }
            fn bound(&self, now: u64) -> Option<u64> {
                self.next_activity_mem(now)
            }
            fn fresh(&self, now: u64) -> Option<u64> {
                fresh_bound(self, now)
            }
            fn drain(&mut self, out: &mut Vec<(usize, Token, u64)>) {
                out.extend(self.take_completions().iter().map(|c| (0, c.token, c.data_end_mem)));
            }
            fn idle(&self) -> Vec<u64> {
                vec![self.sched_idle_until]
            }
            fn finish(&mut self, now: u64) -> (String, String, u64) {
                let logs = (self.take_command_log(), self.take_power_log());
                (format!("{:?}", self.stats(now)), format!("{logs:?}"), 0)
            }
        }

        impl Driven for AggregatedController {
            fn enable_log(&mut self) {
                self.enable_command_log();
            }
            fn enqueue(&mut self, it: &Item, token: Token, now: u64) -> bool {
                let loc = Loc { rank: it.rank, bank: it.bank, row: it.row, col: 0 };
                if it.write {
                    self.enqueue_write(it.sub, loc, now)
                } else {
                    self.enqueue_read(it.sub, token, loc, it.prefetch, now)
                }
            }
            fn tick(&mut self, now: u64) {
                self.tick_mem(now);
            }
            fn bound(&self, now: u64) -> Option<u64> {
                self.next_activity_mem(now)
            }
            fn fresh(&self, now: u64) -> Option<u64> {
                self.subs().iter().filter_map(|s| fresh_bound(s, now)).min()
            }
            fn drain(&mut self, out: &mut Vec<(usize, Token, u64)>) {
                out.extend(
                    self.take_completions().iter().map(|(s, c)| (*s, c.token, c.data_end_mem)),
                );
            }
            fn idle(&self) -> Vec<u64> {
                self.subs().iter().map(|s| s.sched_idle_until).collect()
            }
            fn finish(&mut self, now: u64) -> (String, String, u64) {
                let logs = (self.take_command_logs(), self.take_power_logs());
                (format!("{:?}", self.stats(now)), format!("{logs:?}"), self.cmd_bus_conflicts)
            }
        }

        /// How a run advances device time.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Mode {
            /// Tick every cycle and never query: no memo is ever built.
            EveryCycle,
            /// Tick every cycle and query before and after each tick and
            /// after the enqueue, so ticks inside a memoized window take
            /// the skip path and every query order is checked.
            EveryCycleQueried,
            /// Tick only once the memoized bound is due (the event kernel).
            WhenDue,
        }

        /// Completions, the final stats/logs, and the idle bounds after
        /// every cycle.
        type Outcome = (Vec<(usize, Token, u64)>, (String, String, u64), Vec<Vec<u64>>);

        /// The memoized bound, checked against a fresh fold.
        fn checked_bound<D: Driven>(d: &D, now: u64) -> u64 {
            let bound = d.bound(now);
            assert_eq!(bound, d.fresh(now), "memoized bound diverged at {now}");
            bound.unwrap_or(u64::MAX)
        }

        fn drive<D: Driven>(mut d: D, items: &[Item], mode: Mode) -> Outcome {
            d.enable_log();
            let mut done = Vec::new();
            let mut idles = Vec::new();
            let mut wake = 0u64;
            let mut tok = 0u64;
            let mut now = 0u64;
            let extra = mode == Mode::EveryCycleQueried;
            let mut step = |d: &mut D, now: u64, item: Option<&Item>, wake: &mut u64| {
                if extra {
                    checked_bound(d, now);
                }
                if mode != Mode::WhenDue || now >= *wake {
                    d.tick(now);
                    if extra {
                        checked_bound(d, now);
                    }
                    d.drain(&mut done);
                }
                if let Some(it) = item {
                    if d.enqueue(it, Token(tok), now) && !it.write {
                        tok += 1;
                    }
                }
                if mode != Mode::EveryCycle {
                    *wake = checked_bound(d, now);
                }
                idles.push(d.idle());
            };
            for it in items {
                for _ in 0..it.gap {
                    step(&mut d, now, None, &mut wake);
                    now += 1;
                }
                step(&mut d, now, Some(it), &mut wake);
                now += 1;
            }
            // Drain across a refresh interval.
            for _ in 0..8_000 {
                step(&mut d, now, None, &mut wake);
                now += 1;
            }
            (done, d.finish(now), idles)
        }

        fn assert_modes_agree<D: Driven>(build: impl Fn() -> D, items: &[Item]) {
            let reference = drive(build(), items, Mode::EveryCycle);
            assert!(!reference.0.is_empty() || items.iter().all(|i| i.write));
            // The final drain idles every rank into power-down.
            assert!(reference.1 .1.contains("PowerDown"), "power management never fired");
            for mode in [Mode::EveryCycleQueried, Mode::WhenDue] {
                let got = drive(build(), items, mode);
                assert_eq!(got.0, reference.0, "{mode:?}: completions diverged");
                assert_eq!(got.1, reference.1, "{mode:?}: stats or logs diverged");
                if mode == Mode::EveryCycleQueried {
                    // A skipped tick leaves the state a full tick would.
                    assert!(got.2 == reference.2, "{mode:?}: idle bounds diverged");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn memoized_wake_matches_every_cycle_ddr3(
                items in prop::collection::vec(item(1, 2, 8), 1..64)
            ) {
                let cfg = with_power(DeviceConfig::ddr3_1600());
                assert_modes_agree(|| Controller::new(cfg.clone(), 2, 9, "memo"), &items);
            }

            #[test]
            fn memoized_wake_matches_every_cycle_lpddr2(
                items in prop::collection::vec(item(1, 1, 8), 1..64)
            ) {
                let cfg = with_power(DeviceConfig::lpddr2_800());
                assert_modes_agree(|| Controller::new(cfg.clone(), 1, 8, "memo"), &items);
            }

            #[test]
            fn memoized_wake_matches_every_cycle_aggregated_rldram3(
                items in prop::collection::vec(item(4, 1, 16), 1..96)
            ) {
                let cfg = with_power(DeviceConfig::rldram3());
                let build = || AggregatedController::new(&cfg, 4, 1, 1, "memo", CtrlParams::default());
                assert_modes_agree(build, &items);
            }
        }
    }

    #[test]
    fn stats_latency_units_are_ns() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 10, col: 0 }, false, 0));
        run_until_done(&mut c, 200);
        let s = c.stats(200);
        let t = DeviceConfig::ddr3_1600().timings;
        let expect_service_ns = f64::from(t.t_rl + t.t_burst) * 1.25;
        assert!((s.sum_service_ns - expect_service_ns).abs() < 1e-9);
    }
}

cwf_ckpt::ckpt_struct!(ReadCompletion { token, data_end_mem, queue_mem, service_mem });

cwf_ckpt::ckpt_struct!(ControllerStats {
    kind,
    label,
    chips_per_access,
    mem_cycles,
    t_ck_ps,
    channel,
    residency,
    ranks,
    reads_done,
    writes_done,
    sum_queue_ns,
    sum_service_ns,
    read_lat_hist,
});

impl Controller {
    /// Serialize the controller's mutable state: channel, transaction
    /// queues, scheduler bookkeeping, refresh deadlines, pending
    /// completions and statistics. Config (`DeviceConfig`, `CtrlParams`,
    /// label) is rebuilt on restore. The trace sink itself is configured
    /// (re-armed by [`Controller::enable_trace`] on restore) and carries
    /// no state once drained, so tracing doesn't block a checkpoint — but
    /// the caller must have collected the buffered events first.
    ///
    /// # Errors
    ///
    /// Fails when the trace sink holds undrained events (they would be
    /// silently lost).
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let Controller {
            cfg: _,
            params: _,
            label: _,
            chips_per_access: _,
            channel,
            read_q,
            write_q,
            drain,
            sched_idle_until,
            wake: _,
            refresh_deadline,
            refresh_bank_rr,
            completions,
            mem_cycles,
            reads_done,
            writes_done,
            sum_queue_mem,
            sum_service_mem,
            read_lat_hist,
            next_token,
            fault_drop_refreshes,
            fault_phantom_self_refresh,
            trace,
        } = self;
        if trace.as_ref().is_some_and(|t| !t.events.is_empty()) {
            return Err(cwf_ckpt::CkptError::new(
                "cannot checkpoint a controller with undrained trace events",
            ));
        }
        w.section(b"CTRL");
        channel.save_state(w);
        cwf_ckpt::Ckpt::save(read_q, w);
        cwf_ckpt::Ckpt::save(write_q, w);
        cwf_ckpt::Ckpt::save(drain, w);
        cwf_ckpt::Ckpt::save(sched_idle_until, w);
        cwf_ckpt::Ckpt::save(refresh_deadline, w);
        cwf_ckpt::Ckpt::save(refresh_bank_rr, w);
        cwf_ckpt::Ckpt::save(completions, w);
        cwf_ckpt::Ckpt::save(mem_cycles, w);
        cwf_ckpt::Ckpt::save(reads_done, w);
        cwf_ckpt::Ckpt::save(writes_done, w);
        cwf_ckpt::Ckpt::save(sum_queue_mem, w);
        cwf_ckpt::Ckpt::save(sum_service_mem, w);
        cwf_ckpt::Ckpt::save(read_lat_hist, w);
        cwf_ckpt::Ckpt::save(next_token, w);
        cwf_ckpt::Ckpt::save(fault_drop_refreshes, w);
        cwf_ckpt::Ckpt::save(fault_phantom_self_refresh, w);
        Ok(())
    }

    /// Restore state saved by [`Controller::save_state`] into a freshly
    /// constructed controller for the same device config and params.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a refresh-deadline count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"CTRL")?;
        self.forget_wake();
        self.channel.load_state(r)?;
        self.read_q = cwf_ckpt::Ckpt::load(r)?;
        self.write_q = cwf_ckpt::Ckpt::load(r)?;
        self.drain = cwf_ckpt::Ckpt::load(r)?;
        self.sched_idle_until = cwf_ckpt::Ckpt::load(r)?;
        let refresh_deadline: Vec<u64> = cwf_ckpt::Ckpt::load(r)?;
        if refresh_deadline.len() != self.refresh_deadline.len() {
            return Err(cwf_ckpt::CkptError::new("refresh-deadline count mismatch"));
        }
        self.refresh_deadline = refresh_deadline;
        self.refresh_bank_rr = cwf_ckpt::Ckpt::load(r)?;
        self.completions = cwf_ckpt::Ckpt::load(r)?;
        self.mem_cycles = cwf_ckpt::Ckpt::load(r)?;
        self.reads_done = cwf_ckpt::Ckpt::load(r)?;
        self.writes_done = cwf_ckpt::Ckpt::load(r)?;
        self.sum_queue_mem = cwf_ckpt::Ckpt::load(r)?;
        self.sum_service_mem = cwf_ckpt::Ckpt::load(r)?;
        self.read_lat_hist = cwf_ckpt::Ckpt::load(r)?;
        self.next_token = cwf_ckpt::Ckpt::load(r)?;
        self.fault_drop_refreshes = cwf_ckpt::Ckpt::load(r)?;
        self.fault_phantom_self_refresh = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
