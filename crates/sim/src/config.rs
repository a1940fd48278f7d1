//! Run configurations: memory system kinds and simulation knobs.

use cwf_core::{
    CwfConfig, CwfStats, DramCacheConfig, DramCacheMemory, DramCacheStats, HeteroCwfMemory,
    PagePlacedMemory, PlacementPolicy, ProfilingMemory,
};
use dram_timing::DeviceKind;
use mem_ctrl::{
    HomogeneousMemory, LineRequest, MainMemory, MemBusy, MemEvent, MemSystemStats, Token,
};

/// A concrete memory backend (static dispatch over the paper's designs).
///
/// One value exists per `System`, so the size spread between variants
/// (the page-placement comparator carries per-page heat tables) is not
/// worth a heap indirection on every memory call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum MemBackend {
    /// N identical channels of one device type.
    Homogeneous(HomogeneousMemory),
    /// The split-line CWF heterogeneous design.
    Cwf(HeteroCwfMemory),
    /// The §7.1 page-placement comparator.
    PagePlaced(PagePlacedMemory),
    /// A profiling pass over the baseline (collects page heat).
    Profiling(ProfilingMemory<HomogeneousMemory>),
    /// The DRAM-cache hybrid: fast channels as a tags-in-DRAM line cache
    /// in front of a slow NVM-like store (DESIGN.md §17).
    DramCache(DramCacheMemory),
}

impl MemBackend {
    /// CWF statistics if this backend is a CWF organization.
    #[must_use]
    pub fn cwf_stats(&self) -> Option<CwfStats> {
        match self {
            MemBackend::Cwf(m) => Some(*m.cwf_stats()),
            _ => None,
        }
    }

    /// Reads served by the fast channel for page-placed memory.
    #[must_use]
    pub fn page_placed(&self) -> Option<&PagePlacedMemory> {
        match self {
            MemBackend::PagePlaced(m) => Some(m),
            _ => None,
        }
    }

    /// The profiler, if this is a profiling pass.
    #[must_use]
    pub fn profiling(&self) -> Option<&ProfilingMemory<HomogeneousMemory>> {
        match self {
            MemBackend::Profiling(m) => Some(m),
            _ => None,
        }
    }

    /// DRAM-cache statistics if this backend is a DRAM-cache hybrid.
    #[must_use]
    pub fn dramcache_stats(&self) -> Option<DramCacheStats> {
        match self {
            MemBackend::DramCache(m) => Some(*m.dramcache_stats()),
            _ => None,
        }
    }

    /// The DRAM-cache backend, if that is what this is (seeded-fault
    /// tests reach through this to the injection hooks).
    pub fn dramcache_mut(&mut self) -> Option<&mut DramCacheMemory> {
        match self {
            MemBackend::DramCache(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize the backend's mutable state (checkpointing). A one-byte
    /// variant tag guards against resuming into a different organization;
    /// the variant itself is rebuilt from the run config, never decoded.
    ///
    /// # Errors
    ///
    /// Fails when the concrete backend cannot be checkpointed (e.g. a
    /// controller trace sink is attached).
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        match self {
            MemBackend::Homogeneous(m) => {
                w.put_u8(0);
                m.save_state(w)
            }
            MemBackend::Cwf(m) => {
                w.put_u8(1);
                m.save_state(w)
            }
            MemBackend::PagePlaced(m) => {
                w.put_u8(2);
                m.save_state(w)
            }
            MemBackend::Profiling(m) => {
                w.put_u8(3);
                m.save_state(w, |inner, w| inner.save_state(w))
            }
            MemBackend::DramCache(m) => {
                w.put_u8(4);
                m.save_state(w)
            }
        }
    }

    /// Restore state saved by [`MemBackend::save_state`] into a backend
    /// freshly built from the same run config.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or when the checkpoint was taken on a
    /// different backend variant.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        let tag = r.get_u8()?;
        match (tag, self) {
            (0, MemBackend::Homogeneous(m)) => m.load_state(r),
            (1, MemBackend::Cwf(m)) => m.load_state(r),
            (2, MemBackend::PagePlaced(m)) => m.load_state(r),
            (3, MemBackend::Profiling(m)) => m.load_state(r, |inner, r| inner.load_state(r)),
            (4, MemBackend::DramCache(m)) => m.load_state(r),
            (tag, _) => Err(cwf_ckpt::CkptError::new(format!(
                "backend variant mismatch: checkpoint has tag {tag}"
            ))),
        }
    }

    /// Replay a warmed dirty eviction into the adaptive placement state
    /// (no-op for backends without one).
    pub fn seed_adaptive_tag(&mut self, line: u64, predicted_critical: u8) {
        if let MemBackend::Cwf(m) = self {
            m.seed_adaptive_tag(line, predicted_critical);
        }
    }

    /// Install the adaptive placement's steady-state layout function.
    pub fn set_steady_state_placement(&mut self, f: Box<dyn Fn(u64) -> Option<u8> + Send>) {
        if let MemBackend::Cwf(m) = self {
            m.set_steady_state_placement(f);
        }
    }
}

impl MainMemory for MemBackend {
    fn try_submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        match self {
            MemBackend::Homogeneous(m) => m.try_submit(req, now),
            MemBackend::Cwf(m) => m.try_submit(req, now),
            MemBackend::PagePlaced(m) => m.try_submit(req, now),
            MemBackend::Profiling(m) => m.try_submit(req, now),
            MemBackend::DramCache(m) => m.try_submit(req, now),
        }
    }

    fn tick(&mut self, now: u64) {
        match self {
            MemBackend::Homogeneous(m) => m.tick(now),
            MemBackend::Cwf(m) => m.tick(now),
            MemBackend::PagePlaced(m) => m.tick(now),
            MemBackend::Profiling(m) => m.tick(now),
            MemBackend::DramCache(m) => m.tick(now),
        }
    }

    fn drain_events(&mut self, now: u64, out: &mut Vec<MemEvent>) {
        match self {
            MemBackend::Homogeneous(m) => m.drain_events(now, out),
            MemBackend::Cwf(m) => m.drain_events(now, out),
            MemBackend::PagePlaced(m) => m.drain_events(now, out),
            MemBackend::Profiling(m) => m.drain_events(now, out),
            MemBackend::DramCache(m) => m.drain_events(now, out),
        }
    }

    fn stats(&mut self, now: u64) -> MemSystemStats {
        match self {
            MemBackend::Homogeneous(m) => m.stats(now),
            MemBackend::Cwf(m) => m.stats(now),
            MemBackend::PagePlaced(m) => m.stats(now),
            MemBackend::Profiling(m) => m.stats(now),
            MemBackend::DramCache(m) => m.stats(now),
        }
    }

    fn next_activity(&self, now: u64) -> Option<u64> {
        match self {
            MemBackend::Homogeneous(m) => m.next_activity(now),
            MemBackend::Cwf(m) => m.next_activity(now),
            MemBackend::PagePlaced(m) => m.next_activity(now),
            MemBackend::Profiling(m) => m.next_activity(now),
            MemBackend::DramCache(m) => m.next_activity(now),
        }
    }

    // Audit hooks for the verify oracle. The page-placed and profiling
    // comparators fall back to the trait's no-op defaults: their channels
    // are the same audited controller types, but they are diagnostic
    // backends outside the oracle's clean-run matrix.
    fn enable_audit(&mut self) {
        match self {
            MemBackend::Homogeneous(m) => m.enable_audit(),
            MemBackend::Cwf(m) => m.enable_audit(),
            MemBackend::DramCache(m) => m.enable_audit(),
            MemBackend::PagePlaced(_) | MemBackend::Profiling(_) => {}
        }
    }

    fn audit_channels(&self) -> Vec<mem_ctrl::ChannelDesc> {
        match self {
            MemBackend::Homogeneous(m) => m.audit_channels(),
            MemBackend::Cwf(m) => m.audit_channels(),
            MemBackend::DramCache(m) => m.audit_channels(),
            MemBackend::PagePlaced(_) | MemBackend::Profiling(_) => Vec::new(),
        }
    }

    fn drain_audit(&mut self, out: &mut Vec<mem_ctrl::AuditRecord>) {
        match self {
            MemBackend::Homogeneous(m) => m.drain_audit(out),
            MemBackend::Cwf(m) => m.drain_audit(out),
            MemBackend::DramCache(m) => m.drain_audit(out),
            MemBackend::PagePlaced(_) | MemBackend::Profiling(_) => {}
        }
    }

    fn enable_trace(&mut self) {
        match self {
            MemBackend::Homogeneous(m) => m.enable_trace(),
            MemBackend::Cwf(m) => m.enable_trace(),
            MemBackend::PagePlaced(m) => m.enable_trace(),
            MemBackend::Profiling(m) => m.enable_trace(),
            MemBackend::DramCache(m) => m.enable_trace(),
        }
    }

    fn drain_trace(&mut self, out: &mut Vec<cwf_tracelog::TraceEvent>) {
        match self {
            MemBackend::Homogeneous(m) => m.drain_trace(out),
            MemBackend::Cwf(m) => m.drain_trace(out),
            MemBackend::PagePlaced(m) => m.drain_trace(out),
            MemBackend::Profiling(m) => m.drain_trace(out),
            MemBackend::DramCache(m) => m.drain_trace(out),
        }
    }
}

/// Every memory organization evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemKind {
    /// Baseline: 4 × 72-bit DDR3-1600 channels (Table 1).
    Ddr3,
    /// Homogeneous LPDDR2 (Figure 1).
    Lpddr2,
    /// Homogeneous RLDRAM3 (Figure 1).
    Rldram3,
    /// CWF: RLDRAM3 critical store + DDR3 bulk (Figure 6, "RD").
    Rd,
    /// CWF: RLDRAM3 critical store + LPDDR2 bulk — the flagship ("RL").
    Rl,
    /// CWF: DDR3 critical store + LPDDR2 bulk ("DL").
    Dl,
    /// RL with adaptive per-line placement (Figure 9, "RL AD").
    RlAdaptive,
    /// RL with oracular placement (Figure 9, "RL OR").
    RlOracle,
    /// RL with random word placement (§6.1.1 control).
    RlRandom,
    /// A homogeneous memory of any spec-layer standard (baseline
    /// topology); e.g. `Spec(DeviceKind::Ddr5)` is 4 × DDR5-4800 channels.
    Spec(DeviceKind),
    /// A CWF pairing of two spec-layer standards: fast critical store +
    /// slow bulk, on the flagship topology (`--mem rldram3+ddr5_4800`).
    SpecCwf(DeviceKind, DeviceKind),
    /// The DRAM-cache hybrid: the fast device as a tags-in-DRAM line
    /// cache in front of the slow store (`--mem dramcache:rldram3+nvm_slow`).
    DramCache(DeviceKind, DeviceKind),
}

impl MemKind {
    /// Display label matching the paper's figures; spec-layer kinds use
    /// the standard's display name (`DDR5`, `RLDRAM3+DDR5`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            MemKind::Ddr3 => "DDR3".to_owned(),
            MemKind::Lpddr2 => "LPDDR2".to_owned(),
            MemKind::Rldram3 => "RLDRAM3".to_owned(),
            MemKind::Rd => "RD".to_owned(),
            MemKind::Rl => "RL".to_owned(),
            MemKind::Dl => "DL".to_owned(),
            MemKind::RlAdaptive => "RL AD".to_owned(),
            MemKind::RlOracle => "RL OR".to_owned(),
            MemKind::RlRandom => "RL RAND".to_owned(),
            MemKind::Spec(k) => k.to_string(),
            MemKind::SpecCwf(fast, slow) => format!("{fast}+{slow}"),
            MemKind::DramCache(fast, slow) => format!("DC {fast}+{slow}"),
        }
    }

    /// Filesystem- and CLI-safe short name (`rl-ad` for "RL AD"); also
    /// the spelling `cwfmem` accepts for `--mem`/`--kinds`. Spec-layer
    /// kinds use the spec id (`ddr5_4800`, `rldram3+ddr5_4800`).
    #[must_use]
    pub fn slug(self) -> String {
        match self {
            MemKind::Ddr3 => "ddr3".to_owned(),
            MemKind::Lpddr2 => "lpddr2".to_owned(),
            MemKind::Rldram3 => "rldram3".to_owned(),
            MemKind::Rd => "rd".to_owned(),
            MemKind::Rl => "rl".to_owned(),
            MemKind::Dl => "dl".to_owned(),
            MemKind::RlAdaptive => "rl-ad".to_owned(),
            MemKind::RlOracle => "rl-or".to_owned(),
            MemKind::RlRandom => "rl-rand".to_owned(),
            MemKind::Spec(k) => k.spec_id().to_owned(),
            MemKind::SpecCwf(fast, slow) => format!("{}+{}", fast.spec_id(), slow.spec_id()),
            MemKind::DramCache(fast, slow) => {
                format!("dramcache:{}+{}", fast.spec_id(), slow.spec_id())
            }
        }
    }

    /// Parse a `--mem`/`--kinds` token: a legacy slug (`ddr3`, `rl-ad`,
    /// ...), a spec id (`ddr5_4800`), or a `fast+slow` CWF pairing of two
    /// spec tokens (`rldram3+ddr5_4800`). Pairings that name a paper
    /// design point (and plain `ddr3`/`lpddr2`/`rldram3`) normalize to the
    /// legacy kind so reports and seeds stay byte-identical.
    #[must_use]
    pub fn parse(token: &str) -> Option<MemKind> {
        const LEGACY: [(&str, MemKind); 9] = [
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
        if let Some((_, k)) = LEGACY.iter().find(|(n, _)| *n == token) {
            return Some(*k);
        }
        if let Some(pair) = token.strip_prefix("dramcache:") {
            let (fast_tok, slow_tok) = pair.split_once('+')?;
            let fast = DeviceKind::parse_token(fast_tok)?;
            let slow = DeviceKind::parse_token(slow_tok)?;
            return Some(MemKind::DramCache(fast, slow));
        }
        if let Some((fast_tok, slow_tok)) = token.split_once('+') {
            let fast = DeviceKind::parse_token(fast_tok)?;
            let slow = DeviceKind::parse_token(slow_tok)?;
            return Some(match (fast, slow) {
                (DeviceKind::Rldram3, DeviceKind::Lpddr2) => MemKind::Rl,
                (DeviceKind::Rldram3, DeviceKind::Ddr3) => MemKind::Rd,
                (DeviceKind::Ddr3, DeviceKind::Lpddr2) => MemKind::Dl,
                _ => MemKind::SpecCwf(fast, slow),
            });
        }
        let k = DeviceKind::parse_token(token)?;
        Some(match k {
            DeviceKind::Ddr3 => MemKind::Ddr3,
            DeviceKind::Lpddr2 => MemKind::Lpddr2,
            DeviceKind::Rldram3 => MemKind::Rldram3,
            _ => MemKind::Spec(k),
        })
    }

    /// Construct the memory backend for this kind.
    #[must_use]
    pub fn build(self, parity_error_rate: f64, seed: u64) -> MemBackend {
        let cwf = |cfg: CwfConfig| -> MemBackend {
            MemBackend::Cwf(HeteroCwfMemory::new(
                cfg.with_parity_errors(parity_error_rate, seed ^ 0xC0FF_EE00),
            ))
        };
        match self {
            MemKind::Ddr3 => MemBackend::Homogeneous(HomogeneousMemory::baseline_ddr3()),
            MemKind::Lpddr2 => MemBackend::Homogeneous(HomogeneousMemory::all_lpddr2()),
            MemKind::Rldram3 => MemBackend::Homogeneous(HomogeneousMemory::all_rldram3()),
            MemKind::Rd => cwf(CwfConfig::rd()),
            MemKind::Rl => cwf(CwfConfig::rl()),
            MemKind::Dl => cwf(CwfConfig::dl()),
            MemKind::RlAdaptive => cwf(CwfConfig::rl().with_policy(PlacementPolicy::Adaptive)),
            MemKind::RlOracle => cwf(CwfConfig::rl().with_policy(PlacementPolicy::Oracle)),
            MemKind::RlRandom => cwf(CwfConfig::rl().with_policy(PlacementPolicy::Random)),
            MemKind::Spec(k) => MemBackend::Homogeneous(HomogeneousMemory::preset(k)),
            MemKind::SpecCwf(fast, slow) => cwf(CwfConfig::pair(fast, slow)),
            MemKind::DramCache(fast, slow) => {
                MemBackend::DramCache(DramCacheMemory::new(DramCacheConfig::pair(fast, slow)))
            }
        }
    }

    /// True for the split-line CWF organizations.
    #[must_use]
    pub fn is_cwf(self) -> bool {
        matches!(
            self,
            MemKind::Rd
                | MemKind::Rl
                | MemKind::Dl
                | MemKind::RlAdaptive
                | MemKind::RlOracle
                | MemKind::RlRandom
                | MemKind::SpecCwf(..)
        )
    }
}

impl cwf_ckpt::Ckpt for MemKind {
    // Encoded as the CLI slug: it is the one spelling guaranteed to
    // round-trip through `parse` for every kind (tested below), and it
    // keeps the checkpoint readable in a hex dump.
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        cwf_ckpt::Ckpt::save(&self.slug(), w);
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        let slug: String = cwf_ckpt::Ckpt::load(r)?;
        MemKind::parse(&slug)
            .ok_or_else(|| cwf_ckpt::CkptError::new(format!("unknown memory kind '{slug}'")))
    }
}

/// Which simulation kernel drives the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Tick every layer once per CPU cycle (the reference loop).
    Cycle,
    /// Skip provably no-op cycles by jumping to the machine's minimum
    /// `next_activity` bound. Bit-identical metrics, ≥3× fewer memory
    /// tick calls on memory-intensive profiles.
    Event,
}

impl Kernel {
    /// Parse a `CWF_KERNEL` value (`"cycle"` or `"event"`, case-insensitive).
    #[must_use]
    pub fn from_env_str(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "cycle" => Some(Kernel::Cycle),
            "event" => Some(Kernel::Event),
            _ => None,
        }
    }

    /// Reporting name (`"cycle"` / `"event"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cycle => "cycle",
            Kernel::Event => "event",
        }
    }

    /// The kernel selected by the `CWF_KERNEL` environment variable
    /// (default: [`Kernel::Event`]).
    #[must_use]
    pub fn from_env() -> Kernel {
        std::env::var("CWF_KERNEL")
            .ok()
            .and_then(|s| Self::from_env_str(&s))
            .unwrap_or(Kernel::Event)
    }
}

impl cwf_ckpt::Ckpt for Kernel {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        w.put_u8(match self {
            Kernel::Cycle => 0,
            Kernel::Event => 1,
        });
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        match r.get_u8()? {
            0 => Ok(Kernel::Cycle),
            1 => Ok(Kernel::Event),
            v => Err(cwf_ckpt::CkptError::new(format!("invalid Kernel tag {v}"))),
        }
    }
}

/// Knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Memory organization.
    pub mem: MemKind,
    /// Cores (the paper uses 8; `IPC_alone` runs use 1).
    pub cores: u8,
    /// Measure until this many demand DRAM reads (after warm-up).
    pub target_dram_reads: u64,
    /// Demand DRAM reads of warm-up before measurement starts.
    pub warmup_dram_reads: u64,
    /// Hard cycle cap (safety net).
    pub max_cycles: u64,
    /// Stride prefetcher on/off (§6.1.1 ablation).
    pub prefetch: bool,
    /// Workload/backend seed.
    pub seed: u64,
    /// Critical-word parity error injection rate (§4.2.3).
    pub parity_error_rate: f64,
    /// Functional (timing-free) cache-warming memory operations per core
    /// before the timed windows — the analogue of the paper's 2 B-
    /// instruction fast-forward. Fills the 4 MB L2 so that eviction,
    /// writeback and adaptive-placement behaviour is in steady state.
    pub functional_warm_ops: u64,
    /// Simulation kernel (`CWF_KERNEL` env: `cycle`/`event`; default event).
    pub kernel: Kernel,
    /// Run the cross-layer verify oracle alongside the simulation
    /// ([`cwf_verify`]). Observation only — metrics are bit-identical
    /// either way; the cost is bookkeeping time and memory. Defaults to on
    /// in debug builds and off in release sweeps; `CWF_VERIFY=1`/`0`
    /// overrides, and the CLI's `--verify`/`--no-verify` override both.
    pub verify: bool,
    /// Collect cross-layer trace events ([`cwf_tracelog`]) into the
    /// system's ring buffer. Observation only — metrics are bit-identical
    /// either way. Defaults to off; `CWF_TRACE=1` enables it, and the
    /// CLI's `--trace`/`--no-trace` override both.
    pub trace: bool,
}

cwf_ckpt::ckpt_struct!(RunConfig {
    mem,
    cores,
    target_dram_reads,
    warmup_dram_reads,
    max_cycles,
    prefetch,
    seed,
    parity_error_rate,
    functional_warm_ops,
    kernel,
    verify,
    trace,
});

/// The default verify-oracle setting: `CWF_VERIFY` (`1`/`true`/`on` or
/// `0`/`false`/`off`) when set, else on for debug builds, off for release.
#[must_use]
pub fn verify_default() -> bool {
    match std::env::var("CWF_VERIFY") {
        Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"),
        Err(_) => cfg!(debug_assertions),
    }
}

/// The default tracing setting: `CWF_TRACE` (`1`/`true`/`on`/`yes` to
/// enable) when set, else off.
#[must_use]
pub fn trace_default() -> bool {
    match std::env::var("CWF_TRACE") {
        Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"),
        Err(_) => false,
    }
}

impl RunConfig {
    /// The paper's methodology scaled by `reads` (it uses 2 M DRAM reads;
    /// our default harness uses `CWF_READS`, see the bench crate).
    #[must_use]
    pub fn paper(mem: MemKind, reads: u64) -> Self {
        RunConfig {
            mem,
            cores: 8,
            target_dram_reads: reads,
            warmup_dram_reads: (reads / 5).min(10_000),
            max_cycles: 4_000 * reads.max(1_000),
            prefetch: true,
            seed: 0xD2A4_0001,
            parity_error_rate: 0.0,
            functional_warm_ops: 40_000,
            kernel: Kernel::from_env(),
            verify: verify_default(),
            trace: trace_default(),
        }
    }

    /// A small, fast configuration for tests and doc examples.
    #[must_use]
    pub fn quick(mem: MemKind, reads: u64) -> Self {
        RunConfig {
            cores: 2,
            warmup_dram_reads: 0,
            functional_warm_ops: 4_000,
            ..Self::paper(mem, reads)
        }
    }

    /// Reject a configuration no run can use: a core count outside
    /// `1..=MAX_CORES` (the hierarchy's sharer bitmask) or a zero read
    /// target (an empty measurement window). The message names the field,
    /// so callers at an input boundary can report it as is.
    ///
    /// # Errors
    ///
    /// The first invalid field, described.
    pub fn validate(&self) -> Result<(), String> {
        let max = cache_hier::MAX_CORES;
        if !(1..=max).contains(&self.cores) {
            return Err(format!("'cores' must be in 1..={max} (got {})", self.cores));
        }
        if self.target_dram_reads == 0 {
            return Err("'reads' must be at least 1".to_owned());
        }
        Ok(())
    }

    /// Same run with a different core count.
    #[must_use]
    pub fn with_cores(mut self, cores: u8) -> Self {
        self.cores = cores;
        self
    }

    /// Same run with the prefetcher disabled.
    #[must_use]
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        for kind in [
            MemKind::Ddr3,
            MemKind::Lpddr2,
            MemKind::Rldram3,
            MemKind::Rd,
            MemKind::Rl,
            MemKind::Dl,
            MemKind::RlAdaptive,
            MemKind::RlOracle,
            MemKind::RlRandom,
            MemKind::Spec(DeviceKind::Ddr4),
            MemKind::Spec(DeviceKind::Ddr5),
            MemKind::Spec(DeviceKind::Lpddr4),
            MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5),
            MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow),
        ] {
            let mut mem = kind.build(0.0, 1);
            mem.tick(0);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn cwf_classification() {
        assert!(MemKind::Rl.is_cwf());
        assert!(!MemKind::Ddr3.is_cwf());
        assert!(!MemKind::Rldram3.is_cwf());
        assert!(MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5).is_cwf());
        assert!(!MemKind::Spec(DeviceKind::Ddr5).is_cwf());
    }

    #[test]
    fn parse_covers_legacy_spec_and_pairs() {
        // Legacy slugs keep their legacy kinds (byte-identical reports).
        assert_eq!(MemKind::parse("ddr3"), Some(MemKind::Ddr3));
        assert_eq!(MemKind::parse("rl-ad"), Some(MemKind::RlAdaptive));
        // Spec ids and display names resolve through the spec layer.
        assert_eq!(MemKind::parse("ddr5_4800"), Some(MemKind::Spec(DeviceKind::Ddr5)));
        assert_eq!(MemKind::parse("ddr5"), Some(MemKind::Spec(DeviceKind::Ddr5)));
        assert_eq!(MemKind::parse("ddr3_1600"), Some(MemKind::Ddr3));
        // Pairings normalize to paper design points where one exists.
        assert_eq!(MemKind::parse("rldram3+lpddr2"), Some(MemKind::Rl));
        assert_eq!(MemKind::parse("rldram3+ddr3"), Some(MemKind::Rd));
        assert_eq!(MemKind::parse("ddr3+lpddr2"), Some(MemKind::Dl));
        assert_eq!(
            MemKind::parse("rldram3+ddr5_4800"),
            Some(MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5))
        );
        assert_eq!(MemKind::parse("sdram"), None);
        assert_eq!(MemKind::parse("rldram3+sdram"), None);
        // The DRAM-cache hybrid takes an explicit prefix.
        assert_eq!(
            MemKind::parse("dramcache:rldram3+nvm_slow"),
            Some(MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow))
        );
        assert_eq!(MemKind::parse("dramcache:rldram3"), None);
        assert_eq!(MemKind::parse("dramcache:rldram3+sdram"), None);
        // Bare nvm_slow is a homogeneous spec point like any other.
        assert_eq!(MemKind::parse("nvm_slow"), Some(MemKind::Spec(DeviceKind::NvmSlow)));
    }

    #[test]
    fn spec_slugs_round_trip_through_parse() {
        for k in [
            MemKind::Spec(DeviceKind::Ddr4),
            MemKind::Spec(DeviceKind::Ddr5),
            MemKind::Spec(DeviceKind::Lpddr4),
            MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5),
            MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow),
            MemKind::Ddr3,
            MemKind::Rl,
        ] {
            assert_eq!(MemKind::parse(&k.slug()), Some(k), "slug {}", k.slug());
        }
    }

    #[test]
    fn run_config_ckpt_round_trips() {
        use cwf_ckpt::Ckpt;
        let mut odd = RunConfig::paper(MemKind::RlAdaptive, 1_000);
        odd.parity_error_rate = 1e-3;
        odd.kernel = Kernel::Cycle;
        for cfg in [
            RunConfig::paper(MemKind::Rl, 1_000),
            RunConfig::quick(MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5), 10),
            odd,
        ] {
            let mut w = cwf_ckpt::Writer::new();
            cfg.save(&mut w);
            let bytes = w.into_vec();
            let mut r = cwf_ckpt::Reader::new(&bytes);
            let back = RunConfig::load(&mut r).expect("decode");
            r.finish().expect("no trailing bytes");
            assert!(back == cfg);
        }
    }

    #[test]
    fn paper_config_defaults() {
        let c = RunConfig::paper(MemKind::Rl, 100_000);
        assert_eq!(c.cores, 8);
        assert!(c.warmup_dram_reads > 0);
        assert!(c.prefetch);
    }
}
