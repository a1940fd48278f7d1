//! A set-associative cache with true-LRU replacement.
//!
//! The same structure serves as a private L1 (sharer bits unused) and as
//! the shared, inclusive L2, whose per-line metadata doubles as the MESI
//! sharer directory.
//!
//! # Layout
//!
//! The store is **packed structure-of-arrays**: one contiguous `u64` tag
//! array, one stamp array and one metadata array, each indexed
//! `set * ways + way`, plus a per-set validity bitmask. A lookup touches
//! exactly one cache-line-sized slice of the tag array and compares raw
//! integers — no `Option` discriminants interleaved with payloads, no
//! per-way branching on enum layout — which keeps the L1/L2 hit path
//! allocation-free and branch-predictable. Replacement order is
//! bit-for-bit the order the previous `Vec<Option<Way>>` implementation
//! produced: resident lines update in place, otherwise the first empty
//! way wins, otherwise the first way with the minimal LRU stamp is
//! evicted.

/// Size/shape of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Number of sets.
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheCfg {
    /// The paper's L1D: 32 KB, 2-way, 64 B lines ⇒ 256 sets.
    #[must_use]
    pub fn l1_32k_2way() -> Self {
        CacheCfg { sets: 256, ways: 2 }
    }

    /// The paper's shared L2: 4 MB, 8-way, 64 B lines ⇒ 8192 sets.
    #[must_use]
    pub fn l2_4m_8way() -> Self {
        CacheCfg { sets: 8192, ways: 8 }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * 64
    }
}

/// Metadata carried by every resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// Dirty with respect to the level below.
    pub dirty: bool,
    /// Bitmask of cores holding this line in their L1 (L2/directory use).
    pub sharers: u8,
    /// Critical word observed at the line's last fetch (CWF adaptive
    /// placement, §4.2.5).
    pub crit_word: u8,
    /// Brought in by the prefetcher and not yet demanded.
    pub prefetched: bool,
}

/// A set-associative cache storing only metadata (timing simulation).
#[derive(Debug)]
pub struct Cache {
    cfg: CacheCfg,
    /// `log2(sets)` when `sets` is a power of two (the paper's 256-set L1
    /// and 8192-set L2): indexing is then a mask and a shift instead of a
    /// runtime division. `None` falls back to `%` and `/`.
    set_shift: Option<u32>,
    /// Tag of each way, `set * ways + way` packed; garbage where invalid.
    tags: Vec<u64>,
    /// LRU stamp of each way, same indexing.
    stamps: Vec<u64>,
    /// Line metadata of each way, same indexing.
    metas: Vec<LineMeta>,
    /// One validity bitmask per set (bit `w` ⇒ way `w` holds a line).
    valid: Vec<u64>,
    /// Running resident-line count (sum of `valid` popcounts).
    live: usize,
    clock: u64,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `ways` exceeds 64 (the
    /// per-set validity bitmask width).
    #[must_use]
    pub fn new(cfg: CacheCfg) -> Self {
        assert!(cfg.sets > 0 && cfg.ways > 0, "cache must have sets and ways");
        assert!(cfg.ways <= 64, "associativity above 64 is unsupported");
        let slots = (cfg.sets * cfg.ways) as usize;
        Cache {
            cfg,
            set_shift: cfg.sets.is_power_of_two().then(|| cfg.sets.trailing_zeros()),
            tags: vec![0; slots],
            stamps: vec![0; slots],
            metas: vec![LineMeta::default(); slots],
            valid: vec![0; cfg.sets as usize],
            live: 0,
            clock: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_shift {
            Some(_) => (line & (u64::from(self.cfg.sets) - 1)) as usize,
            None => (line % u64::from(self.cfg.sets)) as usize,
        }
    }

    #[inline]
    fn tag(&self, line: u64) -> u64 {
        match self.set_shift {
            Some(shift) => line >> shift,
            None => line / u64::from(self.cfg.sets),
        }
    }

    /// Index of the way holding `tag` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        let mut v = self.valid[set];
        while v != 0 {
            let w = v.trailing_zeros() as usize;
            if self.tags[base + w] == tag {
                return Some(base + w);
            }
            v &= v - 1;
        }
        None
    }

    /// Look up `line` (a line index, i.e. `addr >> 6`), updating LRU.
    pub fn lookup(&mut self, line: u64) -> Option<&mut LineMeta> {
        self.clock += 1;
        let set = self.set_of(line);
        let tag = self.tag(line);
        match self.find(set, tag) {
            Some(i) => {
                self.stamps[i] = self.clock;
                Some(&mut self.metas[i])
            }
            None => None,
        }
    }

    /// Look up without touching LRU.
    #[must_use]
    pub fn peek(&self, line: u64) -> Option<&LineMeta> {
        self.find(self.set_of(line), self.tag(line)).map(|i| &self.metas[i])
    }

    /// Insert `line` with `meta`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted `(line, meta)` if one was displaced. Inserting a
    /// line that is already resident replaces its metadata in place and
    /// returns `None`.
    pub fn insert(&mut self, line: u64, meta: LineMeta) -> Option<(u64, LineMeta)> {
        self.clock += 1;
        let set = self.set_of(line);
        let tag = self.tag(line);
        let ways = self.cfg.ways as usize;
        let base = set * ways;

        // Already resident?
        if let Some(i) = self.find(set, tag) {
            self.metas[i] = meta;
            self.stamps[i] = self.clock;
            return None;
        }
        // Empty way? (lowest-index first, as the slot scan used to pick.)
        let mask = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
        let free = !self.valid[set] & mask;
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.valid[set] |= 1 << w;
            self.live += 1;
            self.tags[base + w] = tag;
            self.stamps[base + w] = self.clock;
            self.metas[base + w] = meta;
            return None;
        }
        // Evict the first way with the minimal stamp.
        let mut victim = 0usize;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        let i = base + victim;
        let old_tag = self.tags[i];
        let old_meta = self.metas[i];
        self.tags[i] = tag;
        self.stamps[i] = self.clock;
        self.metas[i] = meta;
        Some((old_tag * u64::from(self.cfg.sets) + set as u64, old_meta))
    }

    /// The line an [`Cache::insert`] of `line` would displace right now:
    /// `None` when `line` is resident or its set still has a free way.
    /// Pure observation — no LRU clock movement.
    #[must_use]
    pub fn victim_peek(&self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let ways = self.cfg.ways as usize;
        let mask = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
        if self.valid[set] != mask || self.find(set, self.tag(line)).is_some() {
            return None;
        }
        let base = set * ways;
        let mut victim = 0usize;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        Some(self.tags[base + victim] * u64::from(self.cfg.sets) + set as u64)
    }

    /// Hint the host CPU to pull `line`'s set (tags, stamps, metadata)
    /// into cache ahead of an upcoming probe: one discarded read per
    /// array starts the fills early while the caller does other work.
    /// Purely a performance hint — no simulated state changes (the LRU
    /// clock does not move).
    #[inline]
    pub fn prefetch_set(&self, line: u64) {
        let base = self.set_of(line) * self.cfg.ways as usize;
        std::hint::black_box(self.tags[base]);
        std::hint::black_box(self.stamps[base]);
        std::hint::black_box(self.metas[base]);
    }

    /// Remove `line`, returning its metadata if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<LineMeta> {
        let set = self.set_of(line);
        let i = self.find(set, self.tag(line))?;
        self.valid[set] &= !(1u64 << (i - set * self.cfg.ways as usize));
        self.live -= 1;
        Some(self.metas[i])
    }

    /// Number of resident lines (testing/diagnostics). O(1).
    #[must_use]
    pub fn resident(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.valid.iter().map(|v| v.count_ones() as usize).sum::<usize>()
        );
        self.live
    }

    /// Iterate all resident lines as `(line, meta)` (inclusion audit).
    pub fn iter_resident(&self) -> impl Iterator<Item = (u64, &LineMeta)> + '_ {
        let sets = u64::from(self.cfg.sets);
        let ways = self.cfg.ways as usize;
        self.valid.iter().enumerate().flat_map(move |(set, &v)| {
            (0..ways).filter(move |w| v & (1 << w) != 0).map(move |w| {
                let i = set * ways + w;
                (self.tags[i] * sets + set as u64, &self.metas[i])
            })
        })
    }

    /// Configuration.
    #[must_use]
    pub fn cfg(&self) -> CacheCfg {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheCfg { sets: 2, ways: 2 })
    }

    #[test]
    fn insert_then_lookup() {
        let mut c = tiny();
        assert!(c.lookup(10).is_none());
        assert!(c.insert(10, LineMeta::default()).is_none());
        assert!(c.lookup(10).is_some());
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn lru_eviction_returns_correct_victim_address() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line indices).
        c.insert(0, LineMeta::default());
        c.insert(2, LineMeta::default());
        c.lookup(0); // make line 2 the LRU
        let victim = c.insert(4, LineMeta { dirty: true, ..Default::default() });
        let (vline, _) = victim.expect("eviction");
        assert_eq!(vline, 2);
        assert!(c.peek(0).is_some());
        assert!(c.peek(4).is_some());
        assert!(c.peek(2).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = tiny();
        c.insert(10, LineMeta::default());
        let evicted = c.insert(10, LineMeta { dirty: true, ..Default::default() });
        assert!(evicted.is_none());
        assert!(c.peek(10).unwrap().dirty);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(10, LineMeta { dirty: true, ..Default::default() });
        let meta = c.invalidate(10).expect("was resident");
        assert!(meta.dirty);
        assert!(c.peek(10).is_none());
        assert!(c.invalidate(10).is_none());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd lines map to set 1.
        c.insert(0, LineMeta::default());
        c.insert(1, LineMeta::default());
        c.insert(2, LineMeta::default());
        c.insert(3, LineMeta::default());
        assert_eq!(c.resident(), 4);
        // Filling set 0 further does not disturb set 1.
        c.insert(4, LineMeta::default());
        assert!(c.peek(1).is_some());
        assert!(c.peek(3).is_some());
    }

    #[test]
    fn paper_geometry() {
        assert_eq!(CacheCfg::l1_32k_2way().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheCfg::l2_4m_8way().capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn reinsert_refreshes_lru_position() {
        let mut c = tiny();
        c.insert(0, LineMeta::default());
        c.insert(2, LineMeta::default());
        // Re-inserting line 0 must refresh its stamp, making 2 the victim.
        c.insert(0, LineMeta { dirty: true, ..Default::default() });
        let (vline, _) = c.insert(4, LineMeta::default()).expect("eviction");
        assert_eq!(vline, 2);
    }
}

cwf_ckpt::ckpt_struct!(LineMeta { dirty, sharers, crit_word, prefetched });

impl Cache {
    /// Serialize the cache's mutable state (tag/stamp/meta arrays,
    /// valid bitmap, occupancy, LRU clock). `CacheCfg` is rebuilt on
    /// restore.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let Cache { cfg: _, set_shift: _, tags, stamps, metas, valid, live, clock } = self;
        w.section(b"CACH");
        cwf_ckpt::Ckpt::save(tags, w);
        cwf_ckpt::Ckpt::save(stamps, w);
        cwf_ckpt::Ckpt::save(metas, w);
        cwf_ckpt::Ckpt::save(valid, w);
        cwf_ckpt::Ckpt::save(live, w);
        cwf_ckpt::Ckpt::save(clock, w);
    }

    /// Restore state saved by [`Cache::save_state`] into a freshly
    /// constructed cache of the same geometry.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a geometry mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"CACH")?;
        let tags: Vec<u64> = cwf_ckpt::Ckpt::load(r)?;
        if tags.len() != self.tags.len() {
            return Err(cwf_ckpt::CkptError::new("cache geometry mismatch"));
        }
        self.tags = tags;
        self.stamps = cwf_ckpt::Ckpt::load(r)?;
        self.metas = cwf_ckpt::Ckpt::load(r)?;
        self.valid = cwf_ckpt::Ckpt::load(r)?;
        self.live = cwf_ckpt::Ckpt::load(r)?;
        self.clock = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
