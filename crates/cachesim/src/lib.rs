#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cache hierarchy for the `cwfmem` simulator.
//!
//! Models the paper's Table 1 hierarchy: private 32 KB / 2-way / 1-cycle L1
//! data caches, a shared 4 MB / 64 B / 8-way / 10-cycle L2, MESI-style
//! coherence through an inclusive-L2 sharer directory, a PC-indexed stride
//! prefetcher, and an MSHR file that tracks **per-word** arrival — the
//! processor-side support the CWF design needs for "buffering two parts of
//! a cache line in the MSHR" (§4.2.2).
//!
//! The [`Hierarchy`] owns a [`mem_ctrl::MainMemory`] backend; swapping the backend is
//! how the simulator compares the DDR3 baseline against the heterogeneous
//! CWF organizations.
//!
//! # Examples
//!
//! ```
//! use cache_hier::{Hierarchy, HierParams, AccessOutcome};
//! use mem_ctrl::HomogeneousMemory;
//!
//! let mut h = Hierarchy::new(HierParams::paper_default(1), HomogeneousMemory::baseline_ddr3());
//! // First touch misses all the way to DRAM...
//! let out = h.load(0, 0x1_0000, 0x400, 0);
//! assert!(matches!(out, AccessOutcome::Miss { .. }));
//! let mut woken = Vec::new();
//! for now in 0..2_000 {
//!     h.tick(now, &mut woken);
//! }
//! assert_eq!(woken.len(), 1);
//! // ...the second touch hits in L1.
//! let out = h.load(0, 0x1_0000, 0x400, 2_000);
//! assert!(matches!(out, AccessOutcome::Hit { .. }));
//! ```

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;

pub use cache::{Cache, CacheCfg, LineMeta};
pub use hierarchy::{
    AccessOutcome, HierAudit, HierParams, HierStats, Hierarchy, StoreOutcome, Woken, MAX_CORES,
};
pub use mshr::{MshrEntry, MshrFile, Waiter};
pub use prefetch::StridePrefetcher;
