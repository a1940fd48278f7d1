#![forbid(unsafe_code)]
//! Design-space-exploration service for `cwfmem`.
//!
//! The batch front end (`cwfmem sweep`) runs one grid and exits; this
//! crate turns the same deterministic cell machinery into a *service*:
//!
//! * [`pool`] — a work-stealing worker pool executing whole-simulation
//!   cells with panic isolation;
//! * [`digest`] — stable `(config-digest, seed)` cell identities,
//!   canonicalized through the `cwfmem.ckpt.v1` encoding;
//! * [`cache`] — a result cache that memoizes finished cells *and*
//!   batches duplicate submissions onto in-flight computations
//!   (failures are delivered but never memoized, so a transient error
//!   cannot poison a cell key for the server's lifetime);
//! * [`server`] — the `cwfmem serve` HTTP/JSON front end (submit
//!   sweeps, poll or stream status, fetch per-cell results and Perfetto
//!   traces, graceful shutdown);
//! * [`http`] — the hand-rolled HTTP/1.1 layer (the build environment
//!   is offline; no dependencies). Request bodies are parsed with the
//!   workspace's one JSON codec, [`Json`] from `cwf_tracelog::json`.
//!
//! Everything observable is deterministic: cell seeds are pure
//! functions of the sweep request, cached results are bit-identical to
//! reruns, and delivery is exactly-once per result slot (DESIGN.md §16
//! has the protocol).

pub mod cache;
pub mod digest;
pub mod http;
pub mod pool;
pub mod server;

pub use cache::{CellOutput, ResultCache, Submission};
pub use cwf_tracelog::json::Json;
pub use digest::{cell_key, config_digest, CellKey};
pub use pool::Pool;
pub use server::Server;
