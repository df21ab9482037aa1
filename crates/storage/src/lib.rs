//! # esharp-storage
//!
//! Out-of-core storage for the e# reproduction. The paper's offline stage
//! (§6, Table 9) chews through 998 GB of query logs — three orders of
//! magnitude past what the in-memory relational engine can hold — so this
//! crate provides the layer that lets the clustering SQL run over inputs
//! larger than RAM:
//!
//! * [`atomic`] — the crash-safe persistence primitives every writer in
//!   the workspace routes through (CRC32, write-temp-then-rename, and the
//!   one sealed frame, `len | crc32 | payload`, that every checksummed
//!   container seals its parts with). Moved here from `esharp-relation`
//!   so storage can sit *below* the engine.
//! * [`page`] — fixed-size slotted pages sealed in place by a per-page
//!   CRC: a torn or bit-flipped page is rejected at read, never decoded
//!   into a plausible-but-wrong relation.
//! * [`heap`] — heap files: a flat array of slotted pages plus a small
//!   metadata artifact written last via [`atomic::atomic_write`], so a
//!   crash mid-build leaves either the previous heap or a consistent
//!   committed prefix, never a half-table.
//! * [`pool`] — a fixed-capacity buffer pool with clock (second-chance)
//!   eviction, pin/unpin accounting via RAII guards, dirty-page
//!   writeback, and hit/miss/eviction counters the planner and the bench
//!   report read.
//! * [`spill`] — checksummed run files for operators that exceed their
//!   memory grant (external merge sort, partitioned hash spill). Spill
//!   data is recomputable, so it trades fsync durability for speed but
//!   keeps its sealed frames: a bad disk still fails loudly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod atomic;
pub mod heap;
pub mod page;
pub mod pool;
pub mod spill;

pub use heap::HeapFile;
pub use page::{Page, PAGE_SIZE};
pub use pool::{BufferPool, PageGuard, PoolStats, ScanHint};
pub use spill::{SpillDir, SpillHandle, SpillReader, SpillWriter};
