//! Parallel execution: partitioning, worker pools, per-stage statistics.

mod parallel;
mod partition;
mod stats;

pub use parallel::{Cluster, JoinStrategy};
pub(crate) use partition::{hash_rows, key_range_partition};
pub use partition::{chunk_partition, hash_key, hash_partition, FixedHasher};
pub use stats::{ExecStats, StageStats, StatsRegistry};
