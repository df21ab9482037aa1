//! Physical operators.
//!
//! Each operator is a pure function from materialized [`crate::Table`]s to a new
//! [`crate::Table`]. Parallel execution (see [`crate::exec`]) partitions inputs and
//! runs these same operators per partition, which is exactly the
//! map-reduce-over-relational-operators execution model the paper assumes
//! for SCOPE/Hive (§4.2.3).

mod aggregate;
mod join;
mod keys;
mod project;
mod set;
mod sort;

pub use aggregate::{aggregate, AggFunc, AggSpec};
pub(crate) use keys::dense_range;
pub use join::{hash_join, JoinSide};
pub use project::{filter, project, ProjectionSpec};
pub use set::{distinct, limit, union_all};
pub use sort::{sort, SortKey};
