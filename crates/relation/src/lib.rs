//! # esharp-relation
//!
//! A small, from-scratch parallel relational engine — the substrate on
//! which e#'s "SQL-based modularity maximization" (EDBT 2016, §4.2) runs.
//!
//! The paper's claim is that its community-detection loop "can directly be
//! implemented in (parallel) declarative languages such as Hive, Pig,
//! Microsoft's SCOPE or even SQL" and parallelized "with standard
//! map-reduce relational operators". This crate provides exactly that
//! execution model:
//!
//! * typed columnar [`Table`]s with [`Schema`]s and [`Value`]s,
//! * physical operators (filter, project, hash join, hash aggregate with
//!   the paper's `argmax`, sort, distinct, union, limit),
//! * a thread-parallel executor with deterministic hash partitioning and
//!   the two join strategies discussed in §4.2.3 (replicated/broadcast vs
//!   co-partitioned),
//! * per-stage I/O statistics in the shape of the paper's Table 9,
//! * a SQL front-end able to parse and run the Figure 4 queries, including
//!   the pipeline-supplied `ModulGain` UDF and the `argmax` aggregate.
//!
//! ```
//! use esharp_relation::{Catalog, ExecContext, Schema, Table, DataType, Value, run_sql};
//!
//! let catalog = Catalog::new();
//! let schema = Schema::of(&[("query", DataType::Str), ("clicks", DataType::Int)]);
//! let log = Table::from_rows(schema, vec![
//!     vec![Value::str("49ers"), Value::Int(25)],
//!     vec![Value::str("nfl"), Value::Int(20)],
//! ]).unwrap();
//! catalog.register("log", log);
//! let ctx = ExecContext::new(catalog);
//! let out = run_sql("select query from log where clicks > 21", &ctx).unwrap();
//! assert_eq!(out.num_rows(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binfmt;
mod catalog;
pub mod csv;
mod column;
mod error;
pub mod exec;
mod explain;
mod expr;
pub mod ops;
#[cfg(any(test, feature = "test-support"))]
pub mod oracle;
pub mod paged;
pub mod physical;
mod plan;
mod schema;
pub mod sql;
mod table;
mod udf;
mod value;

pub use catalog::{Catalog, Source};
pub use column::Column;
pub use error::{RelError, RelResult};
pub use exec::{Cluster, ExecStats, JoinStrategy, StageStats, StatsRegistry};
pub use explain::{explain, explain_analyze, explain_physical};
pub use expr::{BinOp, CompiledExpr, Expr};
pub use esharp_storage::{BufferPool, PoolStats, PAGE_SIZE};
pub use paged::{PagedTable, ScanOptions, ScanOutcome};
pub use physical::{optimize, Estimate, PhysicalPlan, PlanHistory};
pub use plan::{AggCall, ExecContext, LogicalPlan};
pub use schema::{Field, Schema, SchemaRef};
pub use sql::{plan_sql, run_sql};
pub use table::{Table, TableBuilder};
pub use udf::{FnUdf, ScalarUdf, UdfRegistry};
pub use value::{DataType, Value};
