//! Named-table catalog.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::{RelError, RelResult};
use crate::paged::PagedTable;
use crate::table::Table;
use esharp_storage::BufferPool;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a registered table's rows live.
#[derive(Debug, Clone)]
pub enum Source {
    /// Fully materialized in memory.
    Mem(Table),
    /// On disk in a paged heap file; scans stream pages through the pool.
    Paged {
        /// The paged table.
        table: Arc<PagedTable>,
        /// The buffer pool its scans go through.
        pool: Arc<BufferPool>,
    },
}

impl Source {
    /// Row count without materializing.
    pub fn num_rows(&self) -> u64 {
        match self {
            Source::Mem(t) => t.num_rows() as u64,
            Source::Paged { table, .. } => table.num_rows(),
        }
    }

    /// Approximate byte footprint without materializing.
    pub fn byte_size(&self) -> u64 {
        match self {
            Source::Mem(t) => t.byte_size() as u64,
            Source::Paged { table, .. } => table.byte_size(),
        }
    }
}

/// A mutable, thread-safe registry of named tables.
///
/// The community-detection driver re-registers the `communities` table on
/// every iteration, so registration replaces silently.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Arc<RwLock<HashMap<String, Source>>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table under a case-insensitive name.
    pub fn register(&self, name: impl AsRef<str>, table: Table) {
        self.tables
            .write()
            .insert(name.as_ref().to_lowercase(), Source::Mem(table));
    }

    /// Register (or replace) an on-disk paged table. Scans of this name
    /// stream pages through `pool` instead of materializing up front.
    pub fn register_paged(
        &self,
        name: impl AsRef<str>,
        table: Arc<PagedTable>,
        pool: Arc<BufferPool>,
    ) {
        self.tables
            .write()
            .insert(name.as_ref().to_lowercase(), Source::Paged { table, pool });
    }

    /// Fetch a table by case-insensitive name, materializing a paged
    /// source fully. In-memory tables share their columns with the
    /// catalog's copy.
    pub fn get(&self, name: &str) -> RelResult<Table> {
        match self.get_source(name)? {
            Source::Mem(t) => Ok(t),
            Source::Paged { table, pool } => table.read_all(&pool),
        }
    }

    /// Fetch the source for a name without materializing paged tables —
    /// the physical scan operator uses this to push predicates into the
    /// page stream.
    pub fn get_source(&self, name: &str) -> RelResult<Source> {
        self.with_source(name, Source::clone)
    }

    /// Apply `f` to a registered source, borrowed under the read lock.
    fn with_source<T>(&self, name: &str, f: impl FnOnce(&Source) -> T) -> RelResult<T> {
        let tables = self.tables.read();
        let source = tables
            .get(&name.to_lowercase())
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))?;
        Ok(f(source))
    }

    /// The schema of a registered table, without materializing it.
    pub fn schema_of(&self, name: &str) -> RelResult<crate::schema::SchemaRef> {
        self.with_source(name, |source| match source {
            Source::Mem(t) => t.schema().clone(),
            Source::Paged { table, .. } => table.schema().clone(),
        })
    }

    /// `(rows, bytes)` of a registered table, without materializing it.
    /// These feed the planner's cost model.
    pub fn stats_of(&self, name: &str) -> RelResult<(u64, u64)> {
        self.with_source(name, |source| (source.num_rows(), source.byte_size()))
    }

    /// Remove a table; returns its materialized form if present.
    pub fn remove(&self, name: &str) -> Option<Table> {
        match self.tables.write().remove(&name.to_lowercase()) {
            Some(Source::Mem(t)) => Some(t),
            Some(Source::Paged { table, pool }) => table.read_all(&pool).ok(),
            None => None,
        }
    }

    /// Names of all registered tables, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn register_get_replace() {
        let cat = Catalog::new();
        let t = Table::empty(Schema::of(&[("x", DataType::Int)]));
        cat.register("Graph", t.clone());
        assert!(cat.get("graph").is_ok());
        assert!(cat.get("GRAPH").is_ok());
        assert!(cat.get("missing").is_err());
        let t2 = Table::empty(Schema::of(&[("y", DataType::Str)]));
        cat.register("graph", t2.clone());
        assert_eq!(cat.get("graph").unwrap(), t2);
        assert_eq!(cat.names(), vec!["graph".to_string()]);
        assert!(cat.remove("graph").is_some());
        assert!(cat.get("graph").is_err());
    }
}
