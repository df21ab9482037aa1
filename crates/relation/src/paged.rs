//! On-disk paged tables: the out-of-core backing for [`Table`].
//!
//! A [`PagedTable`] serializes a table row-at-a-time into the slotted heap
//! pages of [`esharp_storage::HeapFile`] (schema stored in the heap's user
//! metadata as a binfmt-encoded empty table), and scans stream pages back
//! through a [`BufferPool`] — so a table much larger than the pool can be
//! filtered, projected and joined without ever being fully resident.
//!
//! Scans accept pushed-down predicates, projections and limits
//! ([`ScanOptions`]): the predicate is evaluated per page as it comes out
//! of the pool, the projection drops columns before they are concatenated,
//! and the limit stops page fetches early. [`ScanOutcome::rows_scanned`]
//! reports how many rows were actually decoded, which is what the planner
//! benchmarks to show pushdown working.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::binfmt;
use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::expr::CompiledExpr;
use crate::ops;
use crate::schema::{Schema, SchemaRef};
use crate::table::Table;
use crate::value::DataType;
use bytes::Bytes;
use esharp_storage::{BufferPool, HeapFile, Page, PAGE_SIZE};
use std::path::Path;
use std::sync::Arc;

/// Encode one row with the per-value codec: Bool = 1 byte, Int/Float =
/// 8 bytes LE, Str = u32 LE length + UTF-8 bytes.
fn encode_row(table: &Table, row: usize, buf: &mut Vec<u8>) {
    buf.clear();
    for col in table.columns() {
        match col.as_ref() {
            Column::Bool(v) => buf.push(v[row] as u8),
            Column::Int(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
            Column::Float(v) => buf.extend_from_slice(&v[row].to_le_bytes()),
            Column::Str(v) => {
                buf.extend_from_slice(&(v[row].len() as u32).to_le_bytes());
                buf.extend_from_slice(v[row].as_bytes());
            }
        }
    }
}

/// Decode one record produced by [`encode_row`] straight into typed
/// column builders: field `i` is appended to `builders[slot]` when
/// `slots[i]` is `Some(slot)` and skipped unparsed otherwise. Every
/// builder has its field's type.
fn decode_into(
    schema: &Schema,
    slots: &[Option<usize>],
    rec: &[u8],
    builders: &mut [Column],
) -> RelResult<()> {
    let corrupt = |what: &str| RelError::Storage(format!("paged record: {what}"));
    let mut off = 0usize;
    let mut take = |n: usize| -> RelResult<&[u8]> {
        let slice = rec
            .get(off..off + n)
            .ok_or_else(|| corrupt("truncated value"))?;
        off += n;
        Ok(slice)
    };
    for (field, slot) in schema.fields().iter().zip(slots) {
        let bytes = match field.dtype {
            DataType::Bool => take(1)?,
            DataType::Int | DataType::Float => take(8)?,
            DataType::Str => {
                let b: [u8; 4] = take(4)?.try_into().map_err(|_| corrupt("strlen"))?;
                take(u32::from_le_bytes(b) as usize)?
            }
        };
        let Some(slot) = slot else { continue };
        let word =
            || -> RelResult<[u8; 8]> { bytes.try_into().map_err(|_| corrupt("8-byte value")) };
        match &mut builders[*slot] {
            Column::Bool(v) => v.push(bytes.first().is_some_and(|&b| b != 0)),
            Column::Int(v) => v.push(i64::from_le_bytes(word()?)),
            Column::Float(v) => v.push(f64::from_le_bytes(word()?)),
            Column::Str(v) => {
                let s = std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8"))?;
                v.push(Arc::from(s));
            }
        }
    }
    if off != rec.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(())
}

/// Pushed-down scan parameters. All default to "no pushdown".
#[derive(Default)]
pub struct ScanOptions<'a> {
    /// Row predicate, compiled against the table's full schema; applied
    /// per page before projection.
    pub predicate: Option<&'a CompiledExpr>,
    /// Columns to keep (indices into the full schema, output order).
    pub projection: Option<&'a [usize]>,
    /// Stop after this many *output* rows; halts page fetches early.
    pub limit: Option<usize>,
}

/// The result of a pushdown scan, with the accounting the planner reports.
#[derive(Debug)]
pub struct ScanOutcome {
    /// The materialized (filtered/projected/limited) rows.
    pub table: Table,
    /// Rows decoded from pages — the quantity pushdown reduces.
    pub rows_scanned: u64,
    /// Pages fetched through the buffer pool.
    pub pages_read: u64,
}

/// A read-only table stored in a checksummed heap file.
#[derive(Debug, Clone)]
pub struct PagedTable {
    heap: Arc<HeapFile>,
    schema: SchemaRef,
}

impl PagedTable {
    /// Write `table` out as a paged heap file at `<base>.heap` /
    /// `<base>.meta` and return the handle. The schema travels in the
    /// heap's user metadata as a binfmt-encoded empty table, so
    /// [`PagedTable::open`] needs no side channel.
    pub fn create(base: &Path, table: &Table) -> RelResult<PagedTable> {
        let user_meta = binfmt::encode_table(&Table::empty(table.schema().clone()));
        let heap = HeapFile::create(base, &user_meta)?;
        let mut page = Page::empty();
        let mut buf = Vec::new();
        for row in 0..table.num_rows() {
            encode_row(table, row, &mut buf);
            if page.insert(&buf).is_none() {
                if page.is_empty() {
                    return Err(RelError::Storage(format!(
                        "row of {} bytes exceeds the page capacity",
                        buf.len()
                    )));
                }
                flush_page(&heap, &mut page)?;
                page = Page::empty();
                if page.insert(&buf).is_none() {
                    return Err(RelError::Storage(format!(
                        "row of {} bytes exceeds the page capacity",
                        buf.len()
                    )));
                }
            }
        }
        if !page.is_empty() {
            flush_page(&heap, &mut page)?;
        }
        heap.add_records(table.num_rows() as u64);
        heap.sync()?;
        Ok(PagedTable {
            heap: Arc::new(heap),
            schema: table.schema().clone(),
        })
    }

    /// Open an existing paged table, verifying the heap metadata and
    /// decoding the schema from it.
    pub fn open(base: &Path) -> RelResult<PagedTable> {
        let heap = HeapFile::open(base)?;
        let empty = binfmt::decode_table(Bytes::copy_from_slice(heap.user_meta()))?;
        Ok(PagedTable {
            schema: empty.schema().clone(),
            heap: Arc::new(heap),
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Committed row count.
    pub fn num_rows(&self) -> u64 {
        self.heap.record_count()
    }

    /// Committed page count.
    pub fn page_count(&self) -> u64 {
        self.heap.page_count()
    }

    /// On-disk footprint of the data file in bytes.
    pub fn byte_size(&self) -> u64 {
        self.heap.page_count() * PAGE_SIZE as u64
    }

    /// The underlying heap file.
    pub fn heap(&self) -> &Arc<HeapFile> {
        &self.heap
    }

    /// Stream every page through `pool`, applying the pushed-down
    /// predicate, projection and limit as pages arrive. Only the fields
    /// the projection or the predicate reads are decoded.
    pub fn scan(&self, pool: &BufferPool, opts: &ScanOptions) -> RelResult<ScanOutcome> {
        let width = self.schema.len();
        let projection: Vec<usize> = match opts.projection {
            Some(cols) => cols.to_vec(),
            None => (0..width).collect(),
        };
        let mut wanted = projection.clone();
        if let Some(pred) = opts.predicate {
            pred.columns_read(&mut wanted);
        }
        if let Some(&i) = wanted.iter().find(|&&i| i >= width) {
            return Err(RelError::Storage(format!(
                "projection index {i} out of range"
            )));
        }
        // The decoded fields in schema order, and each one's position
        // among them; the predicate and the projection read positions.
        let decoded: Vec<usize> = (0..width).filter(|i| wanted.contains(i)).collect();
        let mut slots: Vec<Option<usize>> = vec![None; width];
        for (slot, &i) in decoded.iter().enumerate() {
            slots[i] = Some(slot);
        }
        let position = |i: usize| slots[i].unwrap_or(0);
        let predicate = opts
            .predicate
            .map(|p| p.remap(&(0..width).map(position).collect::<Vec<_>>()));
        let out_cols: Vec<usize> = projection.iter().map(|&i| position(i)).collect();
        let fields_of = |cols: &[usize]| {
            Schema::new(cols.iter().map(|&i| self.schema.field(i).clone()).collect()).map(Arc::new)
        };
        let page_schema = fields_of(&decoded)?;
        let out_schema = fields_of(&projection)?;

        let mut out: Vec<Column> = out_schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        let mut rows_scanned = 0u64;
        let mut pages_read = 0u64;
        let mut taken = 0usize;
        // Scan-resistant admission: this sequential pass confines its
        // churn to a small per-scan ring instead of flooding the pool,
        // so pages other consumers (or a repeat of this scan) rely on
        // stay resident.
        let hint = pool.scan_hint();
        for no in 0..self.heap.page_count() {
            let guard = pool.fetch_hinted(&self.heap, no, Some(&hint))?;
            let mut builders: Vec<Column> = page_schema
                .fields()
                .iter()
                .map(|f| Column::empty(f.dtype))
                .collect();
            for rec in guard.page().records() {
                decode_into(&self.schema, &slots, rec, &mut builders)?;
            }
            let mut t = Table::new(page_schema.clone(), builders)?;
            pages_read += 1;
            rows_scanned += t.num_rows() as u64;
            if let Some(pred) = &predicate {
                t = ops::filter(&t, pred)?;
            }
            let mut last = false;
            if let Some(limit) = opts.limit {
                let remaining = limit - taken;
                if t.num_rows() >= remaining {
                    t = ops::limit(&t, remaining)?;
                    last = true;
                }
            }
            taken += t.num_rows();
            for (dst, &src) in out.iter_mut().zip(&out_cols) {
                dst.extend_from(t.column(src))?;
            }
            if last {
                break;
            }
        }
        Ok(ScanOutcome {
            table: Table::new(out_schema, out)?,
            rows_scanned,
            pages_read,
        })
    }

    /// Materialize the whole table (no pushdown).
    pub fn read_all(&self, pool: &BufferPool) -> RelResult<Table> {
        Ok(self.scan(pool, &ScanOptions::default())?.table)
    }
}

fn flush_page(heap: &HeapFile, page: &mut Page) -> RelResult<()> {
    let no = heap.allocate_page()?;
    heap.write_page(no, page)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::udf::UdfRegistry;
    use crate::value::Value;

    fn sample(rows: i64) -> Table {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("flag", DataType::Bool),
        ]);
        Table::from_rows(
            schema,
            (0..rows)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("row-{i}")),
                        Value::Float(i as f64 / 7.0),
                        Value::Bool(i % 3 == 0),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("esharp_paged_{name}_{}", std::process::id()))
    }

    #[test]
    fn create_open_read_all_round_trips() {
        let t = sample(5000); // several pages worth
        let base = tmp("roundtrip");
        let paged = PagedTable::create(&base, &t).unwrap();
        assert_eq!(paged.num_rows(), 5000);
        assert!(paged.page_count() > 1);

        let reopened = PagedTable::open(&base).unwrap();
        assert_eq!(reopened.schema(), t.schema());
        let pool = BufferPool::new(4);
        let back = reopened.read_all(&pool).unwrap();
        assert_eq!(back, t);
        // The pool was far smaller than the table: frames must have been
        // turned over (scan-hinted recycles, not clock evictions) and
        // yet every row came back intact.
        let stats = pool.stats();
        assert!(stats.recycles > 0, "{stats:?}");
        assert_eq!(stats.evictions, 0, "scans should recycle their own ring: {stats:?}");
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    #[test]
    fn predicate_and_projection_pushdown_match_in_memory() {
        let t = sample(2000);
        let base = tmp("pushdown");
        let paged = PagedTable::create(&base, &t).unwrap();
        let pool = BufferPool::new(2);

        let udfs = UdfRegistry::with_builtins();
        let pred = Expr::col("score")
            .gt(Expr::lit(100.0))
            .compile(t.schema(), &udfs)
            .unwrap();
        let out = paged
            .scan(
                &pool,
                &ScanOptions {
                    predicate: Some(&pred),
                    projection: Some(&[1, 0]),
                    limit: None,
                },
            )
            .unwrap();
        let expected = ops::filter(&t, &pred).unwrap();
        assert_eq!(out.rows_scanned, 2000);
        assert_eq!(out.table.num_rows(), expected.num_rows());
        assert_eq!(out.table.schema().fields()[0].name, "name");
        assert_eq!(out.table.schema().fields()[1].name, "id");
        assert_eq!(out.table.column(1).value(0), expected.column(0).value(0));
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    #[test]
    fn limit_pushdown_stops_fetching_pages() {
        let t = sample(5000);
        let base = tmp("limit");
        let paged = PagedTable::create(&base, &t).unwrap();
        let pool = BufferPool::new(4);
        let out = paged
            .scan(
                &pool,
                &ScanOptions {
                    predicate: None,
                    projection: None,
                    limit: Some(10),
                },
            )
            .unwrap();
        assert_eq!(out.table.num_rows(), 10);
        assert_eq!(out.pages_read, 1);
        assert!(out.rows_scanned < 5000);
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }
}
