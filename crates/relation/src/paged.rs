//! On-disk paged tables: the out-of-core backing for [`Table`].
//!
//! A [`PagedTable`] stores a table in the slotted heap pages of
//! [`esharp_storage::HeapFile`], one binfmt chunk of consecutive rows per
//! page (a PAX layout: each page holds whole rows, column by column), and
//! scans stream pages back through a [`BufferPool`] — so a table much
//! larger than the pool can be filtered, projected and joined without
//! ever being fully resident. The schema travels in the heap's user
//! metadata as a binfmt-encoded empty table, which is also every chunk's
//! header.
//!
//! Scans accept pushed-down predicates, projections and limits
//! ([`ScanOptions`]). Without a predicate, the wanted columns of each
//! page are appended straight from the pinned page bytes to the output
//! columns and the others are stepped over; with one, the page's wanted
//! columns are decoded, filtered, and the surviving rows appended. The
//! limit stops page fetches early. [`ScanOutcome::rows_scanned`] reports
//! how many rows were actually decoded, which is what the planner
//! benchmarks to show pushdown working.

use crate::binfmt::{self, Chunk};
use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::expr::CompiledExpr;
use crate::ops;
use crate::schema::{Schema, SchemaRef};
use crate::table::Table;
use esharp_storage::page::MAX_RECORD;
use esharp_storage::{BufferPool, HeapFile, Page, PAGE_SIZE};
use std::path::Path;
use std::sync::Arc;

fn corrupt(what: String) -> RelError {
    RelError::Storage(format!("paged table: {what}"))
}

/// Decode the chunk on `page`, which must be the page's only record and
/// match `schema` column for column: the first `take` rows of schema
/// column `i` are appended to `builders[slot]` when `slots[i]` is
/// `Some(slot)`, every other column is stepped over. Returns the
/// chunk's row count.
fn decode_page(
    schema: &Schema,
    page: &Page,
    slots: &[Option<usize>],
    builders: &mut [Column],
    take: usize,
) -> RelResult<usize> {
    let record = page
        .record(0)
        .ok_or_else(|| corrupt("page holds no chunk".into()))?;
    let mut chunk = Chunk::open(record)?;
    if page.slot_count() != 1 {
        return Err(corrupt(format!(
            "page holds {} records, not one chunk",
            page.slot_count()
        )));
    }
    if chunk.columns() != schema.len() {
        return Err(corrupt(format!(
            "chunk has {} columns, the schema {}",
            chunk.columns(),
            schema.len()
        )));
    }
    for (field, slot) in schema.fields().iter().zip(slots) {
        let (name, dtype) = chunk.field()?;
        if name != field.name || dtype != field.dtype {
            return Err(corrupt(format!(
                "chunk column {name}: {dtype} differs from the schema's {}: {}",
                field.name, field.dtype
            )));
        }
        chunk.values(dtype, take, slot.map(|s| &mut builders[s]))?;
    }
    chunk.finish()?;
    Ok(chunk.rows())
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
    /// `<base>.meta` and return the handle. Rows are packed greedily, in
    /// order, into chunks that fit one page; a row too large for a page
    /// of its own is an error. The schema travels in the heap's user
    /// metadata as a binfmt-encoded empty table, so [`PagedTable::open`]
    /// needs no side channel.
    pub fn create(base: &Path, table: &Table) -> RelResult<PagedTable> {
        let user_meta = binfmt::encode_table(&Table::empty(table.schema().clone()));
        let heap = HeapFile::create(base, &user_meta)?;
        let lens = binfmt::row_lens(table);
        let mut chunk = Vec::with_capacity(MAX_RECORD);
        let mut start = 0;
        while start < lens.len() {
            let mut end = start;
            let mut bytes = user_meta.len();
            while end < lens.len() && bytes + lens[end] <= MAX_RECORD {
                bytes += lens[end];
                end += 1;
            }
            if end == start {
                return Err(RelError::Storage(format!(
                    "row of {} bytes exceeds the page capacity",
                    lens[start]
                )));
            }
            chunk.clear();
            binfmt::encode_rows_into(table, start..end, &mut chunk);
            let mut page = Page::empty();
            page.insert(&chunk).ok_or_else(|| {
                corrupt(format!("chunk of {} bytes overflows its page", chunk.len()))
            })?;
            heap.append_page(&mut page)?;
            start = end;
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
        let empty = binfmt::decode_table(heap.user_meta())?;
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
    /// predicate, projection and limit as pages arrive. Only the columns
    /// the projection or the predicate reads are decoded. A scan that
    /// reads every page checks that the chunks' rows add up to the
    /// committed row count.
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
        // Each schema column's position among `cols` (in schema order),
        // or `None` when it is not among them.
        let slots_of = |cols: &[usize]| -> Vec<Option<usize>> {
            let mut slots = vec![None; width];
            for (slot, i) in (0..width).filter(|i| cols.contains(i)).enumerate() {
                slots[i] = Some(slot);
            }
            slots
        };
        let columns_of = |slots: &[Option<usize>]| -> Vec<Column> {
            (0..width)
                .filter(|&i| slots[i].is_some())
                .map(|i| Column::empty(self.schema.field(i).dtype))
                .collect()
        };
        // The output is built in schema order, one column per projected
        // column, and put in projection order at the end.
        let kept = slots_of(&projection);
        let mut built = columns_of(&kept);
        // With a predicate, a page's wanted columns are decoded first,
        // filtered with the predicate remapped to their positions, and
        // the kept ones appended.
        let filter = match opts.predicate {
            Some(pred) => {
                let decoded = slots_of(&wanted);
                let remap: Vec<usize> = decoded.iter().map(|s| s.unwrap_or(0)).collect();
                let fields = (0..width)
                    .filter(|&i| decoded[i].is_some())
                    .map(|i| self.schema.field(i).clone())
                    .collect();
                Some((pred.remap(&remap), Arc::new(Schema::new(fields)?), decoded))
            }
            None => None,
        };

        let limit = opts.limit.unwrap_or(usize::MAX);
        let mut rows_scanned = 0u64;
        let mut pages_read = 0u64;
        let mut chunk_rows = 0u64;
        let mut taken = 0usize;
        // Scan-resistant admission: this sequential pass confines its
        // churn to a small per-scan ring instead of flooding the pool,
        // so pages other consumers (or a repeat of this scan) rely on
        // stay resident.
        let hint = pool.scan_hint();
        let pages = self.heap.page_count();
        let mut no = 0;
        while no < pages && taken < limit {
            let guard = pool.fetch_hinted(&self.heap, no, Some(&hint))?;
            let page = guard.page();
            pages_read += 1;
            no += 1;
            let rows = match &filter {
                None => {
                    let take = limit - taken;
                    let rows = decode_page(&self.schema, &page, &kept, &mut built, take)?;
                    rows_scanned += rows.min(take) as u64;
                    taken += rows.min(take);
                    rows
                }
                Some((pred, schema, decoded)) => {
                    let mut cols = columns_of(decoded);
                    let rows = decode_page(&self.schema, &page, decoded, &mut cols, usize::MAX)?;
                    rows_scanned += rows as u64;
                    let mut t = ops::filter(&Table::new(schema.clone(), cols)?, pred)?;
                    if t.num_rows() > limit - taken {
                        t = ops::limit(&t, limit - taken)?;
                    }
                    taken += t.num_rows();
                    for (i, slot) in kept.iter().enumerate() {
                        if let (Some(slot), Some(pos)) = (slot, decoded[i]) {
                            built[*slot].extend_from(t.column(pos))?;
                        }
                    }
                    rows
                }
            };
            chunk_rows += rows as u64;
            if chunk_rows > self.num_rows() {
                return Err(corrupt(format!(
                    "page {} takes the chunks past the {} committed rows",
                    no - 1,
                    self.num_rows()
                )));
            }
        }
        if no == pages && chunk_rows != self.num_rows() {
            return Err(corrupt(format!(
                "chunks hold {chunk_rows} rows, the heap commits {}",
                self.num_rows()
            )));
        }
        let built: Vec<Arc<Column>> = built.into_iter().map(Arc::new).collect();
        let fields = projection
            .iter()
            .map(|&i| self.schema.field(i).clone())
            .collect();
        let columns = projection
            .iter()
            .map(|&i| kept[i].map(|slot| Arc::clone(&built[slot])))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| corrupt("projection lost a column".into()))?;
        Ok(ScanOutcome {
            table: Table::from_shared(Arc::new(Schema::new(fields)?), columns)?,
            rows_scanned,
            pages_read,
        })
    }

    /// Materialize the whole table (no pushdown).
    pub fn read_all(&self, pool: &BufferPool) -> RelResult<Table> {
        Ok(self.scan(pool, &ScanOptions::default())?.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::udf::UdfRegistry;
    use crate::value::{DataType, Value};
    use esharp_fault::corrupt::{assert_rejects_damage_where, for_each_damage, Damage};
    use esharp_storage::page::MAX_RECORD;

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

    #[test]
    fn rows_pack_greedily_one_chunk_per_page() {
        let t = sample(5000);
        let base = tmp("packing");
        let paged = PagedTable::create(&base, &t).unwrap();
        let header = binfmt::encode_table(&Table::empty(t.schema().clone())).len();
        let lens = binfmt::row_lens(&t);
        let mut start = 0;
        for no in 0..paged.page_count() {
            let page = paged.heap().read_page(no).unwrap();
            assert_eq!(page.slot_count(), 1);
            let chunk = page.record(0).unwrap();
            let rows = Chunk::open(chunk).unwrap().rows();
            assert_eq!(
                chunk.len(),
                header + lens[start..start + rows].iter().sum::<usize>()
            );
            // Greedy: the next row would not have fit.
            if let Some(next) = lens.get(start + rows) {
                assert!(chunk.len() + next > MAX_RECORD, "page {no}");
            }
            start += rows;
        }
        assert_eq!(start, 5000);
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    #[test]
    fn a_row_larger_than_a_page_is_an_error() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        let rows = vec![
            vec![Value::str("x")],
            vec![Value::str("y".repeat(MAX_RECORD))],
        ];
        let t = Table::from_rows(schema, rows).unwrap();
        let err = PagedTable::create(&tmp("oversized"), &t).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the page capacity"),
            "{err}"
        );
    }

    /// A one-page heap at `base` whose page holds `records` (resealed,
    /// so its CRC is valid) and which commits `rows` rows of `schema`.
    fn heap_of(base: &Path, schema: &SchemaRef, records: &[&[u8]], rows: u64) -> PagedTable {
        let heap =
            HeapFile::create(base, &binfmt::encode_table(&Table::empty(schema.clone()))).unwrap();
        let mut page = Page::empty();
        for record in records {
            page.insert(record).unwrap();
        }
        heap.append_page(&mut page).unwrap();
        heap.add_records(rows);
        heap.sync().unwrap();
        PagedTable::open(base).unwrap()
    }

    /// Every scan shape of `paged` errors: the full table, one column,
    /// and the predicate path.
    fn assert_every_scan_fails(paged: &PagedTable, case: &str) {
        let pool = BufferPool::new(2);
        let udfs = UdfRegistry::with_builtins();
        let pred = Expr::col("id")
            .gt(Expr::lit(-1))
            .compile(paged.schema(), &udfs)
            .unwrap();
        let scans = [
            ScanOptions::default(),
            ScanOptions {
                projection: Some(&[2]),
                ..Default::default()
            },
            ScanOptions {
                predicate: Some(&pred),
                ..Default::default()
            },
        ];
        for opts in &scans {
            match paged.scan(&pool, opts) {
                Ok(out) => panic!("{case}: scanned {} rows", out.table.num_rows()),
                Err(err) => assert!(
                    matches!(err, RelError::Storage(_) | RelError::Eval(_)),
                    "{case}: {err}"
                ),
            }
        }
    }

    #[test]
    fn structurally_bad_chunks_with_valid_crcs_are_rejected() {
        let t = sample(3);
        let schema = t.schema().clone();
        let good = binfmt::encode_table(&t);
        let base = tmp("bad_chunks");
        // The good page scans back whole.
        let paged = heap_of(&base, &schema, &[&good], 3);
        assert_eq!(paged.read_all(&BufferPool::new(2)).unwrap(), t);

        let mut past_payload = good.clone();
        past_payload[10..18].copy_from_slice(&1000u64.to_le_bytes());
        let narrower = binfmt::encode_table(&Table::empty(Schema::of(&[("id", DataType::Int)])));
        let retyped = binfmt::encode_table(&Table::empty(Schema::of(&[
            ("id", DataType::Float),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("flag", DataType::Bool),
        ])));
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        let cases: [(&str, Vec<&[u8]>, u64); 7] = [
            ("row count past the payload", vec![&past_payload], 1000),
            ("fewer columns than the schema", vec![&narrower], 0),
            ("a dtype other than the schema's", vec![&retyped], 0),
            ("trailing bytes", vec![&trailing], 3),
            ("chunk rows short of record_count", vec![&good], 4),
            ("chunk rows past record_count", vec![&good], 2),
            ("two records on a page", vec![&good, &good], 6),
        ];
        for (case, records, rows) in cases {
            assert_every_scan_fails(&heap_of(&base, &schema, &records, rows), case);
        }
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    #[test]
    fn a_heap_in_the_row_layout_fails_with_bad_magic() {
        // One record per row: `id` as 8 bytes, `name` as length + bytes,
        // `score` as 8 bytes, `flag` as 1 byte.
        let t = sample(3);
        let mut rows = Vec::new();
        for i in 0..3i64 {
            let mut rec = i.to_le_bytes().to_vec();
            let name = format!("row-{i}");
            rec.extend_from_slice(&(name.len() as u32).to_le_bytes());
            rec.extend_from_slice(name.as_bytes());
            rec.extend_from_slice(&(i as f64 / 7.0).to_le_bytes());
            rec.push((i % 3 == 0) as u8);
            rows.push(rec);
        }
        let records: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let base = tmp("row_layout");
        let paged = heap_of(&base, t.schema(), &records, 3);
        let err = paged.read_all(&BufferPool::new(2)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    /// Open the heap at `base` with its data file replaced by `image`
    /// and scan it whole.
    fn open_and_scan(base: &Path, image: &[u8]) -> std::io::Result<Table> {
        // Overwritten in place, not truncated to zero first: a file
        // truncated and rewritten is flushed to disk on close, and this
        // runs for every one of the ~74k images.
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(base.with_extension("heap"))?;
        std::io::Write::write_all(&mut file, image)?;
        file.set_len(image.len() as u64)?;
        drop(file);
        let scan = || PagedTable::open(base)?.read_all(&BufferPool::new(2));
        scan().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The `.heap` file of a one-page table in the corruption matrix:
    /// every truncation fails at open and every bit flip at the page CRC.
    /// Bytes after the committed page are a page appended but never
    /// synced, so a trailing image opens to the committed table.
    #[test]
    fn every_damage_of_the_heap_file_is_rejected() {
        let t = sample(40);
        let base = tmp("matrix");
        let paged = PagedTable::create(&base, &t).unwrap();
        assert_eq!(paged.page_count(), 1);
        let good = std::fs::read(base.with_extension("heap")).unwrap();
        let cut_or_flipped = |damage| !matches!(damage, Damage::Trailing(_));
        assert_rejects_damage_where("paged table heap", &good, cut_or_flipped, |image| {
            open_and_scan(&base, image)
        });
        for_each_damage(&good, |damage, image| {
            if let Damage::Trailing(_) = damage {
                assert_eq!(open_and_scan(&base, image).unwrap(), t, "{damage:?}");
            }
        });
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }
}
