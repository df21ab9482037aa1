//! Property-based tests of the one table codec over arbitrary tables:
//! the binary format round-trips, its bulk encoder writes the bytes a
//! value-at-a-time encoder writes, and a paged table (one chunk per heap
//! page) scans back to the in-memory table under every pushdown.

use esharp_relation::binfmt::{decode_table, encode_table};
use esharp_relation::ops::{filter, limit};
use esharp_relation::{
    BufferPool, Column, DataType, Expr, Field, PagedTable, ScanOptions, Schema, Table,
    UdfRegistry,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An arbitrary table: random column mix, up to 30 rows.
fn arb_table() -> impl Strategy<Value = Table> {
    let col_kinds = prop::collection::vec(0u8..4, 1..5);
    (col_kinds, 0usize..30).prop_flat_map(|(kinds, rows)| {
        let fields: Vec<Field> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| Field::new(format!("c{i}"), tag_to_dtype(k)))
            .collect();
        let column_strategies: Vec<BoxedStrategy<Column>> = kinds
            .iter()
            .map(|&k| column_strategy(k, rows))
            .collect();
        (Just(fields), column_strategies).prop_map(|(fields, columns)| {
            Table::new(Arc::new(Schema::new(fields).unwrap()), columns).unwrap()
        })
    })
}

fn tag_to_dtype(k: u8) -> DataType {
    match k {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        _ => DataType::Str,
    }
}

fn column_strategy(kind: u8, rows: usize) -> BoxedStrategy<Column> {
    match kind {
        0 => prop::collection::vec(any::<bool>(), rows)
            .prop_map(Column::Bool)
            .boxed(),
        1 => prop::collection::vec(any::<i64>(), rows)
            .prop_map(Column::Int)
            .boxed(),
        2 => prop::collection::vec(-1e9f64..1e9, rows)
            .prop_map(Column::Float)
            .boxed(),
        _ => prop::collection::vec("[ -~]{0,12}", rows) // printable ASCII incl. commas/quotes
            .prop_map(|v| Column::Str(v.into_iter().map(|s| Arc::from(s.as_str())).collect()))
            .boxed(),
    }
}

/// The binary format written one value at a time, as the encoder did
/// before it wrote whole columns: the reference the bulk encoder's bytes
/// must equal.
fn encode_per_value(table: &Table) -> Vec<u8> {
    let mut buf = b"ESRT".to_vec();
    buf.extend_from_slice(&3u16.to_le_bytes());
    buf.extend_from_slice(&(table.schema().len() as u32).to_le_bytes());
    buf.extend_from_slice(&(table.num_rows() as u64).to_le_bytes());
    for (field, column) in table.schema().fields().iter().zip(table.columns()) {
        buf.extend_from_slice(&(field.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(field.name.as_bytes());
        buf.push(match field.dtype {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
        });
        for row in 0..table.num_rows() {
            match column.as_ref() {
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
    buf
}

/// Largest record of a heap page (`esharp_storage::page::MAX_RECORD`).
const PAGE_RECORD: usize = 8192 - 8 - 4;

/// A table of all four types, `c0: Int` first, whose strings are short
/// or sized around a half and a whole page, so rows straddle page
/// boundaries and some rows fill a page alone (or overflow it).
fn arb_paged_table() -> impl Strategy<Value = Table> {
    // A chunk of one row holds the 38-byte header and 21 bytes of the
    // row besides its string, so a string of `WHOLE` bytes fills a page
    // exactly and one byte more overflows it.
    const WHOLE: usize = PAGE_RECORD - 38 - 21;
    let string = prop_oneof![
        8 => "[a-z]{0,12}",
        1 => (PAGE_RECORD / 2 - 64..PAGE_RECORD / 2 + 64).prop_map(|n| "h".repeat(n)),
        1 => (WHOLE - 64..WHOLE + 2).prop_map(|n| "w".repeat(n)),
    ];
    let row = (any::<i64>(), any::<bool>(), -1e9f64..1e9, string);
    prop::collection::vec(row, 0..120).prop_map(|rows| {
        let schema = Schema::of(&[
            ("c0", DataType::Int),
            ("c1", DataType::Bool),
            ("c2", DataType::Float),
            ("c3", DataType::Str),
        ]);
        Table::new(
            schema,
            vec![
                Column::Int(rows.iter().map(|r| r.0).collect()),
                Column::Bool(rows.iter().map(|r| r.1).collect()),
                Column::Float(rows.iter().map(|r| r.2).collect()),
                Column::Str(rows.iter().map(|r| Arc::from(r.3.as_str())).collect()),
            ],
        )
        .unwrap()
    })
}

/// `None`, or a value of `strategy`.
fn maybe<S>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + std::fmt::Debug + 'static,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

/// A fresh heap base path per case.
fn heap_base() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "esharp_proptest_paged_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_encoder_writes_the_per_value_bytes(table in arb_table()) {
        prop_assert_eq!(encode_table(&table), encode_per_value(&table));
    }

    /// A paged scan with any pushdown, through any pool of 2 or more
    /// frames, returns what filtering, limiting and projecting the
    /// in-memory table returns; a table with a row larger than a page
    /// is refused at create.
    #[test]
    fn paged_scans_match_the_in_memory_table(
        table in arb_paged_table(),
        frames in 2usize..10,
        threshold in maybe(any::<i64>()),
        projection in maybe(prop::collection::vec(0usize..4, 1..6).prop_map(|mut cols| {
            // Distinct columns, in drawn order: a schema's names are unique.
            let mut seen = [false; 4];
            cols.retain(|&c| !std::mem::replace(&mut seen[c], true));
            cols
        })),
        cut in maybe(0usize..130),
    ) {
        let base = heap_base();
        let header = encode_table(&Table::empty(table.schema().clone())).len();
        let widest = (0..table.num_rows())
            .map(|row| 17 + 4 + table.column(3).value(row).to_string().len())
            .max()
            .unwrap_or(0);
        let created = PagedTable::create(&base, &table);
        if header + widest > PAGE_RECORD {
            prop_assert!(created.is_err());
        } else {
            let paged = created.unwrap();
            let udfs = UdfRegistry::with_builtins();
            let pred = threshold
                .map(|k| Expr::col("c0").gt(Expr::lit(k)).compile(table.schema(), &udfs).unwrap());
            let out = paged
                .scan(
                    &BufferPool::new(frames),
                    &ScanOptions {
                        predicate: pred.as_ref(),
                        projection: projection.as_deref(),
                        limit: cut,
                    },
                )
                .unwrap();
            let mut expected = table.clone();
            if let Some(pred) = &pred {
                expected = filter(&expected, pred).unwrap();
            }
            if let Some(n) = cut {
                expected = limit(&expected, n).unwrap();
            }
            if let Some(cols) = &projection {
                let fields = cols.iter().map(|&i| table.schema().field(i).clone()).collect();
                let columns = cols.iter().map(|&i| expected.column(i).clone()).collect();
                expected = Table::new(Arc::new(Schema::new(fields).unwrap()), columns).unwrap();
            }
            prop_assert_eq!(out.table, expected);
        }
        let _ = std::fs::remove_file(base.with_extension("heap"));
        let _ = std::fs::remove_file(base.with_extension("meta"));
    }

    #[test]
    fn binary_round_trip(table in arb_table()) {
        let decoded = decode_table(&encode_table(&table)).unwrap();
        prop_assert_eq!(decoded, table);
    }

    #[test]
    fn binary_decode_never_panics_on_corruption(table in arb_table(), cut in 0usize..200) {
        let encoded = encode_table(&table);
        let cut = cut.min(encoded.len());
        // Truncation must yield Err (or Ok for the full buffer) — never panic.
        let _ = decode_table(&encoded[..cut]);
    }
}
