//! Property-based round-trip tests for the binary table format over
//! arbitrary tables.

use esharp_relation::binfmt::{decode_table, encode_table};
use esharp_relation::{Column, DataType, Field, Schema, Table};
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_round_trip(table in arb_table()) {
        let decoded = decode_table(encode_table(&table)).unwrap();
        prop_assert_eq!(decoded, table);
    }

    #[test]
    fn binary_decode_never_panics_on_corruption(table in arb_table(), cut in 0usize..200) {
        let encoded = encode_table(&table);
        let cut = cut.min(encoded.len());
        // Truncation must yield Err (or Ok for the full buffer) — never panic.
        let prefix = encoded.slice(0..cut);
        let _ = decode_table(prefix);
    }
}
