//! The column-at-a-time kernels against their row-at-a-time references
//! (`esharp_relation::oracle`): vectorised expressions over random
//! expression trees, comparisons with a numeric literal on either side,
//! the filter's AND chains over a selection vector (a conjunct that
//! errors only on rows an earlier one rejected passes), typed-key hash
//! joins, aggregates, distinct and sort,
//! and hash partitioning, over random tables of all four types with NaN,
//! ±0.0, repeated floats and empty strings. Floats compare by bit
//! pattern, so "equal" here means bit-identical.

use esharp_relation::exec::{hash_key, hash_partition};
use esharp_relation::ops::{
    aggregate, distinct, hash_join, sort, AggFunc, AggSpec, JoinSide, SortKey,
};
use esharp_relation::{
    oracle, BinOp, Column, CompiledExpr, DataType, Expr, FnUdf, RelError, Schema, SchemaRef, Table,
    UdfRegistry, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Two columns of every type, so expressions and two-column keys can mix
/// equal and different types.
const COLUMNS: [(&str, DataType); 8] = [
    ("i0", DataType::Int),
    ("i1", DataType::Int),
    ("f0", DataType::Float),
    ("f1", DataType::Float),
    ("s0", DataType::Str),
    ("s1", DataType::Str),
    ("b0", DataType::Bool),
    ("b1", DataType::Bool),
];

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
];

/// Small domains, so keys repeat and joins match; zeros for division,
/// negatives for `ln`/`sqrt`, every float corner case.
fn value(rng: &mut StdRng, dtype: DataType) -> Value {
    const FLOATS: [f64; 10] = [
        0.0,
        -0.0,
        1.5,
        1.5,
        -2.0,
        0.1,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        1e300,
    ];
    const STRS: [&str; 6] = ["", "", "a", "ab", "B", "é"];
    match dtype {
        DataType::Int => Value::Int(rng.gen_range(-3i64..4)),
        DataType::Float => Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        DataType::Str => Value::str(STRS[rng.gen_range(0..STRS.len())]),
        DataType::Bool => Value::Bool(rng.gen()),
    }
}

fn schema() -> SchemaRef {
    Schema::of(&COLUMNS)
}

fn table(rng: &mut StdRng, max_rows: usize) -> Table {
    let rows = rng.gen_range(0..=max_rows);
    let data = (0..rows)
        .map(|_| COLUMNS.iter().map(|&(_, t)| value(rng, t)).collect())
        .collect();
    Table::from_rows(schema(), data).unwrap()
}

fn column_of(rng: &mut StdRng, dtype: DataType) -> Expr {
    let names: Vec<&str> = COLUMNS
        .iter()
        .filter(|(_, t)| *t == dtype)
        .map(|(n, _)| *n)
        .collect();
    Expr::col(names[rng.gen_range(0..names.len())])
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A random expression that mostly evaluates to `want`; one node in ten
/// asks for a random type instead, so type errors occur too.
fn expr(rng: &mut StdRng, want: DataType, depth: u32) -> Expr {
    let want = if rng.gen_bool(0.1) {
        pick(rng, &TYPES)
    } else {
        want
    };
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.6) {
            column_of(rng, want)
        } else {
            Expr::Lit(value(rng, want))
        };
    }
    let sub = |rng: &mut StdRng, t: DataType| expr(rng, t, depth - 1);
    match want {
        DataType::Bool => match rng.gen_range(0..4) {
            0 => {
                let op = pick(
                    rng,
                    &[
                        BinOp::Eq,
                        BinOp::Ne,
                        BinOp::Lt,
                        BinOp::Le,
                        BinOp::Gt,
                        BinOp::Ge,
                    ],
                );
                let (lt, rt) = (pick(rng, &TYPES), pick(rng, &TYPES));
                sub(rng, lt).binary(op, sub(rng, rt))
            }
            1 => sub(rng, DataType::Bool).and(sub(rng, DataType::Bool)),
            2 => sub(rng, DataType::Bool).or(sub(rng, DataType::Bool)),
            _ => Expr::Not(Box::new(sub(rng, DataType::Bool))),
        },
        DataType::Int => match rng.gen_range(0..3) {
            0 => Expr::call(
                "imax",
                vec![sub(rng, DataType::Int), sub(rng, DataType::Int)],
            ),
            _ => {
                let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                sub(rng, DataType::Int).binary(op, sub(rng, DataType::Int))
            }
        },
        DataType::Float => match rng.gen_range(0..3) {
            0 => {
                let f = pick(rng, &["abs", "ln", "sqrt"]);
                let t = pick(rng, &[DataType::Int, DataType::Float]);
                Expr::call(f, vec![sub(rng, t)])
            }
            _ => {
                let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                let (lt, rt) = (
                    pick(rng, &[DataType::Int, DataType::Float]),
                    pick(rng, &[DataType::Int, DataType::Float]),
                );
                sub(rng, lt).binary(op, sub(rng, rt))
            }
        },
        DataType::Str => {
            let f = pick(rng, &["lower", "upper"]);
            Expr::call(f, vec![sub(rng, DataType::Str)])
        }
    }
}

/// The built-ins plus a two-argument INT function.
fn udfs() -> UdfRegistry {
    let mut udfs = UdfRegistry::with_builtins();
    udfs.register(Arc::new(FnUdf::new(
        "imax",
        DataType::Int,
        |args| match args {
            [Value::Int(a), Value::Int(b)] => Ok(Value::Int(*a.max(b))),
            _ => Err(RelError::Eval("imax expects two INTs".into())),
        },
    )));
    udfs
}

/// Same type and same bits.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Int(_), Value::Int(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::Bool(_), Value::Bool(_)) => a == b,
        _ => false,
    }
}

fn same_column(col: &Column, values: &[Value]) -> bool {
    col.len() == values.len()
        && values
            .iter()
            .enumerate()
            .all(|(i, v)| same_value(&col.value(i), v))
}

/// Same schema, and the same values row for row, bit for bit.
fn same_table(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema()
        && a.num_rows() == b.num_rows()
        && (0..a.num_rows()).all(|i| {
            a.row(i)
                .iter()
                .zip(b.row(i))
                .all(|(x, y)| same_value(x, &y))
        })
}

/// The oracle over the rows `sel`, in order.
fn oracle_rows(e: &CompiledExpr, t: &Table, sel: &[usize]) -> Result<Vec<Value>, RelError> {
    sel.iter().map(|&row| e.eval(t, row)).collect()
}

fn check_expression(t: &Table, e: &Expr, rng: &mut StdRng) {
    let compiled = e.compile(t.schema(), &udfs()).unwrap();
    let all: Vec<usize> = (0..t.num_rows()).collect();
    let sel: Vec<usize> = match t.num_rows() {
        0 => Vec::new(),
        n => (0..rng.gen_range(0..2 * n))
            .map(|_| rng.gen_range(0..n))
            .collect(),
    };
    for (rows, selection) in [(&all, None), (&sel, Some(sel.as_slice()))] {
        let expected = oracle_rows(&compiled, t, rows);
        match (&expected, compiled.eval_column(t, selection)) {
            (Ok(values), Ok(col)) => assert!(
                same_column(&col, values),
                "{}: column {col:?} != oracle {values:?}",
                e.default_name()
            ),
            (Err(_), Err(_)) => {}
            (want, got) => panic!(
                "{}: oracle {want:?} but column path {got:?}",
                e.default_name()
            ),
        }
    }
    // The filter keeps exactly the rows the oracle says are true.
    let expected = compiled.eval_all(t).and_then(|values| {
        let mut keep = Vec::new();
        for (row, v) in values.iter().enumerate() {
            match v {
                Value::Bool(true) => keep.push(row),
                Value::Bool(false) => {}
                other => return Err(RelError::Eval(format!("not a bool: {other}"))),
            }
        }
        Ok(t.gather(&keep))
    });
    match (expected, esharp_relation::ops::filter(t, &compiled)) {
        (Ok(want), Ok(got)) => assert!(same_table(&want, &got), "{}", e.default_name()),
        (Err(_), Err(_)) => {}
        (want, got) => panic!("{}: filter {want:?} vs {got:?}", e.default_name()),
    }
}

/// Key column pairs for a join: one or two keys, each of one type on
/// both sides.
fn join_keys(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let key = |rng: &mut StdRng| {
        let dtype = pick(rng, &[DataType::Int, DataType::Str, DataType::Float]);
        let of_type: Vec<usize> = (0..COLUMNS.len())
            .filter(|&i| COLUMNS[i].1 == dtype)
            .collect();
        (pick(rng, &of_type), pick(rng, &of_type))
    };
    let n = rng.gen_range(1..=2);
    (0..n).map(|_| key(rng)).unzip()
}

fn agg_spec(rng: &mut StdRng, i: usize) -> AggSpec {
    let col = rng.gen_range(0..COLUMNS.len());
    let name = format!("a{i}");
    match rng.gen_range(0..6) {
        0 => AggSpec::count(name),
        1 => AggSpec::on(AggFunc::Sum, col, name),
        2 => AggSpec::on(AggFunc::Avg, col, name),
        3 => AggSpec::on(AggFunc::Min, col, name),
        4 => AggSpec::on(AggFunc::Max, col, name),
        _ => AggSpec::argmax(rng.gen_range(0..COLUMNS.len()), col, name),
    }
}

/// The rows of `t` the row oracle keeps under `predicate`, or its error.
fn oracle_filter(t: &Table, predicate: &CompiledExpr) -> Result<Table, RelError> {
    let mut keep = Vec::new();
    for (row, v) in predicate.eval_all(t)?.iter().enumerate() {
        match v {
            Value::Bool(true) => keep.push(row),
            Value::Bool(false) => {}
            other => return Err(RelError::Eval(format!("not a bool: {other}"))),
        }
    }
    Ok(t.gather(&keep))
}

/// `i0 >= a AND i1 <> skip AND f0 <= 1e300 AND i0 / i1 > -100`: its last
/// conjunct divides by `i1`, so it errors on any row with `i1 = 0` that
/// reaches it; `skip = 0` rejects those rows first. Built left-deep, or
/// right-deep when `right_deep`.
fn division_chain(a: i64, skip: i64, right_deep: bool) -> Expr {
    let [c1, c2, c3, c4] = [
        Expr::col("i0").ge(Expr::lit(a)),
        Expr::col("i1").binary(BinOp::Ne, Expr::lit(skip)),
        Expr::col("f0").binary(BinOp::Le, Expr::lit(1e300)),
        Expr::col("i0")
            .binary(BinOp::Div, Expr::col("i1"))
            .gt(Expr::lit(-100_i64)),
    ];
    if right_deep {
        c1.and(c2.and(c3.and(c4)))
    } else {
        c1.and(c2).and(c3).and(c4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eval_column_matches_the_row_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(&mut rng, 24);
        for _ in 0..8 {
            let want = pick(&mut rng, &TYPES);
            let e = expr(&mut rng, want, 4);
            check_expression(&t, &e, &mut rng);
        }
    }

    #[test]
    fn and_chains_run_each_conjunct_on_the_surviving_rows(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A row that passes the first and third conjuncts with `i1 = 0`,
        // so the last conjunct has a zero divisor to reach.
        let mut row: Vec<Value> = COLUMNS.iter().map(|&(_, t)| value(&mut rng, t)).collect();
        row[0] = Value::Int(3);
        row[1] = Value::Int(0);
        row[2] = Value::Float(0.0);
        let t = Table::concat(&[
            table(&mut rng, 24),
            Table::from_rows(schema(), vec![row]).unwrap(),
        ])
        .unwrap();
        let a = rng.gen_range(-3i64..=3);
        for right_deep in [false, true] {
            // Guarded: the zero divisors are rejected before the division.
            let guarded = division_chain(a, 0, right_deep).compile(t.schema(), &udfs()).unwrap();
            let got = esharp_relation::ops::filter(&t, &guarded);
            let want = oracle_filter(&t, &guarded);
            match (&got, &want) {
                (Ok(got), Ok(want)) => prop_assert!(same_table(got, want)),
                _ => panic!("guarded chain: filter {got:?} vs oracle {want:?}"),
            }
            // Unguarded: the forced row reaches the division and fails it.
            let unguarded = division_chain(a, 7, right_deep).compile(t.schema(), &udfs()).unwrap();
            prop_assert!(esharp_relation::ops::filter(&t, &unguarded).is_err());
            prop_assert!(oracle_filter(&t, &unguarded).is_err());
        }
    }

    #[test]
    fn literal_comparisons_match_the_row_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(&mut rng, 24);
        let literals = [
            Value::Int(rng.gen_range(-3i64..4)),
            Value::Int(0),
            Value::Float(1.5),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
        ];
        let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
        for column in ["i0", "f0", "s0", "b0"] {
            for lit in &literals {
                let op = pick(&mut rng, &ops);
                let col = Expr::col(column);
                check_expression(&t, &col.clone().binary(op, Expr::Lit(lit.clone())), &mut rng);
                check_expression(&t, &Expr::Lit(lit.clone()).binary(op, col), &mut rng);
            }
        }
        // A computed operand, as in `ModulGain(..) > 0`.
        let sum = Expr::col("f0").binary(BinOp::Add, Expr::col("i1"));
        for lit in &literals {
            let op = pick(&mut rng, &ops);
            check_expression(&t, &sum.clone().binary(op, Expr::Lit(lit.clone())), &mut rng);
        }
    }

    #[test]
    fn hash_join_matches_the_value_keyed_join(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (l, r) = (table(&mut rng, 30), table(&mut rng, 30));
        let (lk, rk) = join_keys(&mut rng);
        for side in [JoinSide::BuildLeft, JoinSide::BuildRight] {
            let got = hash_join(&l, &r, &lk, &rk, side).unwrap();
            let want = oracle::hash_join(&l, &r, &lk, &rk, side).unwrap();
            prop_assert!(same_table(&got, &want), "keys {:?}/{:?} {:?}", lk, rk, side);
        }
    }

    #[test]
    fn aggregate_matches_the_value_keyed_aggregate(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(&mut rng, 40);
        let keys: Vec<usize> = (0..rng.gen_range(0..=2))
            .map(|_| rng.gen_range(0..COLUMNS.len()))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let aggs: Vec<AggSpec> = (0..rng.gen_range(1..=3)).map(|i| agg_spec(&mut rng, i)).collect();
        match (aggregate(&t, &keys, &aggs), oracle::aggregate(&t, &keys, &aggs)) {
            (Ok(got), Ok(want)) => prop_assert!(same_table(&got, &want), "{:?} by {:?}", aggs, keys),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{aggs:?} by {keys:?}: {got:?} vs oracle {want:?}"),
        }
    }

    #[test]
    fn distinct_and_sort_match_value_models(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Few columns, so whole rows repeat.
        let t = table(&mut rng, 30);
        let narrow = Table::new(
            Schema::of(&[COLUMNS[1], COLUMNS[3], COLUMNS[4]]),
            vec![t.column(1).clone(), t.column(3).clone(), t.column(4).clone()],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = narrow.iter_rows().collect();
        let firsts: Vec<usize> = (0..rows.len())
            .filter(|&i| !rows[..i].contains(&rows[i]))
            .collect();
        prop_assert!(same_table(&distinct(&narrow).unwrap(), &narrow.gather(&firsts)));

        let keys = [SortKey::desc(rng.gen_range(0..3)), SortKey::asc(rng.gen_range(0..3))];
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            keys.iter()
                .map(|k| {
                    let ord = rows[a][k.col].cmp(&rows[b][k.col]);
                    if k.ascending { ord } else { ord.reverse() }
                })
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        prop_assert!(same_table(&sort(&narrow, &keys).unwrap(), &narrow.gather(&order)));
    }

    #[test]
    fn hash_partition_membership_matches_hash_key(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table(&mut rng, 40);
        let keys: Vec<usize> = (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..COLUMNS.len())).collect();
        let n = rng.gen_range(1..7);
        let parts = hash_partition(&t, &keys, n);
        for (p, part) in parts.iter().enumerate() {
            let members: Vec<usize> = (0..t.num_rows())
                .filter(|&row| {
                    let key: Vec<Value> = keys.iter().map(|&k| t.column(k).value(row)).collect();
                    (hash_key(&key) % n as u64) as usize == p
                })
                .collect();
            prop_assert!(same_table(part, &t.gather(&members)), "partition {} of {}", p, n);
        }
    }
}
