//! Property-based tests of the relational operators against naive models.
//!
//! Every join, aggregate, distinct and partition property runs in two key
//! spaces (`KeySpace`): dense keys, which the join and group indexes
//! address directly, and the same keys spread over the whole `i64`
//! range, which they hash.

use esharp_relation::ops::{aggregate, distinct, hash_join, limit, sort, AggFunc, AggSpec, JoinSide, SortKey};
use esharp_relation::exec::{hash_partition, Cluster, JoinStrategy};
use esharp_relation::{
    AggCall, Catalog, DataType, Estimate, ExecContext, Expr, PhysicalPlan, Schema, StatsRegistry,
    Table, Value,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// A random two-column table: small integer key, arbitrary value.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..8, -100i64..100), 0..max_rows).prop_map(|rows| {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        Table::from_rows(
            schema,
            rows.into_iter()
                .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
        .unwrap()
    })
}

/// [`arb_table`] with its columns renamed `(k2, w)`, a join partner whose
/// names do not collide with `(k, v)`.
fn arb_right_table(max_rows: usize) -> impl Strategy<Value = Table> {
    arb_table(max_rows).prop_map(|t| {
        let schema = Schema::of(&[("k2", DataType::Int), ("w", DataType::Int)]);
        Table::from_rows(schema, t.iter_rows().collect()).unwrap()
    })
}

/// The key values of a table's first column. The strategies draw dense
/// keys `0..8`, which every join and group index addresses directly
/// (`key − min`). `Sparse` spreads the same keys over the whole `i64`
/// range by a large odd multiplier, key 0 at `i64::MIN` and key 7 at
/// `i64::MAX − 8`, so every index over them hashes. The spread is
/// strictly increasing: key order, and with it every operator's output
/// order, is the same in both spaces.
#[derive(Debug, Clone, Copy)]
enum KeySpace {
    Dense,
    Sparse,
}

/// The sparse keys' step: odd, and `7 × SPREAD` still fits a `u64`.
const SPREAD: u64 = 0x2492_4924_9249_2491;

impl KeySpace {
    const BOTH: [KeySpace; 2] = [KeySpace::Dense, KeySpace::Sparse];

    /// Dense key `k` in this space.
    fn key(self, k: i64) -> i64 {
        match self {
            KeySpace::Dense => k,
            KeySpace::Sparse => i64::MIN.wrapping_add((k as u64).wrapping_mul(SPREAD) as i64),
        }
    }

    /// The dense key that is `key` in this space.
    fn dense(self, key: i64) -> i64 {
        match self {
            KeySpace::Dense => key,
            KeySpace::Sparse => (key.wrapping_sub(i64::MIN) as u64 / SPREAD) as i64,
        }
    }

    /// `t` with the keys of its first column moved into this space.
    fn table(self, t: &Table) -> Table {
        let rows = t
            .iter_rows()
            .map(|mut row| {
                row[0] = Value::Int(self.key(row[0].as_int().unwrap()));
                row
            })
            .collect();
        Table::from_rows(t.schema().clone(), rows).unwrap()
    }

    /// `t`'s rows, in order, with the keys in columns `key_cols` moved
    /// back to the dense space and every value spelled out to its bits.
    fn dense_bits(self, t: &Table, key_cols: &[usize]) -> Vec<Vec<String>> {
        t.iter_rows()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .map(|(c, v)| match v {
                        Value::Int(k) if key_cols.contains(&c) => format!("i{}", self.dense(k)),
                        Value::Int(i) => format!("i{i}"),
                        Value::Float(x) => format!("f{:016x}", x.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }
}

/// The first column of `t` alone.
fn key_column(t: &Table) -> Table {
    let schema = Schema::of(&[("k", DataType::Int)]);
    let rows = t.iter_rows().map(|row| vec![row[0].clone()]).collect();
    Table::from_rows(schema, rows).unwrap()
}

/// `left ⋈ right ON on` as the physical executor runs it, with the join
/// strategy, build side and worker count forced instead of planned.
fn physical_join(
    left: &Table,
    right: &Table,
    on: &Expr,
    strategy: JoinStrategy,
    build_left: bool,
    workers: usize,
) -> Table {
    let catalog = Catalog::new();
    catalog.register("l", left.clone());
    catalog.register("r", right.clone());
    let ctx = ExecContext::new(catalog).with_cluster(Cluster::new(workers));
    let est = Estimate {
        rows: 0.0,
        bytes: 0.0,
        measured: false,
    };
    let scan = |id, table: &str| {
        Box::new(PhysicalPlan::SeqScan {
            id,
            table: table.into(),
            projection: None,
            predicate: None,
            limit: None,
            est,
        })
    };
    let plan = PhysicalPlan::HashJoin {
        id: 0,
        left: scan(1, "l"),
        right: scan(2, "r"),
        on: on.clone(),
        build_left,
        strategy,
        est,
    };
    ctx.execute_physical(&plan).unwrap()
}

/// Every answer the operators give over `l` (`k, v`) and `r` (`k2, w`)
/// moved into `space`, listed row for row with the keys moved back:
/// both joins, an aggregate of every function over `l`, an `argmax`
/// aggregate over the join, and distinct over whole rows and over keys.
fn answers_in(space: KeySpace, l: &Table, r: &Table) -> Vec<Vec<Vec<String>>> {
    let (l, r) = (space.table(l), space.table(r));
    let mut out = Vec::new();
    for side in [JoinSide::BuildRight, JoinSide::BuildLeft] {
        let joined = hash_join(&l, &r, &[0], &[0], side).unwrap();
        out.push(space.dense_bits(&joined, &[0, 2]));
        let by_key = aggregate(
            &joined,
            &[0],
            &[
                AggSpec::argmax(3, 1, "best"),
                AggSpec::on(AggFunc::Avg, 3, "aw"),
                AggSpec::count("n"),
            ],
        )
        .unwrap();
        out.push(space.dense_bits(&by_key, &[0]));
    }
    let every = aggregate(
        &l,
        &[0],
        &[
            AggSpec::count("n"),
            AggSpec::on(AggFunc::Sum, 1, "s"),
            AggSpec::on(AggFunc::Min, 1, "mn"),
            AggSpec::on(AggFunc::Max, 1, "mx"),
            AggSpec::on(AggFunc::Avg, 1, "a"),
            AggSpec::argmax(1, 1, "am"),
        ],
    )
    .unwrap();
    out.push(space.dense_bits(&every, &[0]));
    out.push(space.dense_bits(&distinct(&l).unwrap(), &[0]));
    out.push(space.dense_bits(&distinct(&key_column(&l)).unwrap(), &[0]));
    out
}

/// `t` (`k, v`) with a third column `x = v / 7 + 0.1`, whose float sums
/// and averages depend on the order their rows are added in.
fn with_floats(t: &Table) -> Table {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int), ("x", DataType::Float)]);
    let rows = t
        .iter_rows()
        .map(|mut row| {
            let x = row[1].as_int().unwrap() as f64 / 7.0 + 0.1;
            row.push(Value::Float(x));
            row
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

/// An aggregate of every function over `t` (`k, v, x`) grouped by `k`,
/// as the physical executor runs it under a `grant`-byte memory grant,
/// with the spilled bytes and parts its stats record.
fn physical_aggregate(t: &Table, grant: usize) -> (Table, u64, u64) {
    let catalog = Catalog::new();
    catalog.register("t", t.clone());
    let registry = StatsRegistry::new();
    let ctx = ExecContext::new(catalog)
        .with_memory_grant(grant)
        .with_spill_root(std::env::temp_dir())
        .with_stats(registry.clone());
    let est = Estimate {
        rows: 0.0,
        bytes: 0.0,
        measured: false,
    };
    let call = |func, args: &[&str], alias: &str| AggCall {
        func,
        args: args.iter().map(|a| a.to_string()).collect(),
        alias: alias.into(),
    };
    let plan = PhysicalPlan::Aggregate {
        id: 0,
        input: Box::new(PhysicalPlan::SeqScan {
            id: 1,
            table: "t".into(),
            projection: None,
            predicate: None,
            limit: None,
            est,
        }),
        group_by: vec!["k".into()],
        aggs: vec![
            call(AggFunc::Count, &[], "n"),
            call(AggFunc::Sum, &["x"], "s"),
            call(AggFunc::Avg, &["x"], "a"),
            call(AggFunc::Min, &["v"], "mn"),
            call(AggFunc::Max, &["x"], "mx"),
            call(AggFunc::ArgMax, &["x", "v"], "am"),
        ],
        est,
    };
    let out = ctx.execute_physical(&plan).unwrap();
    let stats = registry.snapshot();
    let spilled = stats.iter().map(|s| s.spill_bytes).sum();
    let parts = stats.iter().map(|s| s.spill_parts).sum();
    (out, spilled, parts)
}

proptest! {
    /// The spilled aggregate at a 64-byte grant equals the in-memory
    /// operator row for row and bit for bit, over dense keys (cut into
    /// key ranges) and spread keys (hash-partitioned) alike; both spill
    /// the same bytes in the same number of parts.
    #[test]
    fn spilled_aggregate_matches_in_memory_bit_for_bit(t in arb_table(120)) {
        let t = with_floats(&t);
        let specs = [
            AggSpec::count("n"),
            AggSpec::on(AggFunc::Sum, 2, "s"),
            AggSpec::on(AggFunc::Avg, 2, "a"),
            AggSpec::on(AggFunc::Min, 1, "mn"),
            AggSpec::on(AggFunc::Max, 2, "mx"),
            AggSpec::argmax(2, 1, "am"),
        ];
        let mut spills = Vec::new();
        for space in KeySpace::BOTH {
            let t = space.table(&t);
            let in_memory = aggregate(&t, &[0], &specs).unwrap();
            let (spilled, bytes, parts) = physical_aggregate(&t, 64);
            prop_assert_eq!(
                space.dense_bits(&spilled, &[0]),
                space.dense_bits(&in_memory, &[0]),
                "{:?}",
                space
            );
            prop_assert_eq!(bytes > 0, t.byte_size() > 64, "{:?}", space);
            spills.push((bytes, parts));
        }
        prop_assert_eq!(spills[0], spills[1]);
    }

    #[test]
    fn filter_returns_subset_and_matches_model(t in arb_table(60), threshold in -100i64..100) {
        let ctx = ExecContext::new(Catalog::new());
        let pred = Expr::col("v").ge(Expr::lit(threshold)).compile(t.schema(), &ctx.udfs).unwrap();
        let out = esharp_relation::ops::filter(&t, &pred).unwrap();
        let expected = t
            .iter_rows()
            .filter(|r| r[1].as_int().unwrap() >= threshold)
            .count();
        prop_assert_eq!(out.num_rows(), expected);
        for row in out.iter_rows() {
            prop_assert!(row[1].as_int().unwrap() >= threshold);
        }
    }

    #[test]
    fn join_row_count_matches_key_multiplicity_product(
        l in arb_table(40),
        r in arb_table(40),
    ) {
        for space in KeySpace::BOTH {
            let (l, r) = (space.table(&l), space.table(&r));
            let out = hash_join(&l, &r, &[0], &[0], JoinSide::BuildRight).unwrap();
            let mut left_counts: HashMap<i64, usize> = HashMap::new();
            for row in l.iter_rows() {
                *left_counts.entry(row[0].as_int().unwrap()).or_insert(0) += 1;
            }
            let mut expected = 0usize;
            for row in r.iter_rows() {
                expected += left_counts.get(&row[0].as_int().unwrap()).copied().unwrap_or(0);
            }
            prop_assert_eq!(out.num_rows(), expected, "{:?}", space);
        }
    }

    #[test]
    fn join_is_build_side_invariant(l in arb_table(30), r in arb_table(30)) {
        for space in KeySpace::BOTH {
            let (l, r) = (space.table(&l), space.table(&r));
            let a = hash_join(&l, &r, &[0], &[0], JoinSide::BuildRight).unwrap();
            let b = hash_join(&l, &r, &[0], &[0], JoinSide::BuildLeft).unwrap();
            prop_assert_eq!(a.sorted_rows(), b.sorted_rows(), "{:?}", space);
        }
    }

    #[test]
    fn parallel_join_matches_serial_for_all_strategies(
        l in arb_table(50),
        r in arb_right_table(50),
    ) {
        for space in KeySpace::BOTH {
            let (l, r) = (space.table(&l), space.table(&r));
            let equi = Expr::col("k").eq(Expr::col("k2"));
            let with_residual = equi.clone().and(Expr::col("v").lt(Expr::col("w")));
            for (on, residual) in [(equi, false), (with_residual, true)] {
                // Nested-loop model of the ON clause.
                let mut expected = Vec::new();
                for a in l.iter_rows() {
                    for b in r.iter_rows() {
                        if a[0] == b[0] && (!residual || a[1].as_int() < b[1].as_int()) {
                            expected.push([a.clone(), b].concat());
                        }
                    }
                }
                expected.sort();
                for strategy in [JoinStrategy::Broadcast, JoinStrategy::CoPartitioned] {
                    for build_left in [false, true] {
                        for workers in 1..=8 {
                            let out = physical_join(&l, &r, &on, strategy, build_left, workers);
                            prop_assert_eq!(
                                &out.sorted_rows(),
                                &expected,
                                "{:?}, {:?}, build_left {}, {} workers, residual {}",
                                space,
                                strategy,
                                build_left,
                                workers,
                                residual
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn aggregate_sum_count_match_model(t in arb_table(80)) {
        for space in KeySpace::BOTH {
            let t = space.table(&t);
            let out = aggregate(
                &t,
                &[0],
                &[AggSpec::count("n"), AggSpec::on(AggFunc::Sum, 1, "s")],
            )
            .unwrap();
            let mut model: HashMap<i64, (i64, i64)> = HashMap::new();
            for row in t.iter_rows() {
                let e = model.entry(row[0].as_int().unwrap()).or_insert((0, 0));
                e.0 += 1;
                e.1 += row[1].as_int().unwrap();
            }
            prop_assert_eq!(out.num_rows(), model.len(), "{:?}", space);
            for row in out.iter_rows() {
                let (n, s) = model[&row[0].as_int().unwrap()];
                prop_assert_eq!(row[1].as_int().unwrap(), n);
                prop_assert_eq!(row[2].as_int().unwrap(), s);
            }
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial(t in arb_table(80), workers in 2usize..6) {
        let aggs = [
            AggSpec::count("n"),
            AggSpec::on(AggFunc::Min, 1, "mn"),
            AggSpec::on(AggFunc::Max, 1, "mx"),
            AggSpec::argmax(1, 1, "am"),
        ];
        for space in KeySpace::BOTH {
            let t = space.table(&t);
            let serial = aggregate(&t, &[0], &aggs).unwrap();
            let par = Cluster::new(workers).aggregate(&t, &[0], &aggs).unwrap();
            prop_assert_eq!(serial.sorted_rows(), par.sorted_rows(), "{:?}", space);
        }
    }

    #[test]
    fn sort_is_an_ordered_permutation(t in arb_table(50)) {
        let out = sort(&t, &[SortKey::asc(1), SortKey::asc(0)]).unwrap();
        prop_assert_eq!(out.num_rows(), t.num_rows());
        prop_assert_eq!(out.sorted_rows(), t.sorted_rows());
        let values: Vec<i64> = out.iter_rows().map(|r| r[1].as_int().unwrap()).collect();
        for pair in values.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn distinct_then_distinct_is_idempotent(t in arb_table(50)) {
        for space in KeySpace::BOTH {
            // Whole rows (two columns: hashed) and the key column alone.
            let t = space.table(&t);
            for input in [t.clone(), key_column(&t)] {
                let once = distinct(&input).unwrap();
                let twice = distinct(&once).unwrap();
                prop_assert_eq!(once.sorted_rows(), twice.sorted_rows(), "{:?}", space);
                prop_assert!(once.num_rows() <= input.num_rows());
            }
        }
    }

    #[test]
    fn limit_never_exceeds(t in arb_table(40), n in 0usize..60) {
        let out = limit(&t, n).unwrap();
        prop_assert_eq!(out.num_rows(), n.min(t.num_rows()));
    }

    #[test]
    fn hash_partition_is_a_colocated_partition(t in arb_table(60), parts in 1usize..6) {
        for space in KeySpace::BOTH {
            let t = space.table(&t);
            let partitions = hash_partition(&t, &[0], parts);
            prop_assert_eq!(partitions.len(), parts);
            let total: usize = partitions.iter().map(Table::num_rows).sum();
            prop_assert_eq!(total, t.num_rows());
            // Each key appears in exactly one partition.
            for key in (0i64..8).map(|k| space.key(k)) {
                let holders = partitions
                    .iter()
                    .filter(|p| p.iter_rows().any(|r| r[0] == Value::Int(key)))
                    .count();
                prop_assert!(holders <= 1, "{:?}", space);
            }
        }
    }

    #[test]
    fn sql_where_group_matches_operators(t in arb_table(60), threshold in -100i64..100) {
        for space in KeySpace::BOTH {
            let t = space.table(&t);
            let catalog = Catalog::new();
            catalog.register("t", t.clone());
            let ctx = ExecContext::new(catalog);
            let sql = format!(
                "select k, count(*) as n, sum(v) as s from t where v >= {threshold} group by k"
            );
            let via_sql = esharp_relation::run_sql(&sql, &ctx).unwrap();

            let pred = Expr::col("v").ge(Expr::lit(threshold)).compile(t.schema(), &ctx.udfs).unwrap();
            let filtered = esharp_relation::ops::filter(&t, &pred).unwrap();
            let via_ops = aggregate(
                &filtered,
                &[0],
                &[AggSpec::count("n"), AggSpec::on(AggFunc::Sum, 1, "s")],
            )
            .unwrap();
            prop_assert_eq!(via_sql.sorted_rows(), via_ops.sorted_rows(), "{:?}", space);
        }
    }

    #[test]
    fn spread_keys_give_the_dense_answers_row_for_row(
        l in arb_table(40),
        r in arb_right_table(40),
    ) {
        prop_assert_eq!(
            answers_in(KeySpace::Sparse, &l, &r),
            answers_in(KeySpace::Dense, &l, &r)
        );
    }
}
