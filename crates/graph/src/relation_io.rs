//! Conversions between graph structures and relational tables, so the
//! SQL-based community detection (Figure 4) can run on the engine.

use crate::graph::{MultiGraph, NodeId, SimilarityGraph};
use esharp_querylog::{AggregatedLog, World};
use esharp_relation::{Column, DataType, RelResult, Schema, Table, TableBuilder, Value};

/// The aggregated log as a `log(query, url, clicks)` table — the relational
/// starting point of the offline pipeline (998 GB in the paper's Table 9).
pub fn log_to_table(log: &AggregatedLog, world: &World) -> RelResult<Table> {
    let schema = Schema::of(&[
        ("query", DataType::Str),
        ("url", DataType::Str),
        ("clicks", DataType::Int),
    ]);
    let mut builder = TableBuilder::with_capacity(schema, log.records.len());
    for r in &log.records {
        builder.push_row(vec![
            Value::str(world.term_text(r.term)),
            Value::str(world.url_text(r.url)),
            Value::Int(r.clicks as i64),
        ])?;
    }
    Ok(builder.finish())
}

/// The similarity graph as the paper's `Graph(query1, query2, distance)`
/// table. Each undirected edge is emitted in **both** directions, which is
/// what Figure 4's joins assume ("for each community, list all the
/// neighbor communities").
pub fn graph_to_table(graph: &SimilarityGraph) -> RelResult<Table> {
    let schema = Schema::of(&[
        ("query1", DataType::Str),
        ("query2", DataType::Str),
        ("distance", DataType::Float),
    ]);
    let mut builder = TableBuilder::with_capacity(schema, graph.num_edges() * 2);
    for e in graph.edges() {
        let (qa, qb) = (graph.label(e.a), graph.label(e.b));
        builder.push_row(vec![Value::str(qa), Value::str(qb), Value::Float(e.weight)])?;
        builder.push_row(vec![Value::str(qb), Value::str(qa), Value::Float(e.weight)])?;
    }
    Ok(builder.finish())
}

/// The discretized multigraph as a `graph(node1, node2, multiplicity)`
/// table over integer node ids (both directions, like [`graph_to_table`]),
/// filled a column at a time.
pub fn multigraph_to_table(graph: &MultiGraph) -> RelResult<Table> {
    let schema = Schema::of(&[
        ("node1", DataType::Int),
        ("node2", DataType::Int),
        ("multiplicity", DataType::Int),
    ]);
    let rows = graph.edges().len() * 2;
    let (mut node1, mut node2, mut multiplicity) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    for &(a, b, k) in graph.edges() {
        let (a, b, k) = (i64::from(a), i64::from(b), k as i64);
        node1.extend([a, b]);
        node2.extend([b, a]);
        multiplicity.extend([k, k]);
    }
    Table::new(
        schema,
        vec![
            Column::Int(node1),
            Column::Int(node2),
            Column::Int(multiplicity),
        ],
    )
}

/// A node→community assignment as the paper's
/// `Communities(comm_name, query)` table over integer ids, filled a
/// column at a time.
pub fn assignment_to_table(assignment: &[NodeId]) -> RelResult<Table> {
    let schema = Schema::of(&[("comm_name", DataType::Int), ("query", DataType::Int)]);
    let comm_name = assignment.iter().map(|&c| i64::from(c)).collect();
    let query = (0..assignment.len() as i64).collect();
    Table::new(schema, vec![Column::Int(comm_name), Column::Int(query)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;
    use std::sync::Arc;

    fn graph() -> SimilarityGraph {
        SimilarityGraph::new(
            vec![Arc::from("a"), Arc::from("b"), Arc::from("c")],
            vec![
                Edge { a: 0, b: 1, weight: 0.5 },
                Edge { a: 1, b: 2, weight: 0.25 },
            ],
        )
    }

    #[test]
    fn graph_table_is_symmetric() {
        let t = graph_to_table(&graph()).unwrap();
        assert_eq!(t.num_rows(), 4);
        let rows = t.sorted_rows();
        assert!(rows.contains(&vec![Value::str("a"), Value::str("b"), Value::Float(0.5)]));
        assert!(rows.contains(&vec![Value::str("b"), Value::str("a"), Value::Float(0.5)]));
    }

    #[test]
    fn assignment_round_trips() {
        let assignment: Vec<NodeId> = vec![0, 0, 2];
        let t = assignment_to_table(&assignment).unwrap();
        assert_eq!(t.num_rows(), 3);
        let mut back = vec![NodeId::MAX; assignment.len()];
        for row in t.iter_rows() {
            back[row[1].as_int().unwrap() as usize] = row[0].as_int().unwrap() as NodeId;
        }
        assert_eq!(back, assignment);
    }

    #[test]
    fn column_built_tables_equal_the_row_built_ones() {
        let mg = MultiGraph::from_edges(4, vec![(0, 1, 4), (1, 3, 1), (2, 3, 7)]);
        let mut rows = Vec::new();
        for &(a, b, k) in mg.edges() {
            let (a, b, k) = (
                Value::Int(a.into()),
                Value::Int(b.into()),
                Value::Int(k as i64),
            );
            rows.push(vec![a.clone(), b.clone(), k.clone()]);
            rows.push(vec![b, a, k]);
        }
        let t = multigraph_to_table(&mg).unwrap();
        assert_eq!(t, Table::from_rows(t.schema().clone(), rows).unwrap());

        let assignment: Vec<NodeId> = vec![2, 0, 2, 5];
        let rows = assignment
            .iter()
            .enumerate()
            .map(|(node, &c)| vec![Value::Int(c.into()), Value::Int(node as i64)])
            .collect();
        let t = assignment_to_table(&assignment).unwrap();
        assert_eq!(t, Table::from_rows(t.schema().clone(), rows).unwrap());

        let empty = multigraph_to_table(&MultiGraph::from_edges(0, Vec::new())).unwrap();
        assert_eq!(
            empty,
            Table::from_rows(empty.schema().clone(), Vec::new()).unwrap()
        );
        let empty = assignment_to_table(&[]).unwrap();
        assert_eq!(
            empty,
            Table::from_rows(empty.schema().clone(), Vec::new()).unwrap()
        );
    }

    #[test]
    fn multigraph_table_has_both_directions() {
        let mg = MultiGraph::from_edges(3, vec![(0, 1, 4)]);
        let t = multigraph_to_table(&mg).unwrap();
        assert_eq!(t.num_rows(), 2);
    }
}
