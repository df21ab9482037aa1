//! Graph persistence.
//!
//! The paper's pipeline runs weekly; the similarity graph (2.6 GB in
//! production) is persisted between stages. Graphs are stored as two
//! binary relations (`nodes(id, label)`, `edges(a, b, weight)`) in
//! `esharp-relation`'s compact table format, each sealed in a frame
//! (length and CRC32) in one file. Writes are atomic (write-temp-then-rename, see
//! `esharp_storage::atomic`), so a crash mid-save never shadows a good
//! graph file; reads reject truncation, trailing bytes and bit flips.

use crate::graph::{Edge, NodeId, SimilarityGraph};
use esharp_fault::{FaultInjector, NoFaults, RetryPolicy};
use esharp_storage::atomic::atomic_write_with;
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{DataType, Schema, Table, TableBuilder, Value};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Persist a graph to `path` atomically.
pub fn save_graph(graph: &SimilarityGraph, path: impl AsRef<Path>) -> io::Result<()> {
    save_graph_with(graph, path, &NoFaults, "write:graph", &RetryPolicy::none())
}

/// [`save_graph`] with fault injection and bounded retry threaded into
/// the write (the checkpointed pipeline's entry point).
pub fn save_graph_with(
    graph: &SimilarityGraph,
    path: impl AsRef<Path>,
    injector: &dyn FaultInjector,
    site: &str,
    retry: &RetryPolicy,
) -> io::Result<()> {
    let (nodes, edges) = graph_tables(graph)?;
    let buf = encode_frames(&[nodes, edges]);
    atomic_write_with(path, &buf, injector, site, retry)
}

/// Encode a graph as its `(nodes, edges)` relation pair — the on-disk
/// representation of [`save_graph`], reused by the checkpointed pipeline
/// to embed graphs in multi-frame checkpoint files.
pub fn graph_tables(graph: &SimilarityGraph) -> io::Result<(Table, Table)> {
    let nodes_schema = Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]);
    let mut nodes = TableBuilder::with_capacity(nodes_schema, graph.num_nodes());
    for (id, label) in graph.labels().iter().enumerate() {
        nodes
            .push_row(vec![Value::Int(id as i64), Value::Str(Arc::clone(label))])
            .map_err(io::Error::other)?;
    }
    let edges_schema = Schema::of(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("weight", DataType::Float),
    ]);
    let mut edges = TableBuilder::with_capacity(edges_schema, graph.num_edges());
    for e in graph.edges() {
        edges
            .push_row(vec![
                Value::Int(e.a as i64),
                Value::Int(e.b as i64),
                Value::Float(e.weight),
            ])
            .map_err(io::Error::other)?;
    }

    Ok((nodes.finish(), edges.finish()))
}

/// Load a graph persisted by [`save_graph`]. Strict: the file must hold
/// exactly the two expected frames — truncation, bit flips and trailing
/// bytes after the edges table all fail with `InvalidData` instead of
/// being ignored.
pub fn load_graph(path: impl AsRef<Path>) -> io::Result<SimilarityGraph> {
    let data = std::fs::read(path)?;
    let mut tables = decode_frames_exact(&data, 2).map_err(invalid)?;
    let edges = tables.pop().ok_or_else(|| invalid("missing edges table"))?;
    let nodes = tables.pop().ok_or_else(|| invalid("missing nodes table"))?;
    graph_from_tables(&nodes, &edges)
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Rebuild a graph from its `(nodes, edges)` relation pair, validating
/// ids and types (the inverse of [`graph_tables`]); a table of another
/// shape fails with `InvalidData`.
pub fn graph_from_tables(nodes: &Table, edges: &Table) -> io::Result<SimilarityGraph> {
    let label_col = nodes.column_by_name("label").map_err(invalid)?;
    let id_col = nodes.column_by_name("id").map_err(invalid)?;
    let mut labels: Vec<Arc<str>> = vec![Arc::from(""); nodes.num_rows()];
    for row in 0..nodes.num_rows() {
        let id = id_col
            .value(row)
            .as_int()
            .ok_or_else(|| invalid("non-int node id"))? as usize;
        if id >= labels.len() {
            return Err(invalid("node id out of range"));
        }
        let Value::Str(label) = label_col.value(row) else {
            return Err(invalid("non-string label"));
        };
        labels[id] = label;
    }

    let mut edge_list = Vec::with_capacity(edges.num_rows());
    let a_col = edges.column_by_name("a").map_err(invalid)?;
    let b_col = edges.column_by_name("b").map_err(invalid)?;
    let w_col = edges.column_by_name("weight").map_err(invalid)?;
    for row in 0..edges.num_rows() {
        let get = |v: Value| v.as_int().ok_or_else(|| invalid("non-int endpoint"));
        edge_list.push(Edge {
            a: get(a_col.value(row))? as NodeId,
            b: get(b_col.value(row))? as NodeId,
            weight: w_col
                .value(row)
                .as_float()
                .ok_or_else(|| invalid("non-float weight"))?,
        });
    }
    Ok(SimilarityGraph::new(labels, edge_list))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::corrupt::{assert_rejects_damage_where, Damage};

    fn sample() -> SimilarityGraph {
        SimilarityGraph::new(
            vec![Arc::from("49ers"), Arc::from("nfl"), Arc::from("orphan")],
            vec![Edge {
                a: 0,
                b: 1,
                weight: 0.29,
            }],
        )
    }

    #[test]
    fn round_trip_preserves_graph_including_isolated_nodes() {
        let g = sample();
        let dir = std::env::temp_dir().join("esharp_graph_io_test");
        let path = dir.join("graph.bin");
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.num_edges(), 1);
        assert_eq!(back.label(2), "orphan");
        assert_eq!(back.edges()[0], g.edges()[0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_errors() {
        let err = load_graph("/nonexistent/esharp/graph.bin").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// The graph file's part of the corruption matrix that `which`
    /// selects: each damaged file fails to load with `InvalidData`.
    fn assert_graph_rejects(name: &str, which: impl Fn(Damage) -> bool) {
        let dir = std::env::temp_dir().join(format!("esharp_graph_io_{name}"));
        let path = dir.join("graph.bin");
        save_graph(&sample(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_rejects_damage_where("graph file", &good, which, |image| {
            std::fs::write(&path, image)?;
            load_graph(&path)
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_at_every_boundary_errors() {
        assert_graph_rejects("trunc", |damage| matches!(damage, Damage::Truncated(_)));
    }

    #[test]
    fn trailing_bytes_after_edges_table_error() {
        assert_graph_rejects("trailing", |damage| matches!(damage, Damage::Trailing(_)));
    }

    #[test]
    fn every_single_bit_flip_errors() {
        assert_graph_rejects("bitflip", |damage| matches!(damage, Damage::Flipped { .. }));
    }

    #[test]
    fn torn_save_never_shadows_previous_graph() {
        use esharp_fault::{Fault, FaultPlan};
        let g = sample();
        let dir = std::env::temp_dir().join("esharp_graph_io_torn");
        let path = dir.join("graph.bin");
        save_graph(&g, &path).unwrap();
        let plan = FaultPlan::new(1).trigger(
            "write:graph",
            0,
            Fault::TornWrite { numerator: 3, denominator: 4 },
        );
        let bigger = SimilarityGraph::new(
            vec![Arc::from("a"), Arc::from("b")],
            vec![Edge { a: 0, b: 1, weight: 1.0 }],
        );
        assert!(save_graph_with(
            &bigger,
            &path,
            &plan,
            "write:graph",
            &RetryPolicy::none()
        )
        .is_err());
        // The original artifact is still fully readable.
        let back = load_graph(&path).unwrap();
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.edges()[0], g.edges()[0]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
