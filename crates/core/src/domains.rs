//! The collection of expertise domains and its exact-match index (§5).
//!
//! "Our approach is based on exact match: we find the community which
//! contains the query terms exactly and in order, after lower-casing."
//! The collection is the offline stage's product — "about 100 MB" in the
//! paper, "stored and indexed in SQL Server 2014, which allows us to
//! query it in a few milliseconds"; here it is an in-memory hash index
//! with the same contract.

use esharp_community::Assignment;
use esharp_fault::{FaultInjector, NoFaults, RetryPolicy};
use esharp_graph::SimilarityGraph;
use esharp_storage::atomic::atomic_write_with;
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{Column, DataType, Schema, Table, TableBuilder, Value};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Identifier of a domain inside a [`DomainCollection`].
pub type DomainIdx = u32;

/// The keyword communities produced by the offline stage, indexed for
/// exact-match lookup.
#[derive(Debug, Clone, Default)]
pub struct DomainCollection {
    /// Each domain's member terms. Within a domain, terms keep the graph's
    /// node order (stable across runs).
    domains: Vec<Vec<String>>,
    /// Lower-cased term → owning domain.
    index: HashMap<String, DomainIdx>,
}

impl DomainCollection {
    /// Build the collection from a clustered similarity graph: one domain
    /// per community, in ascending community id, each holding its terms in
    /// node order.
    pub fn from_clustering(graph: &SimilarityGraph, assignment: &Assignment) -> Self {
        // Counting sort of the nodes by community id: `start[c]..start[c
        // + 1]` of `order` are community `c`'s nodes, ascending.
        let labels = &assignment.as_slice()[..graph.num_nodes()];
        let id_bound = labels.iter().max().map_or(0, |&c| c as usize + 1);
        let mut start = vec![0usize; id_bound + 1];
        for &c in labels {
            start[c as usize + 1] += 1;
        }
        for c in 0..id_bound {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut order = vec![0u32; labels.len()];
        for (node, &c) in labels.iter().enumerate() {
            order[next[c as usize]] = node as u32;
            next[c as usize] += 1;
        }
        let mut domains = Vec::new();
        let mut index = HashMap::with_capacity(labels.len());
        for bounds in start.windows(2).filter(|w| w[0] < w[1]) {
            let idx = domains.len() as DomainIdx;
            let terms: Vec<String> = order[bounds[0]..bounds[1]]
                .iter()
                .map(|&node| graph.label(node).to_string())
                .collect();
            for term in &terms {
                index.insert(term.to_lowercase(), idx);
            }
            domains.push(terms);
        }
        DomainCollection { domains, index }
    }

    /// Build directly from term groups (tests, fixtures, `load`). A
    /// member listed twice in one group, as written or in another case,
    /// is kept once, in its first spelling: a domain is a set of terms,
    /// so a repeat can neither take a slot under the expansion cap nor
    /// change any answer.
    pub fn from_groups(groups: Vec<Vec<String>>) -> Self {
        let mut index = HashMap::new();
        let domains = groups
            .into_iter()
            .enumerate()
            .map(|(i, group)| {
                let i = i as DomainIdx;
                group
                    .into_iter()
                    .filter(|term| index.insert(term.to_lowercase(), i) != Some(i))
                    .collect()
            })
            .collect();
        DomainCollection { domains, index }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True when the collection holds no domains.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// All domains.
    pub fn domains(&self) -> &[Vec<String>] {
        &self.domains
    }

    /// Exact-match lookup (after lower-casing): the domain containing the
    /// query verbatim.
    pub fn lookup(&self, query: &str) -> Option<&[String]> {
        let idx = *self.index.get(&query.to_lowercase())?;
        Some(&self.domains[idx as usize])
    }

    /// Expansion terms for a query (§5): the query itself first, then its
    /// community siblings, capped at `max_terms`. Falls back to just the
    /// query when no community matches — e# then behaves exactly like the
    /// baseline.
    pub fn expand(&self, query: &str, max_terms: usize) -> Vec<String> {
        let lower = query.to_lowercase();
        let mut out = vec![lower.clone()];
        if let Some(domain) = self.lookup(&lower) {
            for term in domain {
                if out.len() >= max_terms.max(1) {
                    break;
                }
                // Guard against duplicate members (clustered graphs have
                // unique labels, but hand-built collections may not).
                if *term != lower && !out.contains(term) {
                    out.push(term.clone());
                }
            }
        }
        out
    }

    /// Persist the collection (the paper stores its collection in SQL
    /// Server 2014; a checksummed on-disk index with millisecond lookups
    /// is the same contract). The write is atomic and the payload is two
    /// sealed binary tables, so a torn write can never shadow
    /// a good collection and corruption is detected on load.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.save_with(path, &NoFaults, "write:domains", &RetryPolicy::none())
    }

    /// [`DomainCollection::save`] with fault injection and bounded retry
    /// (the checkpointed pipeline's entry point).
    pub fn save_with(
        &self,
        path: impl AsRef<std::path::Path>,
        injector: &dyn FaultInjector,
        site: &str,
        retry: &RetryPolicy,
    ) -> std::io::Result<()> {
        atomic_write_with(path, &self.encode()?, injector, site, retry)
    }

    fn encode(&self) -> std::io::Result<Vec<u8>> {
        let (meta, members) = self.tables()?;
        Ok(encode_frames(&[meta, members]))
    }

    /// The collection's on-disk relation pair, reused by the checkpointed
    /// pipeline to embed collections in multi-frame checkpoint files.
    pub(crate) fn tables(&self) -> io::Result<(Table, Table)> {
        // meta carries the domain count so empty domains survive the
        // round trip; members(domain, term) carries the rest.
        let meta = meta_table(&[("num_domains", self.domains.len() as i64)])?;
        let members_schema = Schema::of(&[("domain", DataType::Int), ("term", DataType::Str)]);
        let total: usize = self.domains.iter().map(|d| d.len()).sum();
        let mut members = TableBuilder::with_capacity(members_schema, total);
        for (idx, terms) in self.domains.iter().enumerate() {
            for term in terms {
                members
                    .push_row(vec![Value::Int(idx as i64), Value::str(term.as_str())])
                    .map_err(io::Error::other)?;
            }
        }
        Ok((meta, members.finish()))
    }

    /// Load a collection persisted by [`DomainCollection::save`].
    /// Corruption (truncation, bit flips, trailing bytes) fails with
    /// `InvalidData` — it never yields a silently-wrong collection.
    pub fn load(path: impl AsRef<std::path::Path>) -> io::Result<DomainCollection> {
        let data = std::fs::read(path)?;
        let tables = decode_frames_exact(&data, 2).map_err(invalid)?;
        Self::decode(&tables)
    }

    pub(crate) fn decode(tables: &[Table]) -> io::Result<DomainCollection> {
        let (meta, members) = (&tables[0], &tables[1]);
        let num_domains = *read_meta(meta)?
            .get("num_domains")
            .ok_or_else(|| invalid("missing num_domains"))?;
        let num_domains = usize::try_from(num_domains).map_err(|_| invalid("negative domain count"))?;
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); num_domains];
        let domain_col = members.column_by_name("domain").map_err(invalid)?;
        let term_col = members.column_by_name("term").map_err(invalid)?;
        for row in 0..members.num_rows() {
            let idx = domain_col
                .value(row)
                .as_int()
                .ok_or_else(|| invalid("non-int domain id"))? as usize;
            if idx >= num_domains {
                return Err(invalid("domain id out of range"));
            }
            let Value::Str(term) = term_col.value(row) else {
                return Err(invalid("non-string term"));
            };
            groups[idx].push(term.to_string());
        }
        Ok(DomainCollection::from_groups(groups))
    }

    /// Approximate payload bytes (the "about 100 MB" of §6.3).
    pub fn byte_size(&self) -> u64 {
        self.domains
            .iter()
            .flat_map(|d| d.iter())
            .map(|t| t.len() as u64)
            .sum()
    }
}

const META: [(&str, DataType); 2] = [("key", DataType::Str), ("value", DataType::Int)];

/// The `meta(key, value)` relation that opens `domains.bin` and every
/// checkpoint stage file: one row per named integer, in order.
pub(crate) fn meta_table(entries: &[(&str, i64)]) -> io::Result<Table> {
    let keys = entries.iter().map(|&(key, _)| Arc::from(key)).collect();
    let values = entries.iter().map(|&(_, value)| value).collect();
    Table::new(Schema::of(&META), vec![Column::Str(keys), Column::Int(values)])
        .map_err(io::Error::other)
}

/// The entries of a [`meta_table`], a repeated key keeping its last
/// value. A table of any other shape fails with `InvalidData`.
pub(crate) fn read_meta(table: &Table) -> io::Result<HashMap<String, i64>> {
    let shaped = table.schema().fields() == Schema::of(&META).fields();
    match shaped.then(|| (table.column(0), table.column(1))) {
        Some((Column::Str(keys), Column::Int(values))) => {
            Ok(keys.iter().map(|k| k.to_string()).zip(values.iter().copied()).collect())
        }
        _ => Err(invalid("meta table: not (key Str, value Int)")),
    }
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::corrupt::assert_rejects_every_damage;

    fn collection() -> DomainCollection {
        DomainCollection::from_groups(vec![
            vec!["49ers".into(), "niners".into(), "49ers draft".into()],
            vec!["diabetes".into(), "t1d".into()],
        ])
    }

    #[test]
    fn lookup_is_exact_and_case_insensitive() {
        let c = collection();
        assert!(c.lookup("49ERS").is_some());
        assert!(c.lookup("49ers draft").is_some());
        // Exact match only: sub-phrases do not hit.
        assert!(c.lookup("draft").is_none());
        assert!(c.lookup("unknown").is_none());
    }

    #[test]
    fn expand_puts_query_first_and_caps() {
        let c = collection();
        let terms = c.expand("NINERS", 10);
        assert_eq!(terms[0], "niners");
        assert_eq!(terms.len(), 3);
        let capped = c.expand("niners", 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn a_member_repeated_in_any_case_is_kept_once() {
        let plain = DomainCollection::from_groups(vec![vec!["a".into(), "b".into(), "c".into()]]);
        let repeated = DomainCollection::from_groups(vec![vec![
            "a".into(),
            "A".into(),
            "b".into(),
            "b".into(),
            "B".into(),
            "c".into(),
        ]]);
        assert_eq!(repeated.domains(), plain.domains());
        for cap in 1..5 {
            assert_eq!(repeated.expand("a", cap), plain.expand("a", cap), "cap {cap}");
            assert_eq!(repeated.expand("B", cap), plain.expand("B", cap), "cap {cap}");
        }
        // The first spelling stays; a term in two domains is still looked
        // up in the later one.
        let accented = DomainCollection::from_groups(vec![
            vec!["x".into()],
            vec!["É".into(), "é".into(), "x".into()],
        ]);
        assert_eq!(accented.domains()[1], vec!["É", "x"]);
        assert_eq!(accented.expand("x", 5), vec!["x", "É"]);
    }

    #[test]
    fn expand_falls_back_to_the_query_alone() {
        let c = collection();
        assert_eq!(c.expand("unknown topic", 10), vec!["unknown topic"]);
    }

    #[test]
    fn from_clustering_groups_by_community() {
        use esharp_graph::{Edge, SimilarityGraph};
        use std::sync::Arc;
        let graph = SimilarityGraph::new(
            vec![Arc::from("a"), Arc::from("b"), Arc::from("c")],
            vec![Edge { a: 0, b: 1, weight: 0.9 }],
        );
        let assignment = Assignment::from_vec(vec![0, 0, 2]);
        let c = DomainCollection::from_clustering(&graph, &assignment);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("a"), c.lookup("b"));
        assert_ne!(c.lookup("a"), c.lookup("c"));
    }

    /// The former grouping through a `HashMap<u32, Vec<String>>` and a
    /// key sort, as the reference for the counting sort.
    fn from_clustering_reference(
        graph: &SimilarityGraph,
        assignment: &Assignment,
    ) -> Vec<Vec<String>> {
        let mut by_community: HashMap<u32, Vec<String>> = HashMap::new();
        for node in 0..graph.num_nodes() as u32 {
            by_community
                .entry(assignment.community_of(node))
                .or_default()
                .push(graph.label(node).to_string());
        }
        let mut keys: Vec<u32> = by_community.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|key| by_community.remove(&key).unwrap())
            .collect()
    }

    #[test]
    fn from_clustering_matches_the_hashmap_grouping() {
        use esharp_graph::SimilarityGraph;
        use std::sync::Arc;
        let labels: Vec<Arc<str>> = (0..12).map(|i| Arc::from(format!("Term {i}"))).collect();
        let graph = SimilarityGraph::new(labels, Vec::new());
        let dir = std::env::temp_dir().join("esharp_domains_counting_sort");
        for communities in [
            vec![5, 5, 0, 9, 0, 5, 11, 9, 9, 3, 3, 5],
            vec![0; 12],
            (0..12).collect(),
            vec![30, 2, 30, 2, 7, 7, 7, 30, 2, 2, 30, 7],
        ] {
            let assignment = Assignment::from_vec(communities);
            let c = DomainCollection::from_clustering(&graph, &assignment);
            let expected = from_clustering_reference(&graph, &assignment);
            assert_eq!(c.domains(), &expected[..]);
            for (idx, terms) in expected.iter().enumerate() {
                for term in terms {
                    assert_eq!(c.index.get(&term.to_lowercase()), Some(&(idx as DomainIdx)));
                }
            }
            // Same domains, so the same `domains.bin` bytes.
            let path = dir.join("domains.bin");
            c.save(&path).unwrap();
            let reference_bytes = std::fs::read(&path).unwrap();
            DomainCollection::from_groups(expected).save(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), reference_bytes);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_load_round_trip() {
        let c = collection();
        let dir = std::env::temp_dir().join("esharp_domains_test");
        let path = dir.join("domains.bin");
        c.save(&path).unwrap();
        let back = DomainCollection::load(&path).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.domains(), c.domains());
        assert_eq!(back.expand("49ers", 10), c.expand("49ers", 10));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_domains_survive_the_round_trip() {
        let c = DomainCollection::from_groups(vec![
            vec!["a".into()],
            vec![],
            vec!["b".into(), "c".into()],
        ]);
        let dir = std::env::temp_dir().join("esharp_domains_empty");
        let path = dir.join("domains.bin");
        c.save(&path).unwrap();
        let back = DomainCollection::load(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.domains()[1], Vec::<String>::new());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corruption_always_errors_never_misparses() {
        let dir = std::env::temp_dir().join("esharp_domains_corrupt");
        let path = dir.join("domains.bin");
        collection().save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_rejects_every_damage("domains.bin", &good, |image| {
            std::fs::write(&path, image)?;
            DomainCollection::load(&path)
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_meta_table_of_another_shape_is_invalid_data() {
        let meta = meta_table(&[("format", 1), ("format", 2), ("n", -3)]).unwrap();
        let entries = read_meta(&meta).unwrap();
        assert_eq!(entries, HashMap::from([("format".to_string(), 2), ("n".to_string(), -3)]));
        let swapped = Table::new(
            Schema::of(&[("value", DataType::Int), ("key", DataType::Str)]),
            vec![Column::Int(vec![1]), Column::Str(vec![Arc::from("format")])],
        )
        .unwrap();
        let err = read_meta(&swapped).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
