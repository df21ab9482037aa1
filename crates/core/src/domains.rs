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
use esharp_relation::atomic::atomic_write_with;
use esharp_relation::binfmt::{decode_frames_exact, encode_frames};
use esharp_relation::{DataType, Schema, TableBuilder, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a domain inside a [`DomainCollection`].
pub type DomainIdx = u32;

/// The keyword communities produced by the offline stage, indexed for
/// exact-match lookup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DomainCollection {
    /// Each domain's member terms. Within a domain, terms keep the graph's
    /// node order (stable across runs).
    domains: Vec<Vec<String>>,
    /// Lower-cased term → owning domain.
    index: HashMap<String, DomainIdx>,
}

impl DomainCollection {
    /// Build the collection from a clustered similarity graph.
    pub fn from_clustering(graph: &SimilarityGraph, assignment: &Assignment) -> Self {
        let mut by_community: HashMap<u32, Vec<String>> = HashMap::new();
        for node in 0..graph.num_nodes() as u32 {
            by_community
                .entry(assignment.community_of(node))
                .or_default()
                .push(graph.label(node).to_string());
        }
        // Deterministic domain order: by community's first (smallest-node)
        // member via sorted community keys.
        let mut keys: Vec<u32> = by_community.keys().copied().collect();
        keys.sort_unstable();
        let mut domains = Vec::with_capacity(keys.len());
        let mut index = HashMap::new();
        for key in keys {
            let Some(terms) = by_community.remove(&key) else {
                continue; // unreachable: keys come from the map itself
            };
            let idx = domains.len() as DomainIdx;
            for term in &terms {
                index.insert(term.to_lowercase(), idx);
            }
            domains.push(terms);
        }
        DomainCollection { domains, index }
    }

    /// Build directly from term groups (tests, fixtures).
    pub fn from_groups(groups: Vec<Vec<String>>) -> Self {
        let mut index = HashMap::new();
        for (i, group) in groups.iter().enumerate() {
            for term in group {
                index.insert(term.to_lowercase(), i as DomainIdx);
            }
        }
        DomainCollection {
            domains: groups,
            index,
        }
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
    /// is the same contract). The write is atomic and the payload is the
    /// checksummed binary table format, so a torn write can never shadow
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
    pub(crate) fn tables(&self) -> std::io::Result<(esharp_relation::Table, esharp_relation::Table)> {
        // meta(key, value) carries the domain count so empty domains
        // survive the round trip; members(domain, term) carries the rest.
        let meta_schema = Schema::of(&[("key", DataType::Str), ("value", DataType::Int)]);
        let mut meta = TableBuilder::new(meta_schema);
        meta.push_row(vec![Value::str("num_domains"), Value::Int(self.domains.len() as i64)])
            .map_err(std::io::Error::other)?;
        let members_schema = Schema::of(&[("domain", DataType::Int), ("term", DataType::Str)]);
        let total: usize = self.domains.iter().map(|d| d.len()).sum();
        let mut members = TableBuilder::with_capacity(members_schema, total);
        for (idx, terms) in self.domains.iter().enumerate() {
            for term in terms {
                members
                    .push_row(vec![Value::Int(idx as i64), Value::str(term.as_str())])
                    .map_err(std::io::Error::other)?;
            }
        }
        Ok((meta.finish(), members.finish()))
    }

    /// Load a collection persisted by [`DomainCollection::save`].
    /// Corruption (truncation, bit flips, trailing bytes) errors — it
    /// never yields a silently-wrong collection. Legacy JSON files from
    /// pre-checksum runs remain readable.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<DomainCollection> {
        let data = std::fs::read(path)?;
        match decode_frames_exact(&data, 2) {
            Ok(tables) => Self::decode(&tables),
            // Legacy format: a bare JSON object from pre-v2 runs.
            Err(_) if data.first() == Some(&b'{') => {
                let json = std::str::from_utf8(&data).map_err(std::io::Error::other)?;
                serde_json::from_str(json).map_err(std::io::Error::other)
            }
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    pub(crate) fn decode(tables: &[esharp_relation::Table]) -> std::io::Result<DomainCollection> {
        let err = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let (meta, members) = (&tables[0], &tables[1]);
        let key_col = meta.column_by_name("key").map_err(std::io::Error::other)?;
        let value_col = meta.column_by_name("value").map_err(std::io::Error::other)?;
        let mut num_domains: Option<usize> = None;
        for row in 0..meta.num_rows() {
            if let (Value::Str(key), Value::Int(value)) = (key_col.value(row), value_col.value(row))
            {
                if &*key == "num_domains" {
                    num_domains =
                        Some(usize::try_from(value).map_err(|_| err("negative domain count"))?);
                }
            }
        }
        let num_domains = num_domains.ok_or_else(|| err("missing num_domains"))?;
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); num_domains];
        let domain_col = members.column_by_name("domain").map_err(std::io::Error::other)?;
        let term_col = members.column_by_name("term").map_err(std::io::Error::other)?;
        for row in 0..members.num_rows() {
            let idx = domain_col
                .value(row)
                .as_int()
                .ok_or_else(|| err("non-int domain id"))? as usize;
            if idx >= num_domains {
                return Err(err("domain id out of range"));
            }
            let Value::Str(term) = term_col.value(row) else {
                return Err(err("non-string term"));
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = collection();
        let dir = std::env::temp_dir().join("esharp_domains_corrupt");
        let path = dir.join("domains.bin");
        c.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Truncation at every byte boundary.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(DomainCollection::load(&path).is_err(), "cut at {cut} accepted");
        }
        // Every single-bit flip.
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                std::fs::write(&path, &bad).unwrap();
                assert!(
                    DomainCollection::load(&path).is_err(),
                    "bit flip at byte {byte} bit {bit} accepted"
                );
            }
        }
        // Trailing bytes.
        let mut extra = good.clone();
        extra.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&path, &extra).unwrap();
        assert!(DomainCollection::load(&path).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_json_files_never_misparse_as_binary() {
        // Pre-checksum runs persisted bare JSON. The loader must route
        // those to the JSON path (readable with a real serde_json; a
        // clean error under the offline dev stub) — never panic, never
        // decode them as binary garbage.
        let dir = std::env::temp_dir().join("esharp_domains_legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("domains.json");
        std::fs::write(&path, br#"{"domains":[["49ers","niners"]],"index":{"49ers":0,"niners":0}}"#)
            .unwrap();
        match DomainCollection::load(&path) {
            Ok(back) => assert_eq!(back.lookup("niners").map(|d| d.len()), Some(2)),
            Err(e) => assert!(e.to_string().contains("stub"), "unexpected error: {e}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serializes_round_trip() {
        let c = collection();
        let json = serde_json::to_string(&c).unwrap();
        let back: DomainCollection = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lookup("niners").map(|d| d.len()), Some(3));
    }
}
