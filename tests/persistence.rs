//! Full persistence round trip: every artifact the weekly pipeline would
//! ship between runs (world, corpus, domain collection, similarity graph)
//! survives a save/load cycle and keeps producing identical answers.

use esharp_core::{DomainCollection, Esharp};
use esharp_eval::{EvalScale, Testbed};
use esharp_microblog::Corpus;
use esharp_querylog::World;

#[test]
fn pipeline_artifacts_round_trip_through_disk() {
    let tb = Testbed::build(EvalScale::Tiny, 601);
    let dir = std::env::temp_dir().join("esharp_persistence_test");
    let _ = std::fs::remove_dir_all(&dir);

    // Save all four artifacts.
    tb.world.save(dir.join("world.json")).unwrap();
    tb.corpus.save_binary(dir.join("corpus.bin")).unwrap();
    tb.esharp.domains().save(dir.join("domains.json")).unwrap();
    esharp_graph::io::save_graph(&tb.artifacts.graph, dir.join("graph.bin")).unwrap();

    // Reload and reassemble the online system from disk only.
    let world = World::load(dir.join("world.json")).unwrap();
    let corpus = Corpus::load(dir.join("corpus.bin")).unwrap();
    let domains = DomainCollection::load(dir.join("domains.json")).unwrap();
    let graph = esharp_graph::io::load_graph(dir.join("graph.bin")).unwrap();
    let esharp = Esharp::new(domains, tb.config.clone());

    // Ground truth intact.
    assert_eq!(world.num_domains(), tb.world.num_domains());
    assert_eq!(world.term_id("49ers"), tb.world.term_id("49ers"));

    // Graph intact (nodes, edges, labels).
    assert_eq!(graph.num_nodes(), tb.artifacts.graph.num_nodes());
    assert_eq!(graph.num_edges(), tb.artifacts.graph.num_edges());
    assert_eq!(
        graph.node_by_label("49ers"),
        tb.artifacts.graph.node_by_label("49ers")
    );

    // Search results identical to the in-memory system.
    for query in ["49ers", "diabetes", "dow futures", "nonexistent topic"] {
        let fresh = esharp.search(&corpus, query);
        let original = tb.esharp.search(&tb.corpus, query);
        assert_eq!(fresh.expansion, original.expansion, "{query}");
        assert_eq!(fresh.experts, original.experts, "{query}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
