//! Run the paper's Figure 4 community-detection SQL *literally* on the
//! bundled relational engine: register a graph table, a communities
//! table and the ModulGain UDF, then execute the two declarative
//! statements and print every intermediate relation.
//!
//! ```sh
//! cargo run --example sql_community
//! ```

use esharp_community::{cluster_sql, SqlClusterConfig, NEIGHBORS_SQL, PARTITIONS_SQL};
use esharp_graph::relation_io::{assignment_to_table, multigraph_to_table};
use esharp_graph::MultiGraph;
use esharp_relation::{run_sql, Catalog, DataType, ExecContext, FnUdf, RelError, Value};
use std::sync::Arc;

fn main() {
    // The Figure 3 example, roughly: two dense groups (football/NFL/49ers
    // and San Francisco/California/SF Bridge) weakly linked.
    let graph = MultiGraph::from_edges(
        6,
        vec![
            (0, 1, 4), // football – nfl
            (0, 2, 3), // football – 49ers
            (1, 2, 4), // nfl – 49ers
            (2, 3, 1), // 49ers – san francisco
            (3, 4, 3), // san francisco – california
            (3, 5, 3), // san francisco – sf bridge
            (4, 5, 2), // california – sf bridge
        ],
    );
    let names = ["football", "nfl", "49ers", "san francisco", "california", "sf bridge"];

    // --- Run one iteration by hand to show the SQL plumbing.
    let catalog = Catalog::new();
    catalog.register("graph", multigraph_to_table(&graph).unwrap());
    let singletons: Vec<u32> = (0..6).collect();
    catalog.register("communities", assignment_to_table(&singletons).unwrap());

    let mut ctx = ExecContext::new(catalog);
    let stats = Arc::new(esharp_community::PartitionStats::compute(
        &graph,
        &esharp_community::Assignment::singletons(6),
    ));
    ctx.udfs.register(Arc::new(FnUdf::new(
        "ModulGain",
        DataType::Float,
        move |args: &[Value]| {
            let (Some(a), Some(b)) = (args[0].as_int(), args[1].as_int()) else {
                return Err(RelError::Eval("ModulGain expects ints".into()));
            };
            Ok(Value::Float(stats.delta_mod(a as u32, b as u32)))
        },
    )));

    println!("-- Step 1 (Figure 4): neighborhood creation\n{NEIGHBORS_SQL}\n");
    let neighbors = run_sql(NEIGHBORS_SQL, &ctx).unwrap();
    println!("{neighbors}");
    ctx.catalog.register("neighbors", neighbors);

    println!("-- Step 2 (Figure 4): neighborhood separation\n{PARTITIONS_SQL}\n");
    let partitions = run_sql(PARTITIONS_SQL, &ctx).unwrap();
    println!("{partitions}");

    // --- And the full loop to convergence.
    let outcome = cluster_sql(&graph, &SqlClusterConfig::default()).unwrap();
    println!("-- Full SQL clustering loop:");
    for stat in &outcome.trace {
        println!(
            "iteration {}: {} communities, TMod {:.2}",
            stat.iteration, stat.communities, stat.total_modularity
        );
    }
    println!("\nfinal communities:");
    let groups = outcome.assignment.groups();
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let members: Vec<&str> = groups[&key].iter().map(|&n| names[n as usize]).collect();
        println!("  {{{}}}", members.join(", "));
    }
}
