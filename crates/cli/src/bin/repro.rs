//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p esharp-cli --bin repro -- all --scale small
//! cargo run --release -p esharp-cli --bin repro -- fig5 fig6 --scale paper --out results/
//! ```

use esharp_eval::experiments::{
    ablation, figures, freshness, recall_precision, runs, scaling, tables,
};
use esharp_eval::{CrowdConfig, EvalScale, Testbed};

const USAGE: &str = "usage: repro [all|fig5|fig6|fig7|table1|examples|table8|fig8|fig9|fig10|table9|ablation|scaling|freshness]... \
[--scale tiny|small|paper] [--seed N] [--out DIR]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = EvalScale::Small;
    let mut seed = 2016u64;
    let mut out_dir: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match iter.next().map(String::as_str) {
                    Some("tiny") => EvalScale::Tiny,
                    Some("small") => EvalScale::Small,
                    Some("paper") => EvalScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seed needs an integer\n{USAGE}");
                        std::process::exit(2);
                    })
            }
            "--out" => {
                out_dir = Some(iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory\n{USAGE}");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig5", "fig6", "fig7", "table1", "examples", "table8", "fig8", "fig9", "fig10",
            "table9", "ablation", "scaling", "freshness",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    eprintln!("building testbed (scale {scale:?}, seed {seed})…");
    let started = std::time::Instant::now();
    let tb = Testbed::build(scale, seed);
    eprintln!(
        "testbed ready in {:.1?}: {} domains, {} graph nodes, {} tweets",
        started.elapsed(),
        tb.world.num_domains(),
        tb.artifacts.graph.num_nodes(),
        tb.corpus.tweet_count()
    );

    // Table 8 / Figure 8 share one expensive sweep.
    let needs_runs = experiments.iter().any(|e| e == "table8" || e == "fig8");
    let set_runs = needs_runs.then(|| {
        eprintln!("running both algorithms over all query sets…");
        runs::run_all_sets(&tb)
    });

    let save = |name: &str, value: &dyn erased::Save| {
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{name}.json");
            if let Err(e) = value.save(&path) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    };

    for experiment in &experiments {
        match experiment.as_str() {
            "fig5" => {
                let fig = figures::fig5(&tb);
                println!("{}", fig.render());
                save("fig5", &fig);
            }
            "fig6" => {
                let fig = figures::fig6(&tb);
                println!("{}", fig.render());
                save("fig6", &fig);
            }
            "fig7" => match figures::fig7(&tb, "49ers", 3) {
                Some(fig) => {
                    println!("{}", fig.render());
                    save("fig7", &fig);
                }
                None => println!("fig7: '49ers' missing from the graph at this scale"),
            },
            "table1" => {
                let t = tables::table1(&tb);
                println!("{}", t.render());
                save("table1", &t);
            }
            "examples" => {
                let t = tables::example_tables(&tb, 3);
                println!("{}", t.render());
                save("examples", &t);
            }
            "table8" => {
                let t = tables::table8(set_runs.as_ref().expect("runs"));
                println!("{}", t.render());
                save("table8", &t);
            }
            "fig8" => {
                let fig = recall_precision::fig8(set_runs.as_ref().expect("runs"));
                println!("{}", fig.render());
                save("fig8", &fig);
            }
            "fig9" => {
                let fig = recall_precision::fig9(&tb);
                println!("{}", fig.render());
                save("fig9", &fig);
            }
            "fig10" => {
                let fig = recall_precision::fig10(&tb, &CrowdConfig::default());
                println!("{}", fig.render());
                save("fig10", &fig);
            }
            "table9" => {
                let queries: Vec<String> = tables::SHOWCASE_QUERIES
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let t = tables::table9(&tb, &queries);
                println!("{}", t.render());
                save("table9", &t);
            }
            "ablation" => {
                let scores = ablation::backend_comparison(&tb);
                println!("{}", ablation::render_backend_comparison(&scores));
                save("ablation_backends", &scores);
                let queries: Vec<String> = tables::SHOWCASE_QUERIES
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let filter = ablation::filter_ablation(&tb, &queries);
                println!("{}", ablation::render_filter_ablation(&filter));
                save("ablation_filter", &filter);
                let support = ablation::support_ablation(&tb, &[1, 10, 25, 50, 100, 200]);
                println!("{}", ablation::render_support_ablation(&support));
                save("ablation_support", &support);
                let ext = ablation::extended_features_ablation(&tb, &queries);
                println!("{}", ablation::render_extended_features_ablation(&ext));
                save("ablation_extended_features", &ext);
            }
            "freshness" => {
                let rows = freshness::freshness(seed);
                println!("{}", freshness::render_freshness(&rows));
                save("freshness", &rows);
            }
            "scaling" => {
                let rows = scaling::log_scaling(seed, &[50_000, 200_000, 800_000], 25);
                println!("{}", scaling::render_log_scaling(&rows));
                save("scaling_log", &rows);
                let workers = scaling::worker_scaling(
                    &tb.artifacts.multigraph,
                    &[1, 2, 4, 8],
                );
                println!("{}", scaling::render_worker_scaling(&workers));
                save("scaling_workers", &workers);
            }
            other => eprintln!("unknown experiment {other:?}\n{USAGE}"),
        }
    }
}

/// Minimal object-safe serialization shim so heterogeneous experiment
/// payloads share one save path.
mod erased {
    pub trait Save {
        fn save(&self, path: &str) -> std::io::Result<()>;
    }
    impl<T: serde::Serialize> Save for T {
        fn save(&self, path: &str) -> std::io::Result<()> {
            esharp_eval::report::save_json(path, self)
        }
    }
}
