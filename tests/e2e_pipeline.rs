//! End-to-end integration: world → log → offline pipeline → corpus →
//! online search, validated against ground truth. Exercises every crate
//! in one flow.

use esharp_eval::{EvalScale, Testbed};

#[test]
fn full_pipeline_improves_recall_without_losing_precision() {
    let tb = Testbed::build(EvalScale::Small, 101);
    let runs = esharp_eval::experiments::runs::run_all_sets(&tb);
    let table8 = esharp_eval::experiments::tables::table8(&runs);

    // The paper's headline (Table 8): e# answers at least as many queries
    // as the baseline on every set, and strictly more overall.
    let mut strictly_better = 0;
    for row in &table8.rows {
        assert!(
            row.esharp >= row.baseline - 1e-12,
            "{}: e# coverage {} < baseline {}",
            row.set,
            row.esharp,
            row.baseline
        );
        if row.esharp > row.baseline {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 2,
        "expansion never helped: {:?}",
        table8.rows
    );

    // Precision check against ground truth: among returned experts for the
    // showcase queries, e#'s precision stays close to the baseline's
    // ("the accuracy penalty incurred by e# is minimal").
    let queries: Vec<String> = esharp_eval::experiments::tables::SHOWCASE_QUERIES
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut base_rel = 0usize;
    let mut base_tot = 0usize;
    let mut exp_rel = 0usize;
    let mut exp_tot = 0usize;
    for q in &queries {
        for e in &tb.esharp.search_baseline(&tb.corpus, q).experts {
            base_tot += 1;
            if esharp_eval::Crowd::ground_truth(&tb.world, &tb.corpus, q, e.user) {
                base_rel += 1;
            }
        }
        for e in &tb.esharp.search(&tb.corpus, q).experts {
            exp_tot += 1;
            if esharp_eval::Crowd::ground_truth(&tb.world, &tb.corpus, q, e.user) {
                exp_rel += 1;
            }
        }
    }
    assert!(exp_tot >= base_tot, "expansion returned fewer experts");
    let base_precision = base_rel as f64 / base_tot.max(1) as f64;
    let exp_precision = exp_rel as f64 / exp_tot.max(1) as f64;
    assert!(
        exp_precision >= base_precision - 0.25,
        "precision collapsed: baseline {base_precision:.2} vs e# {exp_precision:.2}"
    );
}

#[test]
fn offline_trace_converges_like_figure5() {
    let tb = Testbed::build(EvalScale::Small, 103);
    let trace = &tb.artifacts.outcome.trace;
    assert!(trace.len() >= 3, "expected several merge iterations");
    assert!(
        trace.len() <= 21,
        "did not converge within the iteration cap"
    );
    // Community count decreases fast then flattens (Figure 5's shape):
    // the first iteration removes more communities than the last.
    let drops: Vec<i64> = trace
        .windows(2)
        .map(|w| w[0].communities as i64 - w[1].communities as i64)
        .collect();
    assert!(drops.first().unwrap() > drops.last().unwrap());
    // Modularity ends above the singleton start.
    assert!(trace.last().unwrap().total_modularity > trace[0].total_modularity);
}

#[test]
fn expansion_recovers_variant_only_experts() {
    // The motivating scenario: an account that tweets `niners`
    // exclusively should be reachable from the query `49ers` only via
    // expansion.
    let tb = Testbed::build(EvalScale::Small, 105);
    let expanded = tb.esharp.search(&tb.corpus, "49ers");
    assert!(
        expanded.expansion.iter().any(|t| t == "niners"),
        "expansion missed the niners variant: {:?}",
        expanded.expansion
    );
    let baseline = tb.esharp.search_baseline(&tb.corpus, "49ers");
    assert!(expanded.matched_tweets > baseline.matched_tweets);
}

#[test]
fn domain_collection_survives_serialization() {
    let tb = Testbed::build(EvalScale::Tiny, 107);
    let dir = std::env::temp_dir().join(format!("esharp_e2e_domains_{}", std::process::id()));
    let path = dir.join("domains.bin");
    tb.esharp.domains().save(&path).unwrap();
    let back = esharp_core::DomainCollection::load(&path).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(back.len(), tb.esharp.domains().len());
    assert_eq!(
        back.lookup("49ers").map(<[String]>::len),
        tb.esharp.domains().lookup("49ers").map(<[String]>::len)
    );
}
