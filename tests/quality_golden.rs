//! The quality golden: Figures 6–10 and Tables 1 and 8 of the paper's
//! evaluation (§6), rendered from the Tiny testbed, must match the files
//! under `tests/golden/quality/` byte for byte. Each file holds the
//! figure's ASCII rendering followed by its full-precision JSON, so a
//! change in *which* experts come back (or in any score that decides
//! them) fails here even when every kernel is bit-identical to its own
//! predecessor. Table 9 is left out: it holds timings.
//!
//! To regenerate after an intended quality change:
//!
//! ```sh
//! ESHARP_BLESS=1 cargo test -p esharp-eval --test quality_golden
//! ```

use esharp_eval::experiments::{figures, recall_precision, runs, tables};
use esharp_eval::{CrowdConfig, EvalScale, Testbed};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The `repro` binary's default seed.
const SEED: u64 = 2016;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/quality")
}

/// One golden file's contents: the rendering, then the JSON.
fn golden<T: Serialize>(render: String, value: &T) -> String {
    let json = serde_json::to_string_pretty(value).expect("experiment payloads serialize");
    format!("{}\n{json}\n", render.trim_end())
}

/// The first differing line of `expected` vs `actual`, with context.
fn first_difference(expected: &str, actual: &str) -> String {
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let at = e
        .iter()
        .zip(&a)
        .position(|(x, y)| x != y)
        .unwrap_or(e.len().min(a.len()));
    let show = |lines: &[&str]| {
        lines[at.saturating_sub(2)..(at + 3).min(lines.len())]
            .iter()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    format!(
        "first difference at line {} (golden {} lines, rendered {}):\n  golden:\n{}\n  rendered:\n{}",
        at + 1,
        e.len(),
        a.len(),
        show(&e),
        show(&a)
    )
}

#[test]
fn figures_and_tables_match_the_goldens() {
    let tb = Testbed::build(EvalScale::Tiny, SEED);
    let set_runs = runs::run_all_sets(&tb);
    let fig6 = figures::fig6(&tb);
    let fig7 = figures::fig7(&tb, "49ers", 3).expect("49ers is clustered at Tiny scale");
    let fig8 = recall_precision::fig8(&set_runs);
    let fig9 = recall_precision::fig9(&tb);
    let fig10 = recall_precision::fig10(&tb, &CrowdConfig::default());
    let table1 = tables::table1(&tb);
    let table8 = tables::table8(&set_runs);
    let rendered = [
        ("fig6", golden(fig6.render(), &fig6)),
        ("fig7", golden(fig7.render(), &fig7)),
        ("fig8", golden(fig8.render(), &fig8)),
        ("fig9", golden(fig9.render(), &fig9)),
        ("fig10", golden(fig10.render(), &fig10)),
        ("table1", golden(table1.render(), &table1)),
        ("table8", golden(table8.render(), &table8)),
    ];

    let dir = golden_dir();
    if std::env::var_os("ESHARP_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create the golden directory");
        for (name, text) in &rendered {
            std::fs::write(dir.join(format!("{name}.txt")), text).expect("write a golden");
        }
        return;
    }
    let mut drifted = Vec::new();
    for (name, text) in &rendered {
        let path = dir.join(format!("{name}.txt"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with ESHARP_BLESS=1)", path.display()));
        if &expected != text {
            drifted.push(format!("{name}: {}", first_difference(&expected, text)));
        }
    }
    assert!(
        drifted.is_empty(),
        "quality drifted from the goldens in tests/golden/quality/ \
         (if intended, regenerate with ESHARP_BLESS=1):\n{}",
        drifted.join("\n\n")
    );
}
