//! Running whole sets — every workload, untraced and traced, each in a
//! fresh child process — and the repeatability report: two or more sets
//! on the same seed must agree within the bounds `BENCHMARK.json` fixes.

use crate::fixtures::Scale;
use crate::report::{all_workloads, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Options;
use serde::Deserialize;
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Per-layer metrics that are counts of the program's own work: they
/// must repeat exactly from set to set, not merely within a bound.
const EXACT: [&str; 8] = [
    "core.results_checksum",
    "core.domains_checksum",
    "community.iterations",
    "community.modularity",
    "community.domains",
    "ingest.compactions",
    "ingest.acked_ops",
    "graph.edges",
];

/// A workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct SpecWorkload {
    /// Workload name.
    pub name: String,
}

/// A metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// (absent on per-layer metrics).
    #[serde(default)]
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<SpecWorkload>,
    /// Gated metrics.
    pub end_to_end: Vec<SpecMetric>,
    /// Ungated layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// Parse a `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether the file lists exactly the workloads and metrics (names
    /// and units, in order) this binary emits.
    pub fn matches_catalogue(&self) -> Result<(), String> {
        let same = |listed: &[SpecMetric], catalogue: &[(&str, &str)]| {
            listed.len() == catalogue.len()
                && listed
                    .iter()
                    .zip(catalogue)
                    .all(|(m, &(name, unit))| m.name == name && m.unit == unit)
        };
        if !self.workloads.iter().map(|w| w.name.as_str()).eq(WORKLOADS) {
            return Err("BENCHMARK.json lists other workloads than this binary runs".to_string());
        }
        if !same(&self.end_to_end, END_TO_END) || !same(&self.per_layer, PER_LAYER) {
            return Err("BENCHMARK.json lists other metrics than this binary emits".to_string());
        }
        Ok(())
    }
}

/// `run_seconds` of the `BENCHMARK.json` in the working directory.
pub fn spec_run_seconds() -> Option<u64> {
    Spec::load(Path::new("BENCHMARK.json"))
        .ok()
        .map(|s| s.run_seconds)
}

#[derive(Debug, Deserialize)]
struct LineMetric {
    value: f64,
    unit: String,
}

/// The contract's result line, parsed back.
#[derive(Debug, Deserialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<String, LineMetric>,
}

/// Run one workload in a child process and parse its result line.
fn run_child(workload: &str, trace: bool, opts: &Options) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line: Line = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit {:?}\n{stdout}",
            output.status.code()
        )
    })?;
    if !output.status.success() || !line.correct {
        return Err(format!(
            "{workload} trace={}: run is not correct\n{stdout}",
            u8::from(trace)
        ));
    }
    Ok(line)
}

/// One full set: `(workload, trace)` → result line.
type Set = Vec<((&'static str, bool), Line)>;

fn run_set(opts: &Options) -> Result<Set, String> {
    let mut set = Vec::new();
    for workload in all_workloads() {
        for trace in [false, true] {
            eprintln!("running {workload} --trace {}", u8::from(trace));
            set.push(((workload, trace), run_child(workload, trace, opts)?));
        }
    }
    Ok(set)
}

fn print_set(set: &Set) {
    for ((workload, trace), line) in set {
        println!(
            "== {workload} --trace {}: attempted {} failed {}",
            u8::from(*trace),
            line.attempted,
            line.failed
        );
        let mut names: Vec<&String> = line.metrics.keys().collect();
        names.sort();
        // A layer the workload does not exercise reports 0; leave those
        // lines out of the listing.
        for name in names {
            let metric = &line.metrics[name];
            if metric.value != 0.0 {
                println!("{name:<40} {:>18.4} {}", metric.value, metric.unit);
            }
        }
    }
}

/// Compare sets pairwise against the first. Returns how many
/// comparisons fail.
fn compare(sets: &[Set], spec: &Spec) -> usize {
    let mut failures = 0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "other", "diff", "bound"
    );
    for (other_index, other) in sets.iter().enumerate().skip(1) {
        for (((workload, trace), first), (_, other)) in sets[0].iter().zip(other) {
            if !*trace {
                for metric in &spec.end_to_end {
                    let (a, b) = (
                        first.metrics[&metric.name].value,
                        other.metrics[&metric.name].value,
                    );
                    let diff = (b - a) / a;
                    // A workload `BENCHMARK.json` does not list is shown,
                    // not held to the bounds.
                    let gated = WORKLOADS.contains(workload);
                    let ok = diff.abs() <= metric.bound;
                    failures += usize::from(gated && !ok);
                    println!(
                        "{workload:<18} {:<18} {a:>14.4} {b:>14.4} {:>+7.2}% {:>6.0}%  {}",
                        metric.name,
                        diff * 100.0,
                        metric.bound * 100.0,
                        if ok {
                            "within".to_string()
                        } else if !gated {
                            "exceeds (not gated)".to_string()
                        } else {
                            format!("EXCEEDS (set 1 vs set {})", other_index + 1)
                        },
                    );
                }
            } else {
                for name in EXACT {
                    let (a, b) = (first.metrics[name].value, other.metrics[name].value);
                    if a != b {
                        failures += 1;
                        println!("{workload:<18} {name:<18} {a:>14} {b:>14}  MUST REPEAT EXACTLY");
                    }
                }
            }
        }
    }
    failures
}

/// Run `repeat` full sets; with two or more, print the repeatability
/// report and fail if any pair disagrees by more than its bound.
pub fn run_sets(opts: &Options, repeat: usize) -> ExitCode {
    let spec = match Spec::load(Path::new("BENCHMARK.json")) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("esharp-benchmark: run from the repository root: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = spec.matches_catalogue() {
        eprintln!("esharp-benchmark: {message}");
        return ExitCode::from(2);
    }
    let mut sets = Vec::new();
    for index in 0..repeat {
        eprintln!("set {} of {repeat}", index + 1);
        match run_set(opts) {
            Ok(set) => {
                print_set(&set);
                sets.push(set);
            }
            Err(message) => {
                eprintln!("esharp-benchmark: {message}");
                return ExitCode::from(1);
            }
        }
    }
    if sets.len() < 2 {
        return ExitCode::SUCCESS;
    }
    let failures = compare(&sets, &spec);
    if failures == 0 {
        println!("every end-to-end metric agrees within its bound; exact counts repeat");
        ExitCode::SUCCESS
    } else {
        println!("{failures} comparisons exceed their bound");
        ExitCode::from(1)
    }
}
