//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! esharp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! esharp-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat <n>]
//! ```
//!
//! The first form runs one workload in this process and ends its output
//! with the result line the benchmark contract asks for. The second runs
//! every workload (the four `BENCHMARK.json` lists and `search_batch`),
//! untraced and traced, each in a fresh child process (so `peak_rss_mb`
//! is the workload's own), and with `--repeat` compares the sets against
//! the bounds in `BENCHMARK.json`.

mod affinity;
mod client;
mod fixtures;
mod host;
mod ingest;
mod offline;
mod repeat;
mod replay;
mod report;
mod rig;
mod serve_load;
mod spans;
mod stats;

use fixtures::Scale;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--seed`: drives the request streams.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: u64,
    /// `--trace 1`: per-layer metrics from the in-process replay.
    pub trace: bool,
    /// Measured scale, or smoke-sized fixtures.
    pub scale: Scale,
    /// Where fixtures, reports and span files go.
    pub out_dir: PathBuf,
}

/// Run one workload in this process.
pub fn run_workload(workload: &str, opts: &Options) -> Option<Report> {
    let mut report = match workload {
        "search_uncached" => serve_load::run(serve_load::Kind::Uncached, opts),
        "search_cached" => serve_load::run(serve_load::Kind::Cached, opts),
        "search_batch" => serve_load::run(serve_load::Kind::Batch, opts),
        "ingest_mixed" => ingest::run(opts),
        "offline_refresh" => offline::run(opts),
        _ => return None,
    };
    report.conclude();
    Some(report)
}

struct Cli {
    workload: Option<String>,
    opts: Options,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: 1,
            seconds: repeat::spec_run_seconds().unwrap_or(18),
            trace: false,
            scale: Scale::Full,
            out_dir: PathBuf::from("benchmark/out"),
        },
        repeat: 1,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.to_string()),
            "--seed" => cli.opts.seed = number(value("a number")?)?,
            "--seconds" => cli.opts.seconds = number(value("a number")?)?.max(1),
            "--trace" => cli.opts.trace = number(value("0 or 1")?)? != 0,
            "--repeat" => cli.repeat = number(value("a count")?)?.max(1) as usize,
            "--out" => cli.opts.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => cli.opts.scale = Scale::Smoke,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn known_workloads() -> String {
    report::all_workloads().collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("esharp-benchmark: {message}");
            eprintln!("usage: esharp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N] [--out DIR]");
            eprintln!("workloads: {}", known_workloads());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        return repeat::run_sets(&cli.opts, cli.repeat);
    };
    // The SQL backend's heap and spill files go under `temp_dir()`;
    // point it into the output directory so the run writes nowhere else.
    // Set before any thread exists.
    let tmp = cli.opts.out_dir.join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        if let Ok(tmp) = tmp.canonicalize() {
            std::env::set_var("TMPDIR", tmp);
        }
    }
    let Some(report) = run_workload(&workload, &cli.opts) else {
        eprintln!(
            "esharp-benchmark: unknown workload `{workload}`; known: {}",
            known_workloads()
        );
        return ExitCode::from(2);
    };
    // Fixtures are made again by every run; only reports and span files
    // stay.
    let _ = std::fs::remove_dir_all(cli.opts.out_dir.join(&workload));
    print!("{}", report.render_text());
    let suffix = if report.trace { "-trace" } else { "" };
    if let Err(error) = report.write(
        &cli.opts
            .out_dir
            .join(format!("report-{workload}{suffix}.json")),
    ) {
        eprintln!("esharp-benchmark: cannot write the report: {error}");
        return ExitCode::from(1);
    }
    println!("{}", report.last_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::all_workloads;

    fn spec() -> repeat::Spec {
        repeat::Spec::load(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let spec = spec();
        spec.matches_catalogue().unwrap();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(spec.per_layer.len() <= 128);
        assert!((1..=60).contains(&spec.run_seconds));
    }

    /// `--smoke` pass: every workload, traced and untraced, on tiny
    /// fixtures; each run must be correct and emit every metric
    /// `BENCHMARK.json` declares exactly once.
    #[test]
    fn smoke_pass_emits_every_declared_metric_once() {
        let _alone = affinity::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let spec = spec();
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test-smoke");
        for workload in all_workloads() {
            for trace in [false, true] {
                let opts = Options {
                    seed: 3,
                    seconds: 1,
                    trace,
                    scale: Scale::Smoke,
                    out_dir: out_dir.clone(),
                };
                let report = run_workload(workload, &opts).expect("known workload");
                assert!(
                    report.correct,
                    "{workload} trace={trace}:\n{}",
                    report.render_text()
                );
                assert_eq!(report.failed, 0);
                let mut emitted: Vec<&str> =
                    report.metrics.iter().map(|m| m.name.as_str()).collect();
                let mut declared: Vec<&str> = if trace {
                    spec.per_layer.iter().map(|m| m.name.as_str()).collect()
                } else {
                    spec.end_to_end.iter().map(|m| m.name.as_str()).collect()
                };
                emitted.sort_unstable();
                declared.sort_unstable();
                assert_eq!(emitted, declared, "{workload} trace={trace}");
                if !trace {
                    assert!(
                        report.metrics.iter().all(|m| m.value > 0.0),
                        "an end-to-end metric is 0: {:?}",
                        report.metrics
                    );
                }
                let line = report.last_line();
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                if trace {
                    assert!(out_dir.join(format!("trace-{workload}.json")).exists());
                }
            }
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let args: Vec<String> = "--workload search_cached --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let cli = parse_args(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("search_cached"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (9, 3, true)
        );
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }
}
