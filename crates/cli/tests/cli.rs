//! The `esharp` binary at its command line: what `build` writes, how
//! value flags without a value fail, the retired `bench` subcommand, and
//! `sql` through the physical planner.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "esharp-cli-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn entries(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.0)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn esharp(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esharp"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap()
}

#[test]
fn build_with_shards_writes_the_sharded_corpus() {
    let cwd = TempDir::new();
    let out = cwd.0.join("artifacts");
    let out_arg = out.to_str().unwrap();
    let run = esharp(
        &[
            "build", "--scale", "tiny", "--seed", "7", "--out", out_arg, "--shards", "4",
        ],
        &cwd.0,
    );
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for file in [
        "corpus.manifest",
        "global.bin",
        "tokens.seg",
        "postings-0.seg",
        "postings-1.seg",
        "postings-2.seg",
        "postings-3.seg",
    ] {
        let len = std::fs::metadata(out.join(file))
            .map(|m| m.len())
            .unwrap_or(0);
        assert!(len > 0, "esharp build --shards 4 did not write {file}");
    }
}

#[test]
fn a_value_flag_without_its_value_fails_and_writes_nothing() {
    for args in [
        &["build", "--scale", "tiny", "--out"][..],
        &["build", "--out", "--shards", "4", "--scale", "tiny"],
        &["build", "--scale", "tiny", "--checkpoint-dir"],
        &["build", "--checkpoint-dir", "--resume", "--scale", "tiny"],
    ] {
        let cwd = TempDir::new();
        let run = esharp(args, &cwd.0);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&run.stderr).contains("expects a value"),
            "{args:?}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert_eq!(cwd.entries(), Vec::<String>::new(), "{args:?} wrote files");
    }
}

#[test]
fn bench_is_an_unknown_subcommand() {
    let cwd = TempDir::new();
    let run = esharp(&["bench"], &cwd.0);
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("unknown subcommand \"bench\""));
}

#[test]
fn sql_runs_through_the_physical_planner() {
    let cwd = TempDir::new();
    let run = esharp(
        &["sql", "select count(*) from communities", "--scale", "tiny"],
        &cwd.0,
    );
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("SeqScan: communities"), "{stdout}");
    assert!(stdout.contains("-- 1 rows\n"), "{stdout}");
}
