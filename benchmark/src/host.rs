//! Host shape and provenance recorded with every output, and the
//! process-level memory reading behind `peak_rss_mb`.

use serde::Serialize;
use std::process::{Command, Stdio};

/// Where and on what a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `MemTotal` in MiB.
    pub memory_mb: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_revision: String,
    /// Fewer than two processors: client and server share one core, so
    /// no throughput or latency figure says anything about the program.
    pub degenerate_host: bool,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn kb_field(path: &str, key: &str) -> f64 {
    proc_field(path, key)
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Processors this process may use; every thread and connection count
/// in the benchmark derives from it and is capped by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    /// Read the host shape.
    pub fn detect() -> Host {
        let nproc = nproc();
        Host {
            nproc,
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            memory_mb: (kb_field("/proc/meminfo", "MemTotal") / 1024.0) as u64,
            rustc: first_line_of("rustc", &["--version"]),
            git_revision: first_line_of("git", &["rev-parse", "HEAD"]),
            degenerate_host: nproc < 2,
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    kb_field("/proc/self/status", "VmHWM") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_detected() {
        let host = Host::detect();
        assert!(host.nproc >= 1);
        assert_eq!(host.degenerate_host, host.nproc < 2);
        assert!(peak_rss_mb() > 0.0);
    }
}
