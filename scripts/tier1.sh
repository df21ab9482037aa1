#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green. Each step adds
# coverage the others do not; nothing is run twice.
#
#   build   release build of the whole workspace
#   test    the whole workspace's tests once: unit, property and
#           integration suites, the crash/kill matrices, the serve,
#           ingest, chaos and event-loop smokes, and the CLI tests
#   ooc     the out-of-core clustering smoke in release mode: the Figure 4
#           SQL with a 4 MiB buffer pool over a larger-than-pool heap file
#           is bit-identical to the in-memory run (at the size the debug
#           build skips)
#   poll    the socket smokes again under ESHARP_FORCE_POLL=1, so the
#           portable poll(2) backend stays honest on Linux
#   bench   the Criterion bench targets compile (not run)
#   repo    the repo benchmark's smoke pass (benchmark/, its own package):
#           every workload on tiny fixtures, every response checked
#           byte-for-byte against in-process search — benchmark/ pins the
#           match/search/rank entry points by name, so an API break or a
#           body drift fails here and not in a full benchmark run
#   clippy  workspace lints, warnings are errors
#   panic   every crate root carries the no-panic lint gate (non-test
#           unwrap/expect is a compile error), so a new module is gated
#           by default; the exempt crates are named below with reasons
#
# Usage: scripts/tier1.sh   (from the repo root or anywhere inside it)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== tier-1: out-of-core smoke, release (4 MiB pool clustering SQL ≡ in-memory)"
cargo test -q --release -p esharp-community --test out_of_core_smoke

echo "== tier-1: poll(2) fallback (socket smokes under ESHARP_FORCE_POLL=1)"
for suite in smoke pipelining inline_hits; do
  ESHARP_FORCE_POLL=1 cargo test -q -p esharp-serve --test "$suite"
done

echo "== tier-1: cargo bench --no-run"
cargo bench --no-run

echo "== tier-1: repo benchmark smoke (benchmark/ builds; served bodies ≡ in-process search)"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --smoke --seconds 1 --out "$bench_dir" >/dev/null

echo "== tier-1: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== tier-1: no-panic gate at every crate root"
# Exempt crates, each with its reason:
#   cli        binaries; errors exit through `fail` with a message
#   eval       5 unwrap/expect sites in the experiment runners
#   par        7 lock-poison sites in the thread pool
gate='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]'
for lib in crates/*/src/lib.rs; do
  crate="${lib#crates/}"
  crate="${crate%%/*}"
  case "$crate" in cli | eval | par) continue ;; esac
  grep -qxF "$gate" "$lib" || {
    echo "missing the no-panic gate at the root of $lib" >&2
    exit 1
  }
done

echo "== tier-1: OK"
