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
#   columnar the relation engine's column kernels against the row oracle
#           (proptest_columnar) in release mode, so a result that depends
#           on the optimisation level (a NaN's sign bit, say) fails here
#           and not only in a release run; this covers the filter's
#           selection-vector path (AND chains whose later conjuncts run
#           only on the rows earlier ones kept) and the comparisons with
#           a numeric literal (NaN and -0.0 literals, either side)
#   metamorphic the answer-preserving relations (tests/metamorphic.rs) in
#           release mode over the Tiny testbed and `CorpusConfig::tiny`
#           corpora: rebuilding from shuffled tweets, re-cutting into
#           1, 2, 3 or 5 shards, appending tweets irrelevant to a
#           query and repeating a member of every domain (as written or
#           in upper case) give every query the same top-k users and
#           score bits
#   runs    the run-form posting lists against a `BTreeSet` reference
#           (proptest_runs) in release mode: a run's end, `start + len`,
#           panics on overflow in the debug test build but wraps in
#           release, so ids against `u32::MAX` must also be checked where
#           a wrap would be silent
#   flake   the flake budget: the test binaries of the virtual-clock and
#           chaos suites (core's chaos_matrix, serve's proptest_chaos and
#           chaos_smoke, microblog's `bounded` unit tests) run 100 times
#           each and serve's ingest_smoke 25 times, from the build the
#           test step left; the first failure stops the step and prints
#           its round and output. A test that depends on thread order is
#           a bug in the test or the code
#   bench   the Criterion bench targets compile (not run)
#   repo    the repo benchmark's smoke pass (benchmark/, its own package):
#           every workload on tiny fixtures, every response checked
#           byte-for-byte against in-process search — benchmark/ pins the
#           match/search/rank entry points by name, so an API break or a
#           body drift fails here and not in a full benchmark run
#   clippy  workspace lints over every target (libraries, binaries,
#           tests, benches, examples), warnings are errors
#   doc     the workspace's rustdoc builds with warnings as errors, so a
#           broken intra-doc link, or public docs linking a private
#           item, fails here
#   panic   every crate root carries the no-panic lint gate (non-test
#           unwrap/expect is a compile error), so a new module is gated
#           by default; the exempt crates are named below with reasons
#   unsafe  every crate root carries `#![forbid(unsafe_code)]`, so
#           `unsafe` outside the two exempt crates (named below with
#           reasons) is a compile error; their roots deny it and each
#           has one allow, serve's on the poller module and par's on
#           `ThreadPool::run`, so `unsafe` anywhere else in them is a
#           compile error too
#   dead    every `pub fn` / `pub(crate) fn` in crates/*/src is named
#           somewhere other than a `fn` definition line and outside `//`
#           comments, in crates/, benchmark/src, examples/ or tests/ —
#           a function only its own definition names is deleted, not
#           kept; any exemption is listed below with its reason
#   crc     `crc32(` is called only in the files listed below, each for a
#           format that needs a CRC at a fixed place; every other
#           checksummed container seals its parts through
#           `esharp_storage::atomic::{frame_header, read_frame}`
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

echo "== tier-1: column kernels ≡ row oracle, release (bit for bit in every profile)"
cargo test -q --release -p esharp-relation --test proptest_columnar

echo "== tier-1: metamorphic relations, release (shuffled tweets, any shard count, irrelevant growth, duplicate domain members ≡ same answers)"
cargo test -q --release -p esharp-eval --test metamorphic

echo "== tier-1: run-form postings ≡ BTreeSet reference, release (no run end wraps at u32::MAX)"
cargo test -q --release -p esharp-microblog --test proptest_runs

echo "== tier-1: flake budget (chaos suites 100x, ingest_smoke 25x)"
# flake <rounds> <crate dir> <cargo test target args…> [-- <test filter>]
flake() {
  local rounds="$1" dir="$2" bin out round
  shift 2
  local target=() filter=()
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do target+=("$1"); shift; done
  [ $# -gt 0 ] && { shift; filter=("$@"); }
  bin="$(cargo test -q --no-run --message-format=json "${target[@]}" |
    grep -o '"executable":"[^"]*"' | tail -n 1 | cut -d'"' -f4)"
  [ -x "$bin" ] || { echo "flake: no test binary for ${target[*]}" >&2; exit 1; }
  for round in $(seq 1 "$rounds"); do
    if ! out="$(cd "$dir" && "$bin" -q "${filter[@]}" 2>&1)"; then
      echo "$out" >&2
      echo "flake: ${target[*]} ${filter[*]} failed in round $round of $rounds" >&2
      exit 1
    fi
  done
}
flake 100 crates/core -p esharp-core --test chaos_matrix
flake 100 crates/serve -p esharp-serve --test proptest_chaos
flake 100 crates/serve -p esharp-serve --test chaos_smoke
flake 100 crates/microblog -p esharp-microblog --lib -- bounded::
flake 25 crates/serve -p esharp-serve --test ingest_smoke

echo "== tier-1: cargo bench --no-run"
cargo bench --no-run

echo "== tier-1: repo benchmark smoke (benchmark/ builds; served bodies ≡ in-process search)"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --smoke --seconds 1 --out "$bench_dir" >/dev/null

echo "== tier-1: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: rustdoc, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: no-panic and no-unsafe gates at every crate root"
# Exempt from the no-panic gate, each with its reason:
#   cli        binaries; errors exit through `fail` with a message
#   eval       5 unwrap/expect sites in the experiment runners
#   par        7 lock-poison sites in the thread pool
# Exempt from the no-unsafe gate, each with its reason:
# (`forbid` cannot be allowed again on one item, so each root denies
# `unsafe_code` and the item below carries the crate's single allow):
#   serve      the epoll FFI in poller.rs, on `pub mod poller;`; each
#              site's invariant is in the poller module doc
#   par        the job-lifetime transmute, on `pub fn run`; its invariant
#              is written in `ThreadPool::run`'s doc
panic_gate='#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]'
unsafe_gate='#![forbid(unsafe_code)]'
# allowed_once <crate> <the line the allow must sit on, indentation stripped>
allowed_once() {
  local crate="$1" item="$2" allows
  allows="$(grep -rn --include='*.rs' 'allow(unsafe_code)' "crates/$crate/src" || true)"
  if ! grep -qxF '#![deny(unsafe_code)]' "crates/$crate/src/lib.rs" ||
    [ "$(grep -c . <<<"$allows")" != 1 ] ||
    ! awk -v item="$item" '{ sub(/^[ \t]+/, "") }
           prev == "#[allow(unsafe_code)]" && $0 == item { ok = 1 }
           { prev = $0 } END { exit !ok }' "crates/$crate/src/lib.rs"; then
    echo "$crate must deny unsafe_code at its root and allow it once, on \`$item\`:" >&2
    echo "${allows:-(no allow found)}" >&2
    exit 1
  fi
}
allowed_once serve 'pub mod poller;'
allowed_once par 'pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>'
for lib in crates/*/src/lib.rs; do
  crate="${lib#crates/}"
  crate="${crate%%/*}"
  case "$crate" in
    cli | eval | par) ;;
    *) grep -qxF "$panic_gate" "$lib" || {
         echo "missing the no-panic gate at the root of $lib" >&2
         exit 1
       } ;;
  esac
  case "$crate" in
    serve | par) ;;
    *) grep -qxF "$unsafe_gate" "$lib" || {
         echo "missing the no-unsafe gate at the root of $lib" >&2
         exit 1
       } ;;
  esac
done

echo "== tier-1: dead gate (every pub and pub(crate) fn is named elsewhere)"
# Exempt from the dead gate, one name per entry, each with its reason:
#   (none)
dead_exempt=()
export LC_ALL=C
defined="$(grep -rhoE --include='*.rs' 'pub(\(crate\))? fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
  awk '{print $NF}' | sort -u)"
named="$(find crates benchmark/src examples tests -name '*.rs' -print0 |
  xargs -0 sed -E -e 's#//.*##' -e 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"
dead="$(comm -23 <(echo "$defined") <(echo "$named") |
  grep -vxF -f <(printf '%s\n' "${dead_exempt[@]}" '') || true)"
if [ -n "$dead" ]; then
  echo "functions no code names (delete them, or exempt them above with a reason):" >&2
  echo "$dead" >&2
  exit 1
fi

echo "== tier-1: crc gate (crc32 is called only where a fixed layout needs it)"
# Allowed to call crc32(, one file per entry, each with its reason:
#   storage/src/atomic.rs     the sealed frame (frame_header, read_frame)
#   storage/src/page.rs       the in-place page seal
#   microblog/src/segio.rs    the corpus file's fixed-offset header and
#                             body sections
#   ingest/src/live.rs        oplog lines and the base identity
crc_allowed=(
  crates/storage/src/atomic.rs
  crates/storage/src/page.rs
  crates/microblog/src/segio.rs
  crates/ingest/src/live.rs
)
crc_callers="$(grep -rlE --include='*.rs' '\bcrc32\(' crates benchmark/src examples tests |
  grep -vxF -f <(printf '%s\n' "${crc_allowed[@]}") || true)"
if [ -n "$crc_callers" ]; then
  echo "crc32( called outside its allowed files (seal through frame_header /" >&2
  echo "read_frame, or allow the file above with a reason):" >&2
  echo "$crc_callers" >&2
  exit 1
fi

echo "== tier-1: OK"
