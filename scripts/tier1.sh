#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   build   release build of the whole workspace
#   test    the full test suite (unit + property + integration)
#   crash   the kill/resume fault matrix (ROBUSTNESS.md)
#   smoke   serving layer on an ephemeral port (endpoints, keep-alive +
#           pipelined reuse, /search/batch ≡ sequential singles,
#           request-grained shedding, degraded reload, clean shutdown)
#   bench   all Criterion bench targets compile (not run)
#   repo    the repo benchmark's smoke pass (benchmark/, its own package):
#           every workload on tiny fixtures, every response checked
#           byte-for-byte against in-process search — benchmark/ pins the
#           match/search/rank entry points by name, so an API break or
#           a body drift fails here and not in the bench driver
#   online  esharp bench --online smoke: interned and string-keyed read
#           paths return identical experts, report is well-formed
#   ingest  streaming-ingestion smoke over real sockets: append → search
#           → compact → search, bodies byte-identical per (query, epoch,
#           corpus_epoch), durable across restart
#   shards  sharded corpus smoke: build K=4 → zero-copy reload →
#           re-encode byte-identical to K=1, corruption fails at open
#   chaos   deterministic chaos gate: the stall×deadline×hedging matrix
#           on a virtual clock, plus the serve-layer smoke (partials
#           marked + uncached, hedging recovers stragglers, caps answer
#           413/431, panics answer 500, the supervisor heals workers)
#   ooc     out-of-core smoke: the clustering SQL with a 4 MiB buffer
#           pool over a larger-than-pool heap file is bit-identical to
#           the in-memory run; the heap-file corruption matrix and the
#           planner-equivalence property suite stay green
#   loop    event-loop gate: pipelining torture (every byte-boundary
#           split ≡ unsplit, under chaos stalls; malformed-behind-valid
#           answers then closes), cache hits answered on the loop thread
#           (served under overload, in order between pipelined misses,
#           counted once), batch ≡ sequential property suite, and the
#           smokes again under ESHARP_FORCE_POLL=1 so the portable
#           poll(2) backend stays honest on Linux
#   clippy  workspace lints, warnings are errors
#   panic   persistence/checkpoint/read-path/tail-tolerance modules —
#           plus the storage crate, the paged/planner modules, the
#           event-loop front end (poller/conn/event_loop), and the
#           batch planner path (corpus match, retriever, detector,
#           online), the rank kernel (tweet columns, candidate
#           features), the refresh's input path (log aggregation,
#           graph builder), and the relational kernels (columns, tables,
#           vectorised expressions, UDFs, typed-key join / aggregate /
#           project, hash partitioning) — keep their no-panic lint gate
#
# Usage: scripts/tier1.sh   (from the repo root or anywhere inside it)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== tier-1: cargo test -q -p esharp-core --test crashsafety"
cargo test -q -p esharp-core --test crashsafety

echo "== tier-1: cargo test -q -p esharp-serve --test smoke (serving layer)"
cargo test -q -p esharp-serve --test smoke

echo "== tier-1: cargo bench --no-run"
cargo bench --no-run

echo "== tier-1: repo benchmark smoke (benchmark/ builds; served bodies ≡ in-process search)"
bench_dir="$(mktemp -d)"
online_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir" "$online_dir"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --smoke --seconds 1 --out "$bench_dir" >/dev/null

echo "== tier-1: esharp bench --online smoke (interned vs string-keyed parity)"
./target/release/esharp bench --online --scale tiny --seed 7 --queries 200 \
  --json --out "$online_dir" >/dev/null
for key in '"bench": "online"' '"name": "interned"' '"name": "string_keyed"' \
           '"hot_path_speedup":' '"binary_load_secs":' '"results_identical": true'; do
  grep -qF "$key" "$online_dir/BENCH_online.json" || {
    echo "BENCH_online.json missing $key" >&2
    exit 1
  }
done

echo "== tier-1: ingest smoke (append → search → compact → search)"
cargo test -q -p esharp-serve --test ingest_smoke
cargo test -q -p esharp-ingest --test crashsafety_ingest

echo "== tier-1: sharded corpus smoke (K=4 search ≡ K=1, zero-copy reload, corruption matrix)"
cargo test -q -p esharp-microblog --test sharded_corpus
shard_dir="$(mktemp -d)"
./target/release/esharp build --scale tiny --seed 7 --out "$shard_dir" --shards 4 >/dev/null
for f in corpus.manifest global.bin tokens.seg \
         postings-0.seg postings-1.seg postings-2.seg postings-3.seg; do
  [ -s "$shard_dir/$f" ] || {
    echo "esharp build --shards 4 did not write $f" >&2
    exit 1
  }
done
rm -rf "$shard_dir"

echo "== tier-1: chaos gate (deterministic matrix + serve-layer smoke)"
cargo test -q -p esharp-core --test chaos_matrix
cargo test -q -p esharp-serve --test chaos_smoke

echo "== tier-1: out-of-core smoke (4 MiB pool clustering SQL ≡ in-memory)"
cargo test -q --release -p esharp-community --test out_of_core_smoke
cargo test -q -p esharp-storage --test corruption_matrix
cargo test -q -p esharp-relation --test planner_equiv

echo "== tier-1: event-loop gate (pipelining torture, inline hits, batch ≡ singles, poll(2) fallback)"
cargo test -q -p esharp-serve --test pipelining
cargo test -q -p esharp-serve --test inline_hits
cargo test -q -p esharp-serve --test proptest_batch
ESHARP_FORCE_POLL=1 cargo test -q -p esharp-serve --test smoke
ESHARP_FORCE_POLL=1 cargo test -q -p esharp-serve --test pipelining
ESHARP_FORCE_POLL=1 cargo test -q -p esharp-serve --test inline_hits

echo "== tier-1: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== tier-1: no-panic gate on the durability layer and read path"
for f in crates/relation/src/atomic.rs crates/relation/src/binfmt.rs \
         crates/graph/src/io.rs crates/core/src/domains.rs \
         crates/core/src/checkpoint.rs crates/core/src/shared.rs \
         crates/microblog/src/binio.rs crates/microblog/src/index.rs \
         crates/microblog/src/arena.rs crates/microblog/src/segio.rs \
         crates/serve/src/lib.rs crates/ingest/src/lib.rs \
         crates/fault/src/clock.rs crates/fault/src/budget.rs \
         crates/fault/src/chaos.rs crates/fault/src/breaker.rs \
         crates/microblog/src/bounded.rs \
         crates/storage/src/lib.rs crates/storage/src/atomic.rs \
         crates/storage/src/page.rs crates/storage/src/heap.rs \
         crates/storage/src/pool.rs crates/storage/src/spill.rs \
         crates/relation/src/paged.rs crates/relation/src/physical.rs \
         crates/relation/src/catalog.rs \
         crates/serve/src/poller.rs crates/serve/src/conn.rs \
         crates/serve/src/event_loop.rs \
         crates/microblog/src/corpus.rs crates/core/src/online.rs \
         crates/core/src/retriever.rs crates/expert/src/detector.rs \
         crates/expert/src/features.rs crates/microblog/src/columns.rs \
         crates/querylog/src/aggregate.rs crates/graph/src/builder.rs \
         crates/relation/src/column.rs crates/relation/src/table.rs \
         crates/relation/src/expr.rs crates/relation/src/udf.rs \
         crates/relation/src/ops/join.rs crates/relation/src/ops/aggregate.rs \
         crates/relation/src/ops/project.rs crates/relation/src/ops/keys.rs \
         crates/relation/src/exec/partition.rs; do
  grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' "$f" || {
    echo "missing unwrap/expect deny gate in $f" >&2
    exit 1
  }
done

echo "== tier-1: OK"
