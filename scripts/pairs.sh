#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark on one workload.
#
#   scripts/pairs.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]
#
# Exports <parent-rev> and the working tree (uncommitted edits and
# untracked files included, ignored files not) into two sibling temporary
# directories whose paths have the same length, builds each export
# offline in release, then runs <pairs> pairs of untraced runs of
# <workload> for [seconds] each (default 18), each side from its own
# export. Two builds of one tree read several percent apart when one is
# built in place and the other in a temporary directory (PERF.md §20), so
# both sides are built the same way. Pair k uses seed <first-seed> + k - 1
# on both sides; odd pairs run the parent first, even pairs the change
# first. Every run writes its reports to the temporary directory; all of
# it is removed on exit.
#
# Prints each pair's figures, then, for every end-to-end metric in
# BENCHMARK.json, each side's median and quartiles, the median of the
# per-pair ratios (change / parent) and the pairs the change won, judged by
# the metric's `better` field. Then prints one ledger line per metric, a
# JSON object (the format of BENCH_ledger.json's entries): workload,
# metric, parent and change commits (the change's marked `+uncommitted`
# when the working tree differs from it), host (nproc and CPU model),
# seeds, seconds, both medians, the median pair ratio and pairs won.
# Exits non-zero if any run is not `correct` or reports `failed > 0`, or
# if a metric's median pair ratio is worse than its `bound` (a ratio above
# 1 + bound where lower is better, below 1 - bound where higher is).
#
# Passing the commit the working tree stands on as <parent-rev> gives an
# A/A check: both sides run the same code, so the spread of its ratios is
# what noise alone does. Needs bash, git, tar, jq and awk.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 first_seed=$4 seconds=${5:-18}
root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

head_sha=$(git -C "$root" rev-parse --verify HEAD)
# The working tree as a tree object, through a throwaway index so the
# checkout's own index is left alone.
export GIT_INDEX_FILE="$work/index"
git -C "$root" read-tree HEAD
git -C "$root" add -A
change_tree=$(git -C "$root" write-tree)
unset GIT_INDEX_FILE
change_rev=$head_sha
if [[ $change_tree != $(git -C "$root" rev-parse "HEAD^{tree}") ]]; then
    change_rev+="+uncommitted"
fi

export_build() { # <side> <tree-ish>: export to $work/<side> and build there
    mkdir "$work/$1"
    git -C "$root" archive "$2" | tar -x -C "$work/$1"
    cargo build --release --offline --quiet --manifest-path "$work/$1/benchmark/Cargo.toml"
}

echo "== building parent ${parent_sha:0:12} and the working tree (${change_rev:0:12}${change_rev:40})" >&2
export_build parent "$parent_sha"
export_build change "$change_tree"

bad=0
run() { # <side> <pair> <seed>; leaves the result line in $work/<side>-<pair>.json
    local side=$1 pair=$2 seed=$3 status=0
    (cd "$work/$side" && benchmark/target/release/esharp-benchmark --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$work/out-$side-$pair") \
        >"$work/log-$side-$pair" 2>&1 || status=$?
    grep '^{"correct": ' "$work/log-$side-$pair" | tail -n 1 >"$work/$side-$pair.json" || true
    if [[ $status -ne 0 ]] || ! jq -e '.correct == true and .failed == 0' \
        "$work/$side-$pair.json" >/dev/null 2>&1; then
        echo "!! $side run of pair $pair (seed $seed) is not correct (exit $status):" >&2
        tail -n 20 "$work/log-$side-$pair" >&2
        bad=1
    fi
    rm -rf "$work/out-$side-$pair"
}

mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json")
value() { # <side> <pair> <metric>
    jq -r --arg m "$1" '.metrics[$m].value // "nan"' "$work/$2-$3.json" 2>/dev/null || echo nan
}

echo "== $workload: $pairs pairs from seed $first_seed, $seconds s, parent ${parent_sha:0:12}"
for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((first_seed + pair - 1))
    if ((pair % 2 == 1)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" "$pair" "$seed"; done
    line="pair $pair seed $seed ${order[0]} first:"
    for entry in "${metrics[@]}"; do
        name=${entry%% *}
        line+=" $name $(value "$name" parent "$pair") -> $(value "$name" change "$pair")"
    done
    echo "$line"
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (v[lo + 1] - v[lo]) * (h - lo)
        }
        END { if (NR == 0) print "nan [nan, nan]"; else printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}

host=$(jq -cn --argjson nproc "$(nproc)" \
    --arg cpu "$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null)" \
    '{nproc: $nproc, cpu: $cpu}')
seeds=$(seq "$first_seed" $((first_seed + pairs - 1)) | jq -cs .)
ledger=()
printf '%-18s %-8s %-34s %-34s %-12s %s\n' metric better "parent median [q1, q3]" \
    "change median [q1, q3]" "pair ratio" won
for entry in "${metrics[@]}"; do
    read -r name better bound <<<"$entry"
    parent_values=() change_values=()
    for ((pair = 1; pair <= pairs; pair++)); do
        parent_values+=("$(value "$name" parent "$pair")")
        change_values+=("$(value "$name" change "$pair")")
    done
    ratios=$(paste <(printf '%s\n' "${parent_values[@]}") <(printf '%s\n' "${change_values[@]}") |
        awk '$1 + 0 != 0 && $1 != "nan" && $2 != "nan" { print $2 / $1 }')
    won=$(paste <(printf '%s\n' "${parent_values[@]}") <(printf '%s\n' "${change_values[@]}") |
        awk -v better="$better" '
            $1 != "nan" && $2 != "nan" && ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) { n++ }
            END { print n + 0 }')
    ratio=$(printf '%s\n' "$ratios" | awk NF | quartiles | cut -d' ' -f1)
    parent_q=$(printf '%s\n' "${parent_values[@]}" | awk '$1 != "nan"' | quartiles)
    change_q=$(printf '%s\n' "${change_values[@]}" | awk '$1 != "nan"' | quartiles)
    printf '%-18s %-8s %-34s %-34s %-12s %s/%s\n' "$name" "$better" "$parent_q" "$change_q" \
        "$ratio" "$won" "$pairs"
    ledger+=("$(jq -cn --arg workload "$workload" --arg metric "$name" --arg better "$better" \
        --arg parent "$parent_sha" --arg change "$change_rev" --argjson host "$host" \
        --argjson seeds "$seeds" --argjson seconds "$seconds" \
        --arg parent_median "${parent_q%% *}" --arg change_median "${change_q%% *}" \
        --arg pair_ratio "$ratio" --argjson won "$won" --argjson pairs "$pairs" \
        'def num: tonumber? // null;
         {workload: $workload, metric: $metric, better: $better, parent: $parent,
          change: $change, host: $host, seeds: $seeds, seconds: $seconds,
          parent_median: ($parent_median | num), change_median: ($change_median | num),
          pair_ratio: ($pair_ratio | num), won: $won, pairs: $pairs}')")
    if awk -v r="$ratio" -v b="$bound" -v better="$better" \
        'BEGIN { exit !(r == "nan" || (better == "lower" ? r > 1 + b : r < 1 - b)) }'; then
        echo "!! $name: median pair ratio $ratio is outside the bound $bound" >&2
        bad=1
    fi
done

printf '%s\n' "${ledger[@]}"

if ((bad)); then
    echo "!! a run was not correct, reported failures, or a metric is out of bounds" >&2
    exit 1
fi
