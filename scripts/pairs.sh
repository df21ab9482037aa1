#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark on one workload.
#
#   scripts/pairs.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]
#
# Builds <parent-rev> (exported with `git archive` into a temporary
# directory) and the working tree in place, both offline in release, then
# runs <pairs> pairs of untraced runs of <workload> for [seconds] each
# (default 18). Pair k uses seed <first-seed> + k - 1 on both sides; odd
# pairs run the parent first, even pairs the change first. Every run writes
# its reports to a temporary directory; all of them are removed on exit.
#
# Prints each pair's figures, then, for every end-to-end metric in
# BENCHMARK.json, each side's median and quartiles, the median of the
# per-pair ratios (change / parent) and the pairs the change won, judged by
# the metric's `better` field. Exits non-zero if any run is not `correct`
# or reports `failed > 0`, or if a metric's median pair ratio is worse
# than its `bound` (a ratio above 1 + bound where lower is better, below
# 1 - bound where higher is).
#
# Passing the commit the working tree stands on as <parent-rev> gives an
# A/A check: both sides run the same code, so the spread of its ratios is
# what noise alone does. Needs bash, git, jq and awk.
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

build() { # <checkout root> <copy the binary to>
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
    cp "$1/benchmark/target/release/esharp-benchmark" "$2"
}

echo "== building parent ${parent_sha:0:12} and the working tree" >&2
mkdir "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"
build "$work/parent" "$work/bin-parent"
# The working tree's binary is copied too, so a rebuild in the checkout
# while the pairs run does not change what they measure.
build "$root" "$work/bin-change"

bad=0
run() { # <side> <pair> <seed>; leaves the result line in $work/<side>-<pair>.json
    local side=$1 pair=$2 seed=$3 dir status=0
    dir=$([[ $side == parent ]] && echo "$work/parent" || echo "$root")
    (cd "$dir" && "$work/bin-$side" --workload "$workload" --seed "$seed" \
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
    printf '%-18s %-8s %-34s %-34s %-12s %s/%s\n' "$name" "$better" \
        "$(printf '%s\n' "${parent_values[@]}" | awk '$1 != "nan"' | quartiles)" \
        "$(printf '%s\n' "${change_values[@]}" | awk '$1 != "nan"' | quartiles)" \
        "$ratio" "$won" "$pairs"
    if awk -v r="$ratio" -v b="$bound" -v better="$better" \
        'BEGIN { exit !(r == "nan" || (better == "lower" ? r > 1 + b : r < 1 - b)) }'; then
        echo "!! $name: median pair ratio $ratio is outside the bound $bound" >&2
        bad=1
    fi
done

if ((bad)); then
    echo "!! a run was not correct, reported failures, or a metric is out of bounds" >&2
    exit 1
fi
