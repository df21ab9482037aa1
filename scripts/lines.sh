#!/usr/bin/env bash
# Rust lines per crate, split by what the lines are.
#
#   scripts/lines.sh [rev]
#
# Counts the lines (as `wc -l` does: blank and comment lines included) of
# every `.rs` file under `crates/`, `tests/` and `examples/`, at git
# revision [rev] or, without one, in the working tree (uncommitted edits
# and untracked files included). A revision is read through `git
# archive` into a temporary directory, removed on exit, so no checkout or
# worktree changes. One row per crate:
#
#   lib       crates/<c>/src, outside `#[cfg(test)]` items
#   unit      crates/<c>/src, inside `#[cfg(test)]` items (inline tests)
#   tests     crates/<c>/tests and crates/<c>/benches, and the files under
#             the root tests/ that crates/<c>/Cargo.toml names by `path`
#   examples  crates/<c>/examples, and the root examples/ it names
#
# A root tests/ or examples/ file no manifest names is counted in a row
# of its own, `(root)`. An `#[cfg(test)]` item runs from the attribute to
# the line where its braces close (or to its `;` when it has none);
# braces are counted after string and char literals and `//` comments
# are dropped from the line, so a brace inside a string that spans lines
# can misplace the end of an item.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
if [[ $# -gt 1 ]]; then
    echo "usage: $0 [rev]" >&2
    exit 2
fi
if [[ $# -eq 1 ]]; then
    label=$(git -C "$root" rev-parse --short --verify "$1^{commit}")
    src=$(mktemp -d)
    trap 'rm -rf "$src"' EXIT
    git -C "$root" archive "$label" -- crates tests examples | tar -x -C "$src"
else
    label="working tree"
    src=$root
fi
cd "$src"

# split <file>: prints "<lib> <unit>" for one source file.
split() {
    awk '
    {
        if (!in_test && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
            in_test = 1; depth = 0; opened = 0
        }
        if (!in_test) { lib++; next }
        unit++
        code = $0
        gsub(/"([^"\\]|\\.)*"/, "", code)
        gsub(/'"'"'(\\.|[^'"'"'\\])'"'"'/, "", code)
        sub(/\/\/.*$/, "", code)
        opens = gsub(/\{/, "", code)
        closes = gsub(/\}/, "", code)
        depth += opens - closes
        if (opens > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/)) in_test = 0
    }
    END { print lib + 0, unit + 0 }' "$1"
}

# owner <root-relative file>: the crate whose manifest names it by path.
owner() {
    local manifest
    manifest=$(grep -l "path = \"../../$1\"" crates/*/Cargo.toml 2>/dev/null | head -n 1 || true)
    if [[ -n $manifest ]]; then
        basename "$(dirname "$manifest")"
    else
        echo "(root)"
    fi
}

declare -A lib unit tests examples
add() { # <array> <crate> <lines>
    local -n column=$1
    column[$2]=$(( ${column[$2]:-0} + $3 ))
}
lines() { wc -l <"$1" | tr -d ' '; }

while IFS= read -r -d '' file; do
    crate=${file#crates/}
    crate=${crate%%/*}
    case $file in
        crates/*/src/*)
            read -r l u < <(split "$file")
            add lib "$crate" "$l"
            add unit "$crate" "$u"
            ;;
        crates/*/examples/*) add examples "$crate" "$(lines "$file")" ;;
        *) add tests "$crate" "$(lines "$file")" ;;
    esac
done < <(find crates -name '*.rs' -not -path '*/target/*' -print0)

for dir in tests examples; do
    [[ -d $dir ]] || continue
    while IFS= read -r -d '' file; do
        crate=$(owner "$file")
        if [[ $dir == tests ]]; then
            add tests "$crate" "$(lines "$file")"
        else
            add examples "$crate" "$(lines "$file")"
        fi
    done < <(find "$dir" -name '*.rs' -print0)
done

echo "Rust lines at $label"
printf '%-12s %8s %8s %8s %8s %8s\n' crate lib unit tests examples total
sum=(0 0 0 0 0)
for crate in $(printf '%s\n' "${!lib[@]}" "${!unit[@]}" "${!tests[@]}" "${!examples[@]}" | sort -u); do
    row=("${lib[$crate]:-0}" "${unit[$crate]:-0}" "${tests[$crate]:-0}" "${examples[$crate]:-0}")
    total=$(( row[0] + row[1] + row[2] + row[3] ))
    printf '%-12s %8d %8d %8d %8d %8d\n' "$crate" "${row[@]}" "$total"
    for i in 0 1 2 3; do sum[i]=$(( sum[i] + row[i] )); done
    sum[4]=$(( sum[4] + total ))
done
printf '%-12s %8d %8d %8d %8d %8d\n' total "${sum[@]}"
