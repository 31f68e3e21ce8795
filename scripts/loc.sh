#!/usr/bin/env sh
# Non-test source lines per crate and in total: for every .rs file under
# crates/*/src, the lines before its first `#[cfg(test)]` (the whole
# file when it has none). Informational; CI prints it but gates nothing.

set -eu

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    lines=$(find "$dir" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
