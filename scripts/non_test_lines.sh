#!/usr/bin/env bash
# Prints the non-test Rust line count per crate and in total: for every
# `crates/*/src/**/*.rs`, the lines before its first `#[cfg(test)]` (the
# whole file when it has none). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    lines=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
