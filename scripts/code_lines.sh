#!/bin/sh
# Counts code lines in Rust sources: lines that are neither blank nor
# `//` comments, stopping in each file at its first `#[cfg(test)]`.
# Each argument is a file or a directory (searched for `*.rs`); prints
# one count per argument.
#
#   scripts/code_lines.sh crates/relstore/src
#   scripts/code_lines.sh crates/relstore/src/planner.rs crates/relstore/src/view.rs
set -eu
if [ $# -eq 0 ]; then
    echo "usage: $0 PATH..." >&2
    exit 2
fi
for path in "$@"; do
    n=$(find "$path" -type f -name '*.rs' -exec awk \
        'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*(\/\/|$)/{n++} END{print n+0}' {} + |
        awk '{s += $1} END {print s + 0}')
    printf '%s\t%s\n' "$n" "$path"
done
