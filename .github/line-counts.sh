#!/usr/bin/env bash
# Non-test code lines per crate: in each `.rs` file under `crates/*/src`,
# the lines before the file's first `#[cfg(test)]`, without blank lines
# and without `//` comment lines (doc comments included). ROADMAP's crate
# counts use this method. Prints `<crate> <lines>` per crate and a total;
# it reports and never fails. Run from the repository root:
#   bash .github/line-counts.sh
set -euo pipefail
total=0
for crate in crates/*/; do
  name=$(basename "$crate")
  lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { done = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
    done || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }')
  printf '%-12s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
