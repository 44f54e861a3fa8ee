#!/usr/bin/env bash
# Non-test line count of the workspace's library and binary sources.
#
#   scripts/loc.sh
#
# Counts the non-blank lines of every tracked `.rs` file under
# `crates/*/src/` and `src/` that come before the file's
# `#[cfg(test)] mod tests` block (the unit tests live at the end of each
# file), and prints one line per crate followed by the total. Integration
# tests, benches, examples, `vendor/` and `hfbench/` are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

count_file() {
    awk '/^#\[cfg\(test\)\]/ { pending = 1; next }
         pending && /^mod tests/ { exit }
         pending { pending = 0; n++ }
         NF { n++ }
         END { print n + 0 }' "$1"
}

total=0
for dir in src crates/*/src; do
    crate=${dir%/src}
    [ "$crate" = src ] && crate=hfetch
    crate=${crate#crates/}
    lines=0
    while IFS= read -r file; do
        lines=$((lines + $(count_file "$file")))
    done < <(git ls-files -- "$dir" | grep '\.rs$')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
