#!/usr/bin/env bash
# Non-test line counts of the Rust sources under crates/*/src: the
# non-blank lines before each file's first `#[cfg(test)]`.
#
#   scripts/loc.sh        per-file counts of the working tree, then the total
#   scripts/loc.sh REV    only the files whose count differs from git
#                         revision REV (old -> new), then the net change
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev=${1:-}

count() { awk '/#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }'; }

{
    git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs'
    if [ -n "$rev" ]; then git ls-tree -r --name-only "$rev" -- 'crates/*/src/*.rs'; fi
} | sort -u | while read -r f; do
    new=0
    if [ -f "$f" ]; then new=$(count < "$f"); fi
    old=0
    if [ -n "$rev" ]; then old=$( (git show "$rev:$f" 2>/dev/null || true) | count); fi
    echo "$old $new $f"
done | awk -v rev="$rev" '
    rev == "" { printf "%6d  %s\n", $2, $3; total += $2; next }
    $1 != $2 { printf "%+6d  %s (%d -> %d)\n", $2 - $1, $3, $1, $2; net += $2 - $1 }
    END { if (rev == "") printf "%6d  total\n", total; else printf "%+6d  net against %s\n", net, rev }'
