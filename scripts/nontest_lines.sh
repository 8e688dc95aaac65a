#!/usr/bin/env bash
# Prints the non-test source lines of each crate: for every `.rs` file under
# `crates/<name>/src`, the lines before its first `#[cfg(test)]` (all of
# its lines when it has none), summed per crate, plus the core+server total
# that the ROADMAP's line budget tracks and the total over all crates, and
# the same count over the vendored stand-ins under `vendor/*/src`.
# Report-only: always exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."
# The non-test lines under one source directory.
nontest() {
    local lines=0 n file
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$1" -name '*.rs' | sort)
    echo "$lines"
}
core_server=0
all=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(nontest "crates/$crate/src")
    printf '%-12s %6d\n' "$crate" "$lines"
    all=$((all + lines))
    case "$crate" in
        core | server) core_server=$((core_server + lines)) ;;
    esac
done
printf '%-12s %6d\n' "core+server" "$core_server"
printf '%-12s %6d\n' "all crates" "$all"
vendor=0
for dir in vendor/*/; do
    vendor=$((vendor + $(nontest "$dir/src")))
done
printf '%-12s %6d\n' "vendor" "$vendor"
