#!/usr/bin/env bash
# Fails when a workspace package lists a dependency that none of its
# targets use. For every manifest (the root `lvp` package, crates/* and
# vendor/*), each entry of `[dependencies]`, `[dev-dependencies]` and
# `[build-dependencies]`, say `lvp-foo`, must appear as the word `lvp_foo`
# in some `.rs` file of that package: for the root package src/, tests/
# and examples/ (whose perfbench is a package of its own), for the others
# the package directory. A name that appears only in a comment counts as
# used, so the check errs towards passing. Prints each unused entry.
set -euo pipefail
cd "$(dirname "$0")/.."

# Dependency names listed by manifest $1, one per line.
deps() {
    awk '
        /^\[/ { listing = ($0 ~ /^\[(dev-|build-)?dependencies\]$/); next }
        listing && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
    ' "$1"
}

# The Rust sources of the package whose manifest is $1.
sources() {
    if [ "$1" = Cargo.toml ]; then
        find src tests examples -path examples/perfbench -prune -o -name '*.rs' -print
    else
        find "$(dirname "$1")" -path '*/target' -prune -o -name '*.rs' -print
    fi
}

status=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    mapfile -t files < <(sources "$manifest")
    for dep in $(deps "$manifest"); do
        if ! grep -qw -- "${dep//-/_}" "${files[@]}"; then
            echo "$manifest: no target uses \`$dep\`"
            status=1
        fi
    done
done
exit "$status"
