#!/usr/bin/env bash
# Regenerates every figure of the paper at the given scale (default: small).
# Usage: scripts/run_all_figures.sh [smoke|small|paper] [seed]
# A figure that fails does not stop the others; the script then lists the
# failed figures and exits 1.
set -uo pipefail
SCALE="${1:-small}"
SEED="${2:-42}"
cd "$(dirname "$0")/.."
mkdir -p results logs
failed=()
run() { # <name> <log> <bin> [flag...]
    local name=$1 log=$2 bin=$3
    shift 3
    echo "=== $name (scale=$SCALE seed=$SEED) ==="
    if ! cargo run --release -p lvp-bench --bin "$bin" -- --scale "$SCALE" --seed "$SEED" "$@" \
        2>&1 | tee "logs/$log.log"; then
        failed+=("$name")
    fi
}
for fig in fig2 fig3 fig4 fig5 fig6 fig7 ablations; do
    run "$fig" "$fig" "$fig"
done
run "fig5 --known" fig5_known fig5 --known
if ((${#failed[@]})); then
    echo "failed figures (see logs/):" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "all figures done"
