#!/usr/bin/env bash
# Runs alternating parent/change pairs of one perfbench workload and
# reports how they compare: perfbench's `--compare` table of the two run
# sets, then, per end-to-end metric of BENCHMARK.json, how many pairs the
# change won, and then whether the gain rule holds for it. The rule: the
# change won at least 9 of 10 pairs, and its median is better than the
# parent's by more than the distance between the parent's quartiles
# (computed as `--compare` does, by Python's `statistics.quantiles`).
#
#   scripts/bench_pairs.sh <parent-perfbench> <change-perfbench> <workload> <pairs> <seconds>
#
# Both binaries must already be built, each from its own checkout, e.g.
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path examples/perfbench/Cargo.toml
# This script never builds and edits nothing under examples/perfbench.
# Pair i runs both sides on seed i for <seconds> each, from the
# repository root; the parent runs first on odd pairs and the change on
# even ones. Runs append to .perfbench/pairs-<workload>-{parent,change}.jsonl,
# both started afresh. After the report it exits 1 if the two sides of
# some pair printed different output_digests, naming each such seed
# (every performance change must leave the outputs bit-identical), and
# non-zero if a run fails; otherwise 0.
set -euo pipefail
if [ $# -ne 5 ]; then
    echo "usage: $0 <parent-perfbench> <change-perfbench> <workload> <pairs> <seconds>" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=$4
seconds=$5
cd "$(dirname "$0")/.."
mkdir -p .perfbench
out_parent=.perfbench/pairs-$workload-parent.jsonl
out_change=.perfbench/pairs-$workload-change.jsonl
rm -f "$out_parent" "$out_change"

run() { # <binary> <seed> <out>
    "$1" --workload "$workload" --seed "$2" --seconds "$seconds" --out "$3" >/dev/null
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run "$parent" "$i" "$out_parent"
        run "$change" "$i" "$out_change"
    else
        run "$change" "$i" "$out_change"
        run "$parent" "$i" "$out_parent"
    fi
    echo "pair $i of $pairs done" >&2
done

"$change" --compare "$out_parent" "$out_change"

# The value of metric $1 in run record $2.
value() {
    grep -o "\"$1\":{\"value\":[^,}]*" <<<"$2" | head -n 1 | sed 's/.*://'
}
# The first quartile, median and third quartile of the numbers on stdin,
# one a line.
quartiles() {
    sort -g | awk '{ d[NR] = $1 }
        END {
            if (NR == 1) { print d[1], d[1], d[1]; exit }
            for (i = 1; i <= 3; i++) {
                j = int(i * (NR + 1) / 4)
                j = j < 1 ? 1 : (j > NR - 1 ? NR - 1 : j)
                delta = i * (NR + 1) - 4 * j
                q[i] = (d[j] * (4 - delta) + d[j + 1] * delta) / 4
            }
            print q[1], q[2], q[3]
        }'
}
mapfile -t parent_runs <"$out_parent"
mapfile -t change_runs <"$out_change"
echo
echo "# pairs the change won, per end-to-end metric"
verdicts=()
while IFS= read -r entry; do
    name=$(sed 's/.*"name": *"\([^"]*\)".*/\1/' <<<"$entry")
    better=$(sed 's/.*"better": *"\([^"]*\)".*/\1/' <<<"$entry")
    won=0
    parent_values=()
    change_values=()
    for ((i = 0; i < pairs; i++)); do
        a=$(value "$name" "${parent_runs[i]}")
        b=$(value "$name" "${change_runs[i]}")
        parent_values+=("$a")
        change_values+=("$b")
        if awk -v a="$a" -v b="$b" -v better="$better" \
            'BEGIN { exit !(better == "lower" ? b < a : b > a) }'; then
            won=$((won + 1))
        fi
    done
    printf '%-16s %2d of %d (%s is better)\n' "$name" "$won" "$pairs" "$better"
    read -r q1 median q3 < <(printf '%s\n' "${parent_values[@]}" | quartiles)
    read -r _ change_median _ < <(printf '%s\n' "${change_values[@]}" | quartiles)
    verdicts+=("$(awk -v name="$name" -v won="$won" -v pairs="$pairs" -v better="$better" \
        -v q1="$q1" -v a="$median" -v q3="$q3" -v b="$change_median" 'BEGIN {
            gain = better == "lower" ? a - b : b - a
            holds = won * 10 >= pairs * 9 && gain > q3 - q1
            printf "%-16s %-5s won %d of %d; median %g -> %g; parent quartiles %g-%g\n",
                name, holds ? "holds" : "fails", won, pairs, a, b, q1, q3
        }')")
done < <(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json | grep '"name"')
echo
echo "# gain rule per end-to-end metric: won >= 9/10 of the pairs, and the"
echo "# medians differ by more than the parent's quartile distance"
printf '%s\n' "${verdicts[@]}"

# Each pair's two sides ran one seed, so their digests must agree.
differs=0
for ((i = 0; i < pairs; i++)); do
    a=$(grep -o '"output_digest":"[^"]*"' <<<"${parent_runs[i]}")
    b=$(grep -o '"output_digest":"[^"]*"' <<<"${change_runs[i]}")
    if [ "$a" != "$b" ]; then
        echo "seed $((i + 1)): output_digest differs (parent ${a#*:}, change ${b#*:})" >&2
        differs=1
    fi
done
if ((differs)); then
    echo "outputs differ: the change is not bit-identical to the parent" >&2
    exit 1
fi
