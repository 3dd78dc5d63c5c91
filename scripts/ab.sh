#!/usr/bin/env bash
# A/B comparison of two benchmark binaries (also `make ab`), following
# benchmark/README.md "Comparing two commits":
#
#   1. run PARENT_BIN and CHANGE_BIN `run --workload WORKLOAD --seed SEED
#      --trace 0` PAIRS times each, alternating which side runs first;
#   2. for every end-to-end metric of BENCHMARK.json print the parent's
#      median [q1, q3], the change's median and its difference, how many
#      pairs the change won, whether every run of both sides reported the
#      same digest, and the verdict:
#        "claim"      the change is better, won at least nine tenths of the
#                     pairs and the medians differ by more than the
#                     parent's interquartile distance;
#        "regressed"  the same test the other way round: the parent is
#                     better and won at least nine tenths of the pairs
#                     (a tie counts for neither side);
#        "over bound" the change's median is worse than the parent's by
#                     more than the metric's BENCHMARK.json `bound`
#                     (a fraction of the parent's median);
#      a row may read "regressed, over bound"; any other row reads
#      "unresolved".
#
# Usage: scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS
#
# Build each binary from its own checkout as the README describes, e.g.
#   CARGO_TARGET_DIR=/tmp/a cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
# and copy `release/adaptnoc-benchmark` out. The raw outputs stay in a
# temporary directory whose path is printed last.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS" >&2
  exit 2
fi
PARENT=$1 CHANGE=$2 WORKLOAD=$3 SEED=$4 PAIRS=$5
CONTRACT="$(dirname "$0")/../BENCHMARK.json"

# `name better bound` of each end-to-end metric.
METRICS=$(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit }
  on && /"name"/ {
    match($0, /"name": *"[^"]*"/);   n = substr($0, RSTART, RLENGTH)
    match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
    match($0, /"bound": *[0-9.]+/);  d = substr($0, RSTART, RLENGTH)
    gsub(/.*: *|"/, "", n); gsub(/.*: *|"/, "", b); gsub(/.*: */, "", d)
    print n, b, d
  }' "$CONTRACT")

OUT=$(mktemp -d "${TMPDIR:-/tmp}/adaptnoc-ab.XXXXXX")
run() { # side pair
  local bin=$PARENT
  [ "$1" = change ] && bin=$CHANGE
  "$bin" run --workload "$WORKLOAD" --seed "$SEED" --trace 0 > "$OUT/$1.$2.txt" 2>&1 || {
    echo "$1 run $2 failed; see $OUT/$1.$2.txt" >&2
    exit 1
  }
}
for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
  echo "pair $i/$PAIRS done" >&2
done

# value SIDE PAIR METRIC: the metric's value in one run's output.
value() { awk -v w="$WORKLOAD" -v m="$3" '$1 == w && $2 == m { print $3 }' "$OUT/$1.$2.txt"; }

# every_run METRIC: the metric's value in every run, one a line.
every_run() { cat "$OUT"/*.txt | awk -v w="$WORKLOAD" -v m="$1" '$1 == w && $2 == m { print $3 }'; }
same=$([ "$(every_run sim.digest | sort -u | wc -l)" -eq 1 ] && echo equal || echo DIFFER)
failed=$(every_run ops_failed | awk '{ s += $1 } END { print s + 0 }')

echo "$WORKLOAD seed $SEED, $PAIRS order-alternated pairs, ops_failed $failed"
printf '%-13s %-34s %-11s %-8s %-6s %-7s %s\n' metric "parent median [q1, q3]" change delta wins digests verdict
echo "$METRICS" | while read -r name better bound; do
  for i in $(seq 1 "$PAIRS"); do
    echo "$(value parent "$i" "$name") $(value change "$i" "$name")"
  done | awk -v name="$name" -v better="$better" -v bound="$bound" -v same="$same" '
    function quantile(v, n, q,   h, k) { h = (n - 1) * q; k = int(h); return v[k + 1] + (h - k) * (v[k + 2] - v[k + 1]) }
    function sort(v, n,   i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
    { n++; p[n] = $1; c[n] = $2; if (better == "lower" ? $2 < $1 : $2 > $1) wins++; if (better == "lower" ? $1 < $2 : $1 > $2) losses++ }
    END {
      sort(p, n); sort(c, n); p[n + 1] = p[n]; c[n + 1] = c[n]
      pm = quantile(p, n, 0.5); q1 = quantile(p, n, 0.25); q3 = quantile(p, n, 0.75); cm = quantile(c, n, 0.5)
      gain = better == "lower" ? pm - cm : cm - pm
      verdict = ""
      if (gain > 0 && 10 * wins >= 9 * n && gain > q3 - q1) verdict = "claim"
      if (gain < 0 && 10 * losses >= 9 * n && -gain > q3 - q1) verdict = "regressed"
      if (bound != "" && -gain > bound * pm) verdict = verdict (verdict == "" ? "" : ", ") "over bound"
      if (verdict == "") verdict = "unresolved"
      printf "%-13s %-34s %-11.5g %+6.1f%% %2d/%-3d %-7s %s\n", name,
        sprintf("%.5g [%.5g, %.5g]", pm, q1, q3), cm, 100 * (cm - pm) / pm, wins, n, same, verdict
    }'
done
echo "raw outputs: $OUT"
