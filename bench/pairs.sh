#!/usr/bin/env bash
# Before/after pairs of the benchmark: a parent revision against a change.
#
#   bash bench/pairs.sh --parent REV --seeds A-B [--workloads "W1 W2 ..."]
#                       [--scratch DIR]
#
# Run it from inside the repository. It exports the parent revision and
# the change (the working tree's tracked and untracked, not-ignored
# files) into DIR/parent and DIR/change, builds the benchmark in each,
# then for every workload and every seed runs `benchmark/run.sh
# --workload W --seed S --seconds T --trace 0`, T being BENCHMARK.json's
# `run_seconds`, once per side: the parent first in odd pairs, the
# change first in even ones.
#
# Every run's last JSON line is kept in DIR/runs.jsonl. For each workload
# and each `end_to_end` metric of BENCHMARK.json it prints the median and
# quartiles of both sides, the pairs the change won and tied, the
# parent's interquartile range, the two-sided sign-test p-value over the
# untied pairs, and "gain" where the change won at least nine pairs in
# ten and its median beats the parent's by more than the parent's
# interquartile range. Runs whose `correct` is false or `failed` is not 0
# are counted per side.
#
# Quartiles interpolate linearly between order statistics.
set -euo pipefail

parent=""
seeds=""
workloads="bank-scale dc-hot inquiry-mostly crash-recover"
scratch="${TMPDIR:-/tmp}/tandem-pairs"

usage() {
  sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent="$2"; shift 2 ;;
    --seeds) seeds="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --scratch) scratch="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$parent" ] && [ -n "$seeds" ] || usage
case "$seeds" in
  *-*) first="${seeds%-*}"; last="${seeds#*-}" ;;
  *) first="$seeds"; last="$seeds" ;;
esac

root="$(git rev-parse --show-toplevel)"
seconds="$(jq -r .run_seconds "$root/BENCHMARK.json")"
mkdir -p "$scratch"
scratch="$(cd "$scratch" && pwd)"
rm -rf "$scratch/parent" "$scratch/change"
mkdir -p "$scratch/parent" "$scratch/change"
git -C "$root" archive "$parent" | tar -x -C "$scratch/parent"
(cd "$root" && git ls-files -z -c -o --exclude-standard \
  | tar -c --null -T - --ignore-failed-read 2>/dev/null) \
  | tar -x -C "$scratch/change"
for side in parent change; do
  echo "building $side" >&2
  (cd "$scratch/$side" && DUNE_CACHE=disabled dune build --root . \
    --display quiet ./benchmark/main.exe >&2)
done

runs="$scratch/runs.jsonl"
: >"$runs"
run_one() { # side workload seed pair
  local line
  line="$(cd "$scratch/$1" && bash benchmark/run.sh --workload "$2" \
    --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
  jq -c --arg side "$1" --arg w "$2" --argjson seed "$3" --argjson pair "$4" \
    '{side: $side, workload: $w, seed: $seed, pair: $pair} + .' \
    <<<"$line" >>"$runs"
}

for w in $workloads; do
  pair=0
  for seed in $(seq "$first" "$last"); do
    pair=$((pair + 1))
    echo "$w seed $seed (pair $pair)" >&2
    if [ $((pair % 2)) -eq 1 ]; then
      run_one parent "$w" "$seed" "$pair"; run_one change "$w" "$seed" "$pair"
    else
      run_one change "$w" "$seed" "$pair"; run_one parent "$w" "$seed" "$pair"
    fi
  done
done

# One row per (workload, metric, better, pair, parent value, change value),
# then the statistics per (workload, metric).
jq -r --slurpfile spec "$root/BENCHMARK.json" '
  [inputs] as $all
  | ($spec[0].end_to_end | map({key: .name, value: .better}) | from_entries)
    as $better
  | $all | group_by(.workload)[] | . as $runs
  | ($runs[0].workload) as $w
  | ($runs | map(select(.correct != true or .failed != 0))
      | group_by(.side) | map("\(.[0].side)=\(length)") | join(" ")) as $bad
  | ($runs | map(select(.side == "parent")) | sort_by(.pair)) as $p
  | ($runs | map(select(.side == "change")) | sort_by(.pair)) as $c
  | "#\t\($w)\t\($p | length)\t\(if $bad == "" then "none" else $bad end)",
    ($better | keys_unsorted[] as $m
      | range(0; $p | length) as $i
      | select($p[$i].metrics[$m] != null and $c[$i].metrics[$m] != null)
      | [$w, $m, $better[$m], $p[$i].metrics[$m].value,
         $c[$i].metrics[$m].value] | @tsv)
' -n "$runs" | awk -F'\t' '
  function quart(a, n, q,    h, lo) {
    h = (n - 1) * q; lo = int(h)
    return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
  }
  function sortn(a, n,    i, j, v) {
    for (i = 1; i < n; i++) { v = a[i]; for (j = i - 1; j >= 0 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v }
  }
  function signp(w, l,    n, k, lo, p, c) {
    n = w + l; if (n == 0) return 1
    lo = w < l ? w : l; p = 0; c = 1
    for (k = 0; k <= lo; k++) { p += c; c = c * (n - k) / (k + 1) }
    p = 2 * p / 2 ^ n
    return p > 1 ? 1 : p
  }
  function flush(    i, pq1, pm, pq3, cq1, cm, cq3, iqr, verdict, gap) {
    if (metric == "") return
    sortn(pv, n); sortn(cv, n)
    pq1 = quart(pv, n, .25); pm = quart(pv, n, .5); pq3 = quart(pv, n, .75)
    cq1 = quart(cv, n, .25); cm = quart(cv, n, .5); cq3 = quart(cv, n, .75)
    iqr = pq3 - pq1
    gap = better == "lower" ? pm - cm : cm - pm
    verdict = (wins >= 0.9 * n && gap > iqr) ? "gain" : ""
    printf "%-38s %11.5g (%.5g-%.5g) %11.5g (%.5g-%.5g) %3d/%-3d %4d %11.5g %7.3g %s\n", \
      metric, pm, pq1, pq3, cm, cq1, cq3, wins, n, ties, iqr, signp(wins, n - wins - ties), verdict
  }
  $1 == "#" {
    flush(); metric = ""
    printf "\n%s: %d pairs, runs not correct or failed: %s\n", $2, $3, $4
    printf "%-38s %-27s %-27s %7s %4s %11s %7s\n", "metric", "parent median (q1-q3)", \
      "change median (q1-q3)", "wins", "ties", "parent IQR", "p(sign)"
    next
  }
  $2 != metric { flush(); metric = $2; better = $3; n = 0; wins = 0; ties = 0 }
  {
    pv[n] = $4 + 0; cv[n] = $5 + 0; n++
    if ($5 + 0 == $4 + 0) ties++
    else if ((better == "lower") == ($5 + 0 < $4 + 0)) wins++
  }
  END { flush() }
'
echo "raw runs: $runs" >&2
