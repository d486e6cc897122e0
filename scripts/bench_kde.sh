#!/usr/bin/env bash
# bench_kde.sh — the KDE hot-path performance trajectory and gate.
#
# Runs the far-field benchmark triple (BenchmarkDensityBatchPruned:
# mode=exact / mode=pruned / mode=approx over the same blob-grid data
# set) plus BenchmarkDensityBatch/workers=1 (the flat SoA batch path),
# takes the best of -count runs for each, and appends a dated entry to
# the BENCH_kde.json trajectory array at the repository root.
#
# It also runs BenchmarkBackendDensityBatch in internal/density — the
# exact/micro/grid backend ladder over one data set and query batch —
# and records the per-backend series (backend_*_ns) in the same
# entry. The backend series are informational trajectory data: the two
# gates below apply only to the exact/pruned pair, so adding a backend
# can never fail CI on its own.
#
# BenchmarkDecide in internal/core times one Figure-3 classification at
# the classify serving workload's model shape, through the factor-table
# roll-up (decide_ns) and through the DensitySub reference it replaced
# (decide_ref_ns). Both series are informational, like the backends.
#
# Two gates, both computed within this run so they are machine-relative:
#   1. speedup: exact_ns / pruned_ns must be at least
#      BENCH_KDE_MIN_SPEEDUP — the whole point of the spatial index.
#   2. regression: pruned_ns may not exceed the best prior committed
#      pruned_ns by more than BENCH_KDE_MAX_REGRESS_PCT percent.
#      (Absolute ns across machines is noise; the committed trajectory
#      still catches a same-machine CI run that falls off a cliff.)
#
# Environment knobs:
#   BENCH_KDE_MIN_SPEEDUP      minimum exact/pruned ratio (default 5)
#   BENCH_KDE_MAX_REGRESS_PCT  pruned-ns regression budget vs the best
#                              prior entry, percent (default 10)
#   BENCH_KDE_COUNT            benchmark repetitions (default 3)
#   BENCH_KDE_BENCHTIME        go test -benchtime value (default 1s)
#
# Run via `make bench-kde` or directly from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/bench_lib.sh
source scripts/bench_lib.sh

MIN_SPEEDUP="${BENCH_KDE_MIN_SPEEDUP:-5}"
MAX_REGRESS_PCT="${BENCH_KDE_MAX_REGRESS_PCT:-10}"
COUNT="${BENCH_KDE_COUNT:-3}"
BENCHTIME="${BENCH_KDE_BENCHTIME:-1s}"
OUT="BENCH_kde.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "bench-kde: running DensityBatch benchmarks (count=$COUNT, benchtime=$BENCHTIME)" >&2
# -bench patterns split on "/" per sub-benchmark level: level one
# matches both top-level benchmarks, level two narrows DensityBatch to
# its serial case and Pruned to its mode variants.
go test -run '^$' \
  -bench '^BenchmarkDensityBatch(Pruned)?$/^(workers=1$|mode=)' \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/kde >"$TMP/bench.txt"

echo "bench-kde: running backend ladder benchmarks" >&2
go test -run '^$' \
  -bench '^BenchmarkBackendDensityBatch$' \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/density >"$TMP/backend.txt"

echo "bench-kde: running Figure-3 decide benchmarks" >&2
go test -run '^$' \
  -bench '^BenchmarkDecide$' \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/core >"$TMP/decide.txt"

exact_ns="$(best_ns_per_op "$TMP/bench.txt" '^BenchmarkDensityBatchPruned/mode=exact')"
pruned_ns="$(best_ns_per_op "$TMP/bench.txt" '^BenchmarkDensityBatchPruned/mode=pruned')"
approx_ns="$(best_ns_per_op "$TMP/bench.txt" '^BenchmarkDensityBatchPruned/mode=approx')"
batch_ns="$(best_ns_per_op "$TMP/bench.txt" '^BenchmarkDensityBatch/workers=1')"
backend_exact_ns="$(best_ns_per_op "$TMP/backend.txt" '^BenchmarkBackendDensityBatch/backend=exact')"
backend_micro_ns="$(best_ns_per_op "$TMP/backend.txt" '^BenchmarkBackendDensityBatch/backend=micro')"
backend_grid_ns="$(best_ns_per_op "$TMP/backend.txt" '^BenchmarkBackendDensityBatch/backend=grid')"
decide_ns="$(best_ns_per_op "$TMP/decide.txt" '^BenchmarkDecide/table')"
decide_ref_ns="$(best_ns_per_op "$TMP/decide.txt" '^BenchmarkDecide/reference')"

speedup_pruned="$(awk -v a="$exact_ns" -v b="$pruned_ns" 'BEGIN { printf "%.2f", a / b }')"
speedup_approx="$(awk -v a="$exact_ns" -v b="$approx_ns" 'BEGIN { printf "%.2f", a / b }')"

# Best prior pruned_ns in the committed trajectory, if any (0 = none).
prior_best=0
if [ -s "$OUT" ]; then
  prior_best="$(grep -o '"pruned_ns": *[0-9]*' "$OUT" |
    awk -F': *' 'NR == 1 || $2 < best { best = $2 } END { print best + 0 }')"
fi

entry="$(cat <<EOF
  {
    "date": "$(date -u +%F)",
    "count": $COUNT,
    "benchtime": "$BENCHTIME",
    "exact_ns": $exact_ns,
    "pruned_ns": $pruned_ns,
    "approx_ns": $approx_ns,
    "batch_workers1_ns": $batch_ns,
    "backend_exact_ns": $backend_exact_ns,
    "backend_micro_ns": $backend_micro_ns,
    "backend_grid_ns": $backend_grid_ns,
    "decide_ns": $decide_ns,
    "decide_ref_ns": $decide_ref_ns,
    "speedup_pruned": $speedup_pruned,
    "speedup_approx": $speedup_approx
  }
EOF
)"

if [ -s "$OUT" ]; then
  # The file is an array this script wrote: drop the closing bracket,
  # terminate the previous entry with a comma, append, re-close.
  sed -i '$d' "$OUT"
  sed -i '$ s/}$/},/' "$OUT"
  printf '%s\n]\n' "$entry" >>"$OUT"
else
  printf '[\n%s\n]\n' "$entry" >"$OUT"
fi

echo "bench-kde: exact ${exact_ns} ns/op, pruned ${pruned_ns} ns/op (${speedup_pruned}x), approx ${approx_ns} ns/op (${speedup_approx}x)"
echo "bench-kde: backends exact ${backend_exact_ns} / micro ${backend_micro_ns} / grid ${backend_grid_ns} ns/op"
echo "bench-kde: decide ${decide_ns} ns/op (reference roll-up ${decide_ref_ns} ns/op)"
echo "bench-kde: appended entry to $OUT"

fail=0
awk -v s="$speedup_pruned" -v min="$MIN_SPEEDUP" 'BEGIN { exit !(s >= min) }' || {
  echo "bench-kde: FAIL: pruned speedup ${speedup_pruned}x below minimum ${MIN_SPEEDUP}x" >&2
  fail=1
}
if [ "$prior_best" -gt 0 ]; then
  awk -v ns="$pruned_ns" -v best="$prior_best" -v max="$MAX_REGRESS_PCT" \
    'BEGIN { exit !(ns <= best * (1 + max / 100)) }' || {
    echo "bench-kde: FAIL: pruned ${pruned_ns} ns/op regressed more than ${MAX_REGRESS_PCT}% over best prior ${prior_best} ns/op" >&2
    fail=1
  }
fi
[ "$fail" -eq 0 ] && echo "bench-kde: PASS"
exit "$fail"
