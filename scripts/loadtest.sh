#!/usr/bin/env bash
# loadtest.sh — the multi-tenant replay gate behind `make loadtest`.
#
# Three stages, all driven by cmd/udmload with a fixed seed so every
# run replays the identical request schedule:
#
#   serve: udmserve with two tenant namespaces (t1 writable, t2
#     read-only) under per-tenant inflight quotas. udmload drives
#     2 tenants × $LOADTEST_STREAMS seeded user streams with bursts and
#     a density/ingest mix, gating on ZERO isolation violations (every
#     response echoes its tenant; t2's probe density stays bit-for-bit
#     identical however hard t1 bursts). The per-tenant latency report
#     is appended to BENCH_serve.json as a dated entry.
#
#   proxy: the same gate through the sharded tier — two udmserve
#     shards, each holding both tenants' stream partitions, behind a
#     udmproxy fronting t1/live and t2/live as partitioned models.
#     Bit-identity now spans tenant-salted hash routing and the
#     fan-out merge.
#
#   chaos: the serve topology with injected batch-flush faults
#     (server.batcher.flush error bursts). Errors and shed requests are
#     expected and tolerated — what must still hold is isolation:
#     zero violations under failure churn.
#
# Tunables (environment): LOADTEST_STREAMS (default 1000 streams per
# tenant), LOADTEST_REQUESTS (default 4 requests per stream),
# LOADTEST_PORT, LOADTEST_JSON (default BENCH_serve.json; empty to
# skip the append).
#
# Usage: loadtest.sh [serve|proxy|chaos|all]   (default: all)
set -euo pipefail

STAGE="${1:-all}"
PORT="${LOADTEST_PORT:-18673}"
STREAMS="${LOADTEST_STREAMS:-1000}"
REQUESTS="${LOADTEST_REQUESTS:-4}"
JSON_OUT="${LOADTEST_JSON-BENCH_serve.json}"
SEED=20260808
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    if kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_ready() {
  local url="$1" pid="$2" log="$3"
  for _ in $(seq 1 50); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$url" || true)" = "200" ]; then
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "loadtest: FAIL: server died during startup" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "loadtest: FAIL: $url never became ready" >&2
  cat "$log" >&2
  exit 1
}

stop_one() {
  local pid="$1"
  kill -TERM "$pid" 2>/dev/null || true
  for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
      return 0
    fi
    sleep 0.2
  done
  kill -9 "$pid" 2>/dev/null || true
}

build_tools() {
  echo "loadtest: building tools"
  go build -o "$TMP/udmgen" ./cmd/udmgen
  go build -o "$TMP/udmstream" ./cmd/udmstream
  go build -o "$TMP/udmserve" ./cmd/udmserve
  go build -o "$TMP/udmproxy" ./cmd/udmproxy
  go build -o "$TMP/udmload" ./cmd/udmload
}

# make_checkpoint SEED OUT — build one stream checkpoint.
make_checkpoint() {
  local seed="$1" out="$2"
  "$TMP/udmgen" -profile two-blobs -n 400 -f 1.0 -seed "$seed" -o "$TMP/gen_$seed.csv"
  "$TMP/udmstream" -in "$TMP/gen_$seed.csv" -q 40 -checkpoint "$out" >/dev/null
}

serve_stage() {
  local base="http://127.0.0.1:${PORT}"
  echo "loadtest[serve]: two tenants on one udmserve, ${STREAMS} streams x ${REQUESTS} requests each"
  make_checkpoint 11 "$TMP/t1.gob"
  make_checkpoint 12 "$TMP/t2.gob"
  "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -no-checkpoint \
    -model "t1/live=stream:$TMP/t1.gob" \
    -model "t2/live=stream:$TMP/t2.gob" \
    -tenant-inflight 128 2>"$TMP/serve.log" &
  local pid=$!
  PIDS+=("$pid")
  wait_ready "$base/readyz" "$pid" "$TMP/serve.log"

  local json_args=()
  if [ -n "$JSON_OUT" ]; then
    json_args=(-json "$JSON_OUT" -note "make loadtest: 2 tenants x ${STREAMS} streams x ${REQUESTS} req (udmserve, t1 writable)")
  fi
  "$TMP/udmload" -base "$base" -model live -tenants t1,t2 \
    -streams "$STREAMS" -requests "$REQUESTS" -seed "$SEED" \
    -mix density=0.8,ingest=0.2 -write-tenants t1 \
    -burst-prob 0.05 -burst-len 16 -probe-every 2 \
    "${json_args[@]}"
  stop_one "$pid"
  echo "loadtest[serve]: PASS (zero isolation violations)"
}

proxy_stage() {
  local port_a=$((PORT + 1)) port_b=$((PORT + 2))
  local base="http://127.0.0.1:${PORT}"
  echo "loadtest[proxy]: two tenants through 2 shards + udmproxy"
  make_checkpoint 21 "$TMP/a_t1.gob"
  make_checkpoint 22 "$TMP/a_t2.gob"
  make_checkpoint 23 "$TMP/b_t1.gob"
  make_checkpoint 24 "$TMP/b_t2.gob"
  "$TMP/udmserve" -addr "127.0.0.1:${port_a}" -no-checkpoint \
    -model "t1/live=stream:$TMP/a_t1.gob" \
    -model "t2/live=stream:$TMP/a_t2.gob" 2>"$TMP/shard_a.log" &
  local pid_a=$!
  PIDS+=("$pid_a")
  "$TMP/udmserve" -addr "127.0.0.1:${port_b}" -no-checkpoint \
    -model "t1/live=stream:$TMP/b_t1.gob" \
    -model "t2/live=stream:$TMP/b_t2.gob" 2>"$TMP/shard_b.log" &
  local pid_b=$!
  PIDS+=("$pid_b")
  wait_ready "http://127.0.0.1:${port_a}/readyz" "$pid_a" "$TMP/shard_a.log"
  wait_ready "http://127.0.0.1:${port_b}/readyz" "$pid_b" "$TMP/shard_b.log"
  "$TMP/udmproxy" -addr "127.0.0.1:${PORT}" \
    -shard "a=http://127.0.0.1:${port_a}" -shard "b=http://127.0.0.1:${port_b}" \
    -model "t1/live=partitioned:2" -model "t2/live=partitioned:2" 2>"$TMP/proxy.log" &
  local pid_p=$!
  PIDS+=("$pid_p")
  wait_ready "$base/readyz" "$pid_p" "$TMP/proxy.log"

  local json_args=()
  if [ -n "$JSON_OUT" ]; then
    json_args=(-json "$JSON_OUT" -note "make loadtest: 2 tenants x ${STREAMS} streams x ${REQUESTS} req (udmproxy over 2 shards)")
  fi
  "$TMP/udmload" -base "$base" -model live -tenants t1,t2 \
    -streams "$STREAMS" -requests "$REQUESTS" -seed "$SEED" \
    -mix density=0.8,ingest=0.2 -write-tenants t1 \
    -burst-prob 0.05 -burst-len 16 -probe-every 2 \
    "${json_args[@]}"
  stop_one "$pid_p"
  stop_one "$pid_a"
  stop_one "$pid_b"
  echo "loadtest[proxy]: PASS (zero isolation violations through the fan-out)"
}

chaos_stage() {
  local base="http://127.0.0.1:${PORT}"
  echo "loadtest[chaos]: serve topology under injected batch-flush faults"
  make_checkpoint 31 "$TMP/c_t1.gob"
  make_checkpoint 32 "$TMP/c_t2.gob"
  "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -no-checkpoint \
    -model "t1/live=stream:$TMP/c_t1.gob" \
    -model "t2/live=stream:$TMP/c_t2.gob" \
    -tenant-inflight 128 \
    -fault 'server.batcher.flush=error,prob=0.02,seed=7' 2>"$TMP/chaos.log" &
  local pid=$!
  PIDS+=("$pid")
  wait_ready "$base/readyz" "$pid" "$TMP/chaos.log"

  # Errors and 429s are expected under chaos; isolation must hold
  # anyway — udmload exits non-zero on any violation.
  "$TMP/udmload" -base "$base" -model live -tenants t1,t2 \
    -streams $((STREAMS / 4)) -requests "$REQUESTS" -seed "$SEED" \
    -mix density=0.8,ingest=0.2 -write-tenants t1 \
    -burst-prob 0.1 -burst-len 16 -probe-every 2
  stop_one "$pid"
  echo "loadtest[chaos]: PASS (zero isolation violations under injected faults)"
}

case "$STAGE" in
serve) build_tools; serve_stage ;;
proxy) build_tools; proxy_stage ;;
chaos) build_tools; chaos_stage ;;
all)
  build_tools
  serve_stage
  proxy_stage
  chaos_stage
  ;;
*)
  echo "loadtest.sh: unknown stage $STAGE (want serve, proxy, chaos or all)" >&2
  exit 2
  ;;
esac

echo "loadtest: PASS"
