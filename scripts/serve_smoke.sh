#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke tests of the serving path.
#
# Stage `serve` (the original smoke): generate data, train + save a
# model with udmclassify, start udmserve against it, curl every
# endpoint class (healthz, readyz, metrics, classify, density, and a
# deliberate 400), then shut down gracefully and require a clean exit.
# The server runs with -debug so the smoke also covers observability:
# both /metrics formats are scraped and validated (the JSON shape and
# the Prometheus text exposition, line by line), required series must
# be present after traffic, and the debug endpoints (/debug/pprof/,
# /debug/traces, /debug/slow) must answer 200.
#
# Stage `proxy`: two udmserve stream shards behind a udmproxy front
# tier. Fan-out density, hash-routed ingest and outliers must answer
# through the proxy's drop-in API, the udm_proxy_* Prometheus series
# must appear (validated line by line), and killing one shard must
# degrade — not fail — queries: 200 with `X-UDM-Degraded: partial` and
# a coverage fraction in the body.
#
# Stage `tenant`: udmserve with two tenant namespaces plus a default
# model. Legacy un-namespaced paths must keep answering via the
# default-tenant alias (bit-identically to /v1/t/default), namespaced
# paths must isolate tenants (same model name, different answers,
# cross-tenant 404s, X-UDM-Tenant echoes), the hot-swap lifecycle
# (PUT stage → promote → rollback) must flip and restore answers with
# the X-UDM-Model-Version generation counting up, and a short udmload
# replay must finish with zero isolation violations on both the
# namespaced and legacy path styles.
#
# Usage: serve_smoke.sh [serve|proxy|tenant|all]   (default: all)
# Run via `make serve-smoke` / `make proxy-smoke` or directly from the
# repository root.
set -euo pipefail

STAGE="${1:-all}"
PORT="${SERVE_SMOKE_PORT:-18573}"
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

# status METHOD URL [JSON-BODY] — print the HTTP status code. Response
# body lands in $TMP/last_body, headers in $TMP/last_headers.
status() {
  local method="$1" url="$2" body="${3:-}"
  if [ -n "$body" ]; then
    curl -s -o "$TMP/last_body" -D "$TMP/last_headers" -w '%{http_code}' -X "$method" \
      -H 'Content-Type: application/json' -d "$body" "$url"
  else
    curl -s -o "$TMP/last_body" -D "$TMP/last_headers" -w '%{http_code}' -X "$method" "$url"
  fi
}

# expect WANT METHOD URL [JSON-BODY] — fail loudly on a status mismatch.
expect() {
  local want="$1"; shift
  local got
  got="$(status "$@")"
  if [ "$got" != "$want" ]; then
    echo "serve-smoke: FAIL: $1 $2 returned $got, want $want" >&2
    echo "serve-smoke: response body:" >&2
    cat "$TMP/last_body" >&2
    exit 1
  fi
  echo "serve-smoke: ok: $1 $2 -> $got"
}

# wait_ready URL PID LOG — poll a readyz endpoint until 200 or the
# process dies.
wait_ready() {
  local url="$1" pid="$2" log="$3"
  for _ in $(seq 1 50); do
    if [ "$(status GET "$url" || true)" = "200" ]; then
      return 0
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "serve-smoke: FAIL: server died during startup" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "serve-smoke: FAIL: $url never became ready" >&2
  cat "$log" >&2
  exit 1
}

# stop_graceful PID LOG — SIGTERM and require a clean, prompt exit.
stop_graceful() {
  local pid="$1" log="$2"
  kill -TERM "$pid"
  for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then
      break
    fi
    sleep 0.2
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "serve-smoke: FAIL: server did not exit after SIGTERM" >&2
    cat "$log" >&2
    exit 1
  fi
  if ! wait "$pid"; then
    echo "serve-smoke: FAIL: server exited non-zero" >&2
    cat "$log" >&2
    exit 1
  fi
}

# check_prometheus FILE SERIES... — every line must be a comment or a
# well-formed sample, and each required series must be present.
check_prometheus() {
  local file="$1"; shift
  local bad
  bad="$(grep -Ev '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+([eE][-+][0-9]+)?|)$' "$file" || true)"
  if [ -n "$bad" ]; then
    echo "serve-smoke: FAIL: malformed Prometheus exposition lines:" >&2
    echo "$bad" >&2
    exit 1
  fi
  for series in "$@"; do
    if ! grep -q "^$series" "$file"; then
      echo "serve-smoke: FAIL: Prometheus exposition missing series $series" >&2
      grep '^# TYPE' "$file" >&2
      exit 1
    fi
  done
  echo "serve-smoke: ok: Prometheus exposition parses and has the required series"
}

serve_stage() {
  local base="http://127.0.0.1:${PORT}"
  echo "serve-smoke: building tools"
  go build -o "$TMP/udmgen" ./cmd/udmgen
  go build -o "$TMP/udmclassify" ./cmd/udmclassify
  go build -o "$TMP/udmserve" ./cmd/udmserve

  echo "serve-smoke: generating data and training a model"
  "$TMP/udmgen" -profile two-blobs -n 600 -f 1.0 -seed 1 -o "$TMP/train.csv"
  "$TMP/udmgen" -profile two-blobs -n 100 -f 1.0 -seed 2 -o "$TMP/test.csv"
  "$TMP/udmclassify" -train "$TMP/train.csv" -test "$TMP/test.csv" \
    -save "$TMP/model.gob" >/dev/null

  # Requests pick the accuracy mode, so a model-wide one is refused at
  # startup (timeout turns a server that listens anyway into rc 124);
  # the removed -prune flag (now -eval prune=...) and the removed
  # retry/breaker flags (udmserve has no retry loop; udmproxy keeps
  # them for its shard RPCs) are usage errors.
  echo "serve-smoke: refused startup configurations"
  local rc=0
  timeout 10 "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -eval 'accuracy=approx(0.01)' \
    -model "blobs=transform:$TMP/model.gob" 2>"$TMP/refused.log" || rc=$?
  if [ "$rc" = 0 ] || [ "$rc" = 124 ] || grep -q 'listening' "$TMP/refused.log" ||
    ! grep -q '"accuracy" field' "$TMP/refused.log"; then
    echo "serve-smoke: FAIL: -eval accuracy=approx(0.01) exited $rc; want a startup error naming the request's \"accuracy\" field" >&2
    cat "$TMP/refused.log" >&2
    exit 1
  fi
  echo "serve-smoke: ok: -eval accuracy=... refused before listening (exit $rc)"
  # q sizes a micro-cluster summary built from raw rows; every served
  # model is already a summary, so the key is refused too.
  rc=0
  timeout 10 "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -eval 'q=50' \
    -model "blobs=transform:$TMP/model.gob" 2>"$TMP/refused.log" || rc=$?
  if [ "$rc" = 0 ] || [ "$rc" = 124 ] || grep -q 'listening' "$TMP/refused.log" ||
    ! grep -q '"q"' "$TMP/refused.log"; then
    echo "serve-smoke: FAIL: -eval q=50 exited $rc; want a startup error naming \"q\"" >&2
    cat "$TMP/refused.log" >&2
    exit 1
  fi
  echo "serve-smoke: ok: -eval q=... refused before listening (exit $rc)"
  rc=0
  timeout 10 "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -prune 0.01 \
    -model "blobs=transform:$TMP/model.gob" 2>"$TMP/refused.log" || rc=$?
  if [ "$rc" != 2 ]; then
    echo "serve-smoke: FAIL: -prune exited $rc, want 2 (unknown flag)" >&2
    cat "$TMP/refused.log" >&2
    exit 1
  fi
  echo "serve-smoke: ok: -prune is a usage error (exit 2)"
  rc=0
  timeout 10 "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -retry-max 1 \
    -model "blobs=transform:$TMP/model.gob" 2>"$TMP/refused.log" || rc=$?
  if [ "$rc" != 2 ]; then
    echo "serve-smoke: FAIL: -retry-max exited $rc, want 2 (unknown flag)" >&2
    cat "$TMP/refused.log" >&2
    exit 1
  fi
  echo "serve-smoke: ok: -retry-max is a usage error (exit 2)"

  echo "serve-smoke: starting udmserve on $base"
  "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -debug \
    -model "blobs=transform:$TMP/model.gob" 2>"$TMP/server.log" &
  local server_pid=$!
  PIDS+=("$server_pid")
  wait_ready "$base/readyz" "$server_pid" "$TMP/server.log"

  expect 200 GET "$base/healthz"
  expect 200 GET "$base/readyz"
  expect 200 GET "$base/metrics"
  expect 200 GET "$base/v1/models"
  expect 200 POST "$base/v1/models/blobs/classify" '{"point": [-2.5, 0]}'
  expect 200 POST "$base/v1/models/blobs/classify" '{"points": [[-2.5, 0], [2.5, 0]]}'
  expect 200 POST "$base/v1/models/blobs/density" '{"point": [0, 0]}'
  expect 200 POST "$base/v1/models/blobs/outliers" '{"points": [[-2.5, 0], [2.5, 0], [50, 50]]}'
  expect 400 POST "$base/v1/models/blobs/classify" '{"point": [1, 2, 3]}'
  expect 404 POST "$base/v1/models/nope/classify" '{"point": [0, 0]}'

  echo "serve-smoke: observability endpoints"
  expect 200 GET "$base/debug/pprof/"
  expect 200 GET "$base/debug/traces"
  expect 200 GET "$base/debug/slow"

  # JSON shape: the legacy /metrics contract — a flat JSON object whose
  # counters reflect the traffic above.
  expect 200 GET "$base/metrics"
  cp "$TMP/last_body" "$TMP/metrics.json"
  for key in requests density_requests classify_requests batch_flushes latency_p50_us cache_entries; do
    if ! grep -q "\"$key\"" "$TMP/metrics.json"; then
      echo "serve-smoke: FAIL: /metrics JSON missing key \"$key\"" >&2
      cat "$TMP/metrics.json" >&2
      exit 1
    fi
  done
  echo "serve-smoke: ok: /metrics JSON has the frozen key set"

  expect 200 GET "$base/metrics?format=prometheus"
  cp "$TMP/last_body" "$TMP/metrics.prom"
  check_prometheus "$TMP/metrics.prom" \
    udm_server_requests_total udm_server_request_seconds_bucket \
    udm_server_latency_seconds_count udm_server_uptime_seconds \
    udm_runtime_goroutines udm_kde_batches_total udm_parallel_for_calls_total

  echo "serve-smoke: graceful shutdown"
  stop_graceful "$server_pid" "$TMP/server.log"
  echo "serve-smoke: serve stage PASS"
}

proxy_stage() {
  local port_a=$((PORT + 1)) port_b=$((PORT + 2))
  local base="http://127.0.0.1:${PORT}"
  echo "proxy-smoke: building tools"
  go build -o "$TMP/udmgen" ./cmd/udmgen
  go build -o "$TMP/udmstream" ./cmd/udmstream
  go build -o "$TMP/udmserve" ./cmd/udmserve
  go build -o "$TMP/udmproxy" ./cmd/udmproxy

  echo "proxy-smoke: building one stream checkpoint per shard"
  "$TMP/udmgen" -profile two-blobs -n 400 -f 1.0 -seed 3 -o "$TMP/shard_a.csv"
  "$TMP/udmgen" -profile two-blobs -n 400 -f 1.0 -seed 4 -o "$TMP/shard_b.csv"
  "$TMP/udmstream" -in "$TMP/shard_a.csv" -q 40 -checkpoint "$TMP/shard_a.gob" >/dev/null
  "$TMP/udmstream" -in "$TMP/shard_b.csv" -q 40 -checkpoint "$TMP/shard_b.gob" >/dev/null

  echo "proxy-smoke: starting two shards and the proxy on $base"
  "$TMP/udmserve" -addr "127.0.0.1:${port_a}" -no-checkpoint \
    -model "live=stream:$TMP/shard_a.gob" 2>"$TMP/shard_a.log" &
  local pid_a=$!
  PIDS+=("$pid_a")
  "$TMP/udmserve" -addr "127.0.0.1:${port_b}" -no-checkpoint \
    -model "live=stream:$TMP/shard_b.gob" 2>"$TMP/shard_b.log" &
  local pid_b=$!
  PIDS+=("$pid_b")
  wait_ready "http://127.0.0.1:${port_a}/readyz" "$pid_a" "$TMP/shard_a.log"
  wait_ready "http://127.0.0.1:${port_b}/readyz" "$pid_b" "$TMP/shard_b.log"

  "$TMP/udmproxy" -addr "127.0.0.1:${PORT}" \
    -shard "a=http://127.0.0.1:${port_a}" -shard "b=http://127.0.0.1:${port_b}" \
    -model "live=partitioned:2" 2>"$TMP/proxy.log" &
  local pid_p=$!
  PIDS+=("$pid_p")
  wait_ready "$base/readyz" "$pid_p" "$TMP/proxy.log"

  expect 200 GET "$base/healthz"
  expect 200 GET "$base/v1/models"
  expect 200 POST "$base/v1/models/live/density" '{"point": [0, 0]}'
  expect 200 POST "$base/v1/models/live/density" '{"points": [[-2.5, 0], [2.5, 0], [0, 1]]}'
  expect 200 POST "$base/v1/models/live/density" '{"point": [0.5, 0.5], "dims": [0]}'
  expect 200 POST "$base/v1/models/live/outliers" '{"points": [[-2.5, 0], [2.5, 0], [50, 50]]}'
  expect 200 POST "$base/v1/models/live/ingest" '{"points": [[0.1, 0.2], [3.1, -0.2], [-2.2, 0.7]]}'
  # The ingest bumped shard versions: the next fan-out must transparently
  # refresh its pinned head (409 stale_version under the hood).
  expect 200 POST "$base/v1/models/live/density" '{"point": [0, 0]}'
  if grep -qi 'x-udm-degraded' "$TMP/last_headers"; then
    echo "proxy-smoke: FAIL: healthy answers must not carry X-UDM-Degraded" >&2
    exit 1
  fi
  expect 400 POST "$base/v1/models/live/density" '{"point": [1, 2, 3]}'
  expect 400 POST "$base/v1/models/live/classify" '{"point": [0, 0]}'
  expect 404 POST "$base/v1/models/nope/density" '{"point": [0, 0]}'

  expect 200 GET "$base/metrics"
  for key in requests fanouts degraded; do
    if ! grep -q "\"$key\"" "$TMP/last_body"; then
      echo "proxy-smoke: FAIL: /metrics JSON missing key \"$key\"" >&2
      cat "$TMP/last_body" >&2
      exit 1
    fi
  done
  expect 200 GET "$base/metrics?format=prometheus"
  cp "$TMP/last_body" "$TMP/proxy_metrics.prom"
  check_prometheus "$TMP/proxy_metrics.prom" \
    udm_proxy_requests_total udm_proxy_fanout_total \
    udm_proxy_endpoint_requests_total udm_proxy_request_seconds_bucket \
    udm_proxy_latency_seconds_count udm_proxy_shard_latency_seconds_count \
    udm_proxy_uptime_seconds udm_proxy_tenant_requests_total
  if ! grep -q 'udm_proxy_shard_latency_seconds_count{shard="a"}' "$TMP/proxy_metrics.prom"; then
    echo "proxy-smoke: FAIL: shard-labeled latency series missing" >&2
    exit 1
  fi

  echo "proxy-smoke: killing shard b — queries must degrade, not fail"
  kill -9 "$pid_b"
  expect 200 POST "$base/v1/models/live/density" '{"points": [[-2.5, 0], [2.5, 0]]}'
  if ! grep -qi '^x-udm-degraded: partial' "$TMP/last_headers"; then
    echo "proxy-smoke: FAIL: degraded answer missing X-UDM-Degraded: partial" >&2
    cat "$TMP/last_headers" >&2
    exit 1
  fi
  if ! grep -q '"coverage"' "$TMP/last_body"; then
    echo "proxy-smoke: FAIL: degraded answer missing coverage fraction" >&2
    cat "$TMP/last_body" >&2
    exit 1
  fi
  echo "proxy-smoke: ok: degraded answer carries header and coverage"
  expect 200 GET "$base/metrics?format=prometheus"
  if ! grep -Eq 'udm_proxy_degraded_total [1-9]' "$TMP/last_body"; then
    echo "proxy-smoke: FAIL: udm_proxy_degraded_total did not move" >&2
    exit 1
  fi

  echo "proxy-smoke: graceful shutdown"
  stop_graceful "$pid_p" "$TMP/proxy.log"
  stop_graceful "$pid_a" "$TMP/shard_a.log"
  echo "proxy-smoke: proxy stage PASS"
}

# density_of FILE — extract the bare density value from a response
# body (ignores the "cached":true marker repeats carry).
density_of() {
  sed -n 's/.*"density":\([^,}]*\).*/\1/p' "$1"
}

# expect_header NAME VALUE — require a header on the last response.
expect_header() {
  local name="$1" value="$2"
  if ! grep -qi "^${name}: ${value}" "$TMP/last_headers"; then
    echo "tenant-smoke: FAIL: missing header ${name}: ${value}" >&2
    cat "$TMP/last_headers" >&2
    exit 1
  fi
}

tenant_stage() {
  local base="http://127.0.0.1:${PORT}"
  echo "tenant-smoke: building tools"
  go build -o "$TMP/udmgen" ./cmd/udmgen
  go build -o "$TMP/udmclassify" ./cmd/udmclassify
  go build -o "$TMP/udmserve" ./cmd/udmserve
  go build -o "$TMP/udmload" ./cmd/udmload

  echo "tenant-smoke: training one model per tenant"
  "$TMP/udmgen" -profile two-blobs -n 600 -f 1.0 -seed 1 -o "$TMP/train_t1.csv"
  "$TMP/udmgen" -profile two-blobs -n 600 -f 1.0 -seed 5 -o "$TMP/train_t2.csv"
  "$TMP/udmgen" -profile two-blobs -n 100 -f 1.0 -seed 2 -o "$TMP/test.csv"
  "$TMP/udmclassify" -train "$TMP/train_t1.csv" -test "$TMP/test.csv" \
    -save "$TMP/model_t1.gob" >/dev/null
  "$TMP/udmclassify" -train "$TMP/train_t2.csv" -test "$TMP/test.csv" \
    -save "$TMP/model_t2.gob" >/dev/null

  echo "tenant-smoke: starting udmserve with two tenants plus a default model"
  "$TMP/udmserve" -addr "127.0.0.1:${PORT}" -no-checkpoint \
    -model "blobs=transform:$TMP/model_t1.gob" \
    -model "t1/live=transform:$TMP/model_t1.gob" \
    -model "t2/live=transform:$TMP/model_t2.gob" \
    -tenant-inflight 64 2>"$TMP/tenant_server.log" &
  local server_pid=$!
  PIDS+=("$server_pid")
  wait_ready "$base/readyz" "$server_pid" "$TMP/tenant_server.log"

  echo "tenant-smoke: legacy un-namespaced paths keep serving the default tenant"
  expect 200 GET "$base/v1/models"
  expect 200 POST "$base/v1/models/blobs/classify" '{"point": [-2.5, 0]}'
  expect 200 POST "$base/v1/models/blobs/density" '{"point": [0, 0]}'
  expect_header 'x-udm-tenant' 'default'
  cp "$TMP/last_body" "$TMP/legacy_density"
  expect 200 POST "$base/v1/t/default/models/blobs/density" '{"point": [0, 0]}'
  if [ "$(density_of "$TMP/last_body")" != "$(density_of "$TMP/legacy_density")" ]; then
    echo "tenant-smoke: FAIL: /v1/t/default answer differs from legacy path" >&2
    exit 1
  fi
  echo "tenant-smoke: ok: default-tenant alias is bit-identical to the legacy path"

  echo "tenant-smoke: namespaced paths isolate tenants"
  expect 200 POST "$base/v1/t/t1/models/live/density" '{"point": [0, 0]}'
  expect_header 'x-udm-tenant' 't1'
  cp "$TMP/last_body" "$TMP/t1_density"
  expect 200 POST "$base/v1/t/t2/models/live/density" '{"point": [0, 0]}'
  expect_header 'x-udm-tenant' 't2'
  if [ "$(density_of "$TMP/last_body")" = "$(density_of "$TMP/t1_density")" ]; then
    echo "tenant-smoke: FAIL: t1 and t2 answered identically for distinct models" >&2
    exit 1
  fi
  expect 404 POST "$base/v1/t/t1/models/blobs/density" '{"point": [0, 0]}'
  expect 404 POST "$base/v1/models/live/density" '{"point": [0, 0]}'

  echo "tenant-smoke: hot swap — stage, promote, rollback"
  d_before="$(density_of "$TMP/t1_density")"
  code="$(curl -s -o "$TMP/last_body" -D "$TMP/last_headers" -w '%{http_code}' \
    -X PUT --data-binary @"$TMP/model_t2.gob" "$base/v1/t/t1/models/live?kind=transform")"
  if [ "$code" != "200" ]; then
    echo "tenant-smoke: FAIL: staging returned $code" >&2
    cat "$TMP/last_body" >&2
    exit 1
  fi
  expect 200 POST "$base/v1/t/t1/models/live/density" '{"point": [0, 0]}'
  expect_header 'x-udm-model-version' '1'
  if [ "$(density_of "$TMP/last_body")" != "$d_before" ]; then
    echo "tenant-smoke: FAIL: staging alone changed the served answer" >&2
    exit 1
  fi
  expect 200 POST "$base/v1/t/t1/models/live/promote" ''
  expect 200 POST "$base/v1/t/t1/models/live/density" '{"point": [0, 0]}'
  expect_header 'x-udm-model-version' '2'
  d_promoted="$(density_of "$TMP/last_body")"
  if [ "$d_promoted" = "$d_before" ]; then
    echo "tenant-smoke: FAIL: promote did not change the served model" >&2
    exit 1
  fi
  expect 200 POST "$base/v1/t/t1/models/live/rollback" ''
  expect 200 POST "$base/v1/t/t1/models/live/density" '{"point": [0, 0]}'
  expect_header 'x-udm-model-version' '3'
  if [ "$(density_of "$TMP/last_body")" != "$d_before" ]; then
    echo "tenant-smoke: FAIL: rollback did not restore the old answers" >&2
    exit 1
  fi
  expect 409 POST "$base/v1/t/t1/models/live/promote" ''
  echo "tenant-smoke: ok: hot-swap lifecycle (gen 1 -> 2 -> 3, answers restored)"

  echo "tenant-smoke: udmload replay against both path styles"
  "$TMP/udmload" -base "$base" -model live -tenants t1,t2 \
    -streams 4 -requests 8 -seed 42 -mix density=0.8,classify=0.2 \
    -write-tenants t1 -probe-every 4
  "$TMP/udmload" -base "$base" -model blobs -tenants default \
    -streams 2 -requests 8 -seed 43 -namespaced=false -mix density=1
  echo "tenant-smoke: ok: udmload passed with zero isolation violations"

  echo "tenant-smoke: graceful shutdown"
  stop_graceful "$server_pid" "$TMP/tenant_server.log"
  echo "tenant-smoke: tenant stage PASS"
}

case "$STAGE" in
serve) serve_stage ;;
proxy) proxy_stage ;;
tenant) tenant_stage ;;
all)
  serve_stage
  proxy_stage
  tenant_stage
  ;;
*)
  echo "serve_smoke.sh: unknown stage $STAGE (want serve, proxy, tenant or all)" >&2
  exit 2
  ;;
esac

echo "serve-smoke: PASS"
