#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke for elmored's robustness
# contracts, driven by loadgen with seeded faults armed:
#
#   phase 0 (bounded cache): distinct large nets streamed through a
#     1 MiB -cache-mb budget force evictions, and /metrics reports
#     batch_cache_bytes within the budget.
#
#   phase 1 (overload): at 2x the admitted capacity with serve.decode
#     delay faults firing, shed requests carry Retry-After, admitted
#     requests meet the -slo objectives, SLO rows land in /metrics,
#     and SIGTERM exits 0.
#
#   phase 2 (kill-and-restart): a journaled batch slowed by
#     batch.dispatch faults is SIGTERMed mid-flight; the process exits
#     0, dumps the flight ring, and a restart on the same journal dir
#     resumes the batch — loadgen asserts the union of the interrupted
#     and resumed streams is exactly-once.
#
# Artifacts (traces, flight dump, metrics snapshot, loadgen reports,
# server logs) land in artifacts/ for CI upload.
set -euo pipefail
cd "$(dirname "$0")/.."
ART=artifacts
mkdir -p "$ART"
GO=${GO:-go}

$GO build -o "$ART/elmored" ./cmd/elmored
$GO build -o "$ART/loadgen" ./cmd/loadgen

cleanup() {
  # Best-effort: don't leave servers behind on a failed assertion.
  [ -n "${PID1:-}" ] && kill "$PID1" 2>/dev/null || true
  [ -n "${PID2:-}" ] && kill "$PID2" 2>/dev/null || true
  [ -n "${PID3:-}" ] && kill "$PID3" 2>/dev/null || true
}
trap cleanup EXIT

# wait_listen LOGFILE: poll until elmored reports its bound address,
# then echo the base URL.
wait_listen() {
  local log=$1 url i
  for i in $(seq 1 100); do
    url=$(sed -n 's|^elmored listening on \(http://[^ ]*\).*|\1|p' "$log" | head -n1)
    if [ -n "$url" ]; then echo "$url"; return 0; fi
    sleep 0.1
  done
  echo "elmored never listened; log follows" >&2
  cat "$log" >&2
  return 1
}

echo "== phase 0: the shared cache stays within its -cache-mb budget =="
"$ART/elmored" -addr 127.0.0.1:0 -cache-mb 1 2> "$ART/serve-phase0.log" &
PID1=$!
URL0=$(wait_listen "$ART/serve-phase0.log")
"$ART/loadgen" -url "$URL0" -rate 2 -duration 2s -jobs 400 -nets 400 -max-nodes 400 \
  > "$ART/loadgen-cache.json"
curl -fsS "$URL0/metrics" > "$ART/serve-cache-metrics.txt"
awk -v budget=$((1 << 20)) '
  $1 == "batch_cache_bytes" { bytes = $2; seen = 1 }
  $1 == "batch_cache_evictions" { evictions = $2 }
  END {
    if (!seen) { print "batch_cache_bytes missing from /metrics" > "/dev/stderr"; exit 1 }
    if (bytes + 0 > budget) { printf "batch_cache_bytes %s over the %d budget\n", bytes, budget > "/dev/stderr"; exit 1 }
    if (evictions + 0 < 1) { print "no batch_cache_evictions under a 1 MiB budget" > "/dev/stderr"; exit 1 }
    printf "cache: %s bytes, %s evictions\n", bytes, evictions
  }' "$ART/serve-cache-metrics.txt"
kill -TERM "$PID1"
wait "$PID1"
PID1=
echo "phase 0 ok"

echo "== phase 1: overload sheds cleanly under seeded faults =="
ELMORE_FAULTS='serve.decode:delay:p=0.3;delay=30ms' ELMORE_FAULT_SEED=11 \
  "$ART/elmored" -addr 127.0.0.1:0 -rate 10 -burst 5 -max-inflight 8 \
  -slo p99=5s -trace "$ART/serve-trace.ndjson" \
  2> "$ART/serve-phase1.log" &
PID1=$!
URL1=$(wait_listen "$ART/serve-phase1.log")

# Two tenants offering ~4x the per-tenant admitted rate: loadgen fails
# if any shed lacks Retry-After, any admitted stream is not
# exactly-once, or admitted latency busts the client-side SLO.
"$ART/loadgen" -url "$URL1" -rate 40 -duration 5s -tenants 2 -jobs 5 \
  -slo p99=5s -expect-shed | tee "$ART/loadgen-overload.json"

curl -fsS "$URL1/metrics" > "$ART/serve-metrics.txt"
grep -q '^serve_slo_p99_good' "$ART/serve-metrics.txt"
grep -Eq '^serve_requests_shed [1-9]' "$ART/serve-metrics.txt"

kill -TERM "$PID1"
wait "$PID1" # graceful drain must exit 0 (set -e enforces)
PID1=
echo "phase 1 ok"

echo "== phase 2: SIGTERM mid-batch, restart, resume exactly-once =="
JDIR="$ART/serve-journal"
rm -rf "$JDIR" "$ART/serve-flight.ndjson"
mkdir -p "$JDIR"

ELMORE_FAULTS='batch.dispatch:delay:every=1;delay=25ms' ELMORE_FAULT_SEED=7 \
  "$ART/elmored" -addr 127.0.0.1:0 -journal-dir "$JDIR" -drain-timeout 1s \
  -flight-dump "$ART/serve-flight.ndjson" \
  2> "$ART/serve-phase2a.log" &
PID2=$!
URL2=$(wait_listen "$ART/serve-phase2a.log")

# Resume-mode loadgen re-POSTs batch "smoke" until its union of
# streams covers every job exactly once — across the restart below.
"$ART/loadgen" -url "$URL2" -resume smoke -jobs 150 -max-resumes 60 \
  > "$ART/loadgen-resume.json" &
LGPID=$!

sleep 1 # 25ms/job puts the batch squarely mid-flight
kill -TERM "$PID2"
wait "$PID2" # mid-batch SIGTERM still exits 0
PID2=
test -s "$ART/serve-flight.ndjson"
grep -q '"sigterm"' "$ART/serve-flight.ndjson"
ls "$JDIR" | grep -q . # journal survives for the next incarnation

# Same address, same journal dir, faults off: full-speed resume.
"$ART/elmored" -addr "${URL2#http://}" -journal-dir "$JDIR" \
  2> "$ART/serve-phase2b.log" &
PID3=$!
wait_listen "$ART/serve-phase2b.log" > /dev/null

if ! wait "$LGPID"; then
  echo "loadgen resume assertions failed:" >&2
  cat "$ART/loadgen-resume.json" >&2
  exit 1
fi
cat "$ART/loadgen-resume.json"
grep -q '"exactly_once_violations": 0' "$ART/loadgen-resume.json"
grep -q '"pass": true' "$ART/loadgen-resume.json"

kill -TERM "$PID3"
wait "$PID3"
PID3=
echo "phase 2 ok"
echo "serve smoke passed"
