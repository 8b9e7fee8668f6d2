#!/usr/bin/env bash
# obs-smoke.sh — end-to-end smoke test of the observability plane.
#
# Boots a real mcqueue and one mcworker, submits a job over the HTTP API
# with curl, and asserts the debug surface works from the outside:
# /readyz gates on journal replay and the fleet listener, /metrics
# exposes the expected service- and worker-plane series with the right
# values for this known job (plus build identity), GET /jobs/{id}/events
# tells the lifecycle story (and filters by kind), GET /jobs/{id}/spans
# decomposes every chunk's timing and names the same chunks as the
# chunk-completed events that carry those segments, GET /fleet shows the
# worker's measured rate and build, both daemons' /metrics carry goroutines
# and heap, mctop -once renders it all, pprof answers, a
# result fetched directly and through an mcgate in front is the same bytes,
# the shard's JSON encoded once per fetch (service_result_*{format="json"})
# and passed through by the gateway, two voxel jobs sent
# through that gateway leave a count in every submit-stage histogram of
# both tiers, reach the shard in the compact form, are fsynced into its
# idle journal and cost one accelerator build on the worker, per-tenant
# admission control sheds a flooding tenant with 429 + a bucket-derived
# Retry-After (reason- and tenant-labeled on /metrics, bucket levels on
# GET /tenants) while another tenant's job completes, and
# SIGTERM shuts mcqueue down cleanly — with an unfinished job still
# queued, so the final journal compaction must actually run before the
# process exits — and a restart on the default journal directory replays
# that job under its original ID.
#
# Stdlib + curl only; run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

FLEET=127.0.0.1:19876
HTTP=127.0.0.1:18080
WDBG=127.0.0.1:18081
GATE=127.0.0.1:18082

WORK=$(mktemp -d)
QPID= WPID= GPID=
cleanup() {
  [ -n "$GPID" ] && kill "$GPID" 2>/dev/null || true
  [ -n "$WPID" ] && kill "$WPID" 2>/dev/null || true
  [ -n "$QPID" ] && kill "$QPID" 2>/dev/null || true
  wait 2>/dev/null || true
  if [ "${FAILED:-0}" != 0 ]; then
    echo "--- mcqueue log ---"; cat "$WORK/mcqueue.log" 2>/dev/null || true
    echo "--- mcqueue log (restart) ---"; cat "$WORK/mcqueue-restart.log" 2>/dev/null || true
    echo "--- mcworker log ---"; cat "$WORK/mcworker.log" 2>/dev/null || true
    echo "--- mcgate log ---"; cat "$WORK/mcgate.log" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  FAILED=1
  echo "obs-smoke: FAIL: $*" >&2
  exit 1
}

wait_http() { # url: poll until 200 or give up
  for _ in $(seq 1 100); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  fail "timeout waiting for $1"
}

echo "obs-smoke: building..."
go build -ldflags '-X repro/internal/obs.Version=smoke-test' -o "$WORK" \
  ./cmd/mcqueue ./cmd/mcworker ./cmd/mctop ./cmd/mcgate
go run ./scripts/genjob >"$WORK/job.json"

# Tenant table: alice gets a 3x scheduling weight, flood may create one
# job per 50s burst-1 — the default class stays unlimited so the rest of
# the smoke test is unaffected. Passing -tenants also auto-upgrades the
# scheduling policy to tenant-fair.
cat >"$WORK/tenants.json" <<'EOF'
{
  "default": {},
  "tenants": {
    "alice": {"weight": 3},
    "flood": {"jobsPerSec": 0.02, "jobBurst": 1}
  }
}
EOF

start_queue() { # logfile
  # No -wal-dir: the journal must be on by default, in ./mcqueue-wal — so
  # the daemon runs from $WORK.
  (cd "$WORK" && exec ./mcqueue -addr "$FLEET" -http "$HTTP" -log-format json \
    -tenants "$WORK/tenants.json" >"$1" 2>&1) &
  QPID=$!
  wait_http "http://$HTTP/readyz"
}
start_queue "$WORK/mcqueue.log"

"$WORK/mcworker" -addr "$FLEET" -name smoke-worker -debug-addr "$WDBG" \
  -log-format json >"$WORK/mcworker.log" 2>&1 &
WPID=$!
# Worker readiness flips only once its server session is established.
wait_http "http://$WDBG/readyz"

echo "obs-smoke: submitting job..."
ID=$(curl -fsS -X POST "http://$HTTP/jobs" -d @"$WORK/job.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID" ] || fail "POST /jobs returned no job id"

for _ in $(seq 1 150); do
  STATE=$(curl -fsS "http://$HTTP/jobs/$ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$STATE" = done ] && break
  sleep 0.2
done
[ "$STATE" = done ] || fail "job stuck in state '$STATE'"

curl -fsS "http://$HTTP/healthz" >/dev/null || fail "/healthz not OK"
curl -fsS "http://$HTTP/debug/pprof/cmdline" >/dev/null || fail "pprof not mounted"

echo "obs-smoke: checking scraped series..."
METRICS=$(curl -fsS "http://$HTTP/metrics")
expect() { # series value
  echo "$METRICS" | grep -q "^$1 $2\$" ||
    fail "expected '$1 $2' in /metrics, got: $(echo "$METRICS" | grep "^$1" || echo '<absent>')"
}
expect "service_jobs_submitted_total" 1
expect "service_chunks_completed_total" 4       # 2000 photons / 500 per chunk
expect "service_photons_reduced_total" 2000
expect "fleet_sessions_total" 1
expect 'service_jobs{state="done"}' 1
echo "$METRICS" | grep -q '^service_reduce_seconds_bucket' || fail "reduce histogram absent"
echo "$METRICS" | grep -q '^service_span_compute_seconds_count 4$' ||
  fail "span histograms did not observe all 4 chunks"
echo "$METRICS" | grep -Eq '^mc_build_info\{.*version="smoke-test".*\} 1$' ||
  fail "mc_build_info missing the -ldflags-injected version"
echo "$METRICS" | grep -q '^process_uptime_seconds' || fail "uptime metric absent"

EVENTS=$(curl -fsS "http://$HTTP/jobs/$ID/events")
for kind in submitted chunk-granted chunk-completed finalized; do
  echo "$EVENTS" | grep -q "\"kind\":\"$kind\"" || fail "event trace missing '$kind'"
done
FILTERED=$(curl -fsS "http://$HTTP/jobs/$ID/events?kind=chunk-completed")
echo "$FILTERED" | grep -q '"kind":"submitted"' && fail "?kind= filter leaked other kinds"
[ "$(echo "$FILTERED" | grep -o '"kind":"chunk-completed"' | wc -l)" = 4 ] ||
  fail "?kind=chunk-completed did not return exactly the 4 completions"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$HTTP/jobs/$ID/events?kind=bogus")
[ "$CODE" = 400 ] || fail "unknown event kind answered $CODE, want 400"

echo "obs-smoke: checking spans, the fleet and runtime gauges..."
SPANS=$(curl -fsS "http://$HTTP/jobs/$ID/spans")
[ "$(echo "$SPANS" | grep -o '"chunk":' | wc -l)" = 4 ] || fail "expected 4 spans: $SPANS"
# A span is its chunk-completed event's segments: the two views name the
# same 4 chunks, and each of those events carries all four segments.
SPAN_CHUNKS=$(echo "$SPANS" | grep -o '"chunk":[0-9]*' | sort | tr '\n' ' ')
EVENT_CHUNKS=$(echo "$FILTERED" | grep -o '"chunk":[0-9]*' | sort | tr '\n' ' ')
[ "$SPAN_CHUNKS" = "$EVENT_CHUNKS" ] ||
  fail "span chunks '$SPAN_CHUNKS' differ from chunk-completed chunks '$EVENT_CHUNKS'"
for seg in queueSeconds wireSeconds computeSeconds reduceSeconds; do
  echo "$SPANS" | grep -q "\"$seg\":" || fail "spans missing segment '$seg': $SPANS"
  [ "$(echo "$FILTERED" | grep -o "\"$seg\":" | wc -l)" = 4 ] ||
    fail "chunk-completed events do not all carry '$seg': $FILTERED"
done
echo "$SPANS" | grep -q '"worker":"smoke-worker"' || fail "spans lost worker attribution"

# A session's one speed is the server's: the job's grants came back, so
# /fleet shows a nonzero rate measured from grant to arrival, and the
# worker's Hello build as its version. After the job its request is parked
# on the server, so /fleet shows it parked within a second or two.
FLEET_OK=0
for _ in $(seq 1 50); do
  FLEETJSON=$(curl -fsS "http://$HTTP/fleet")
  if echo "$FLEETJSON" | grep -q '"name":"smoke-worker"' &&
     echo "$FLEETJSON" | grep -q '"state":"parked"' &&
     echo "$FLEETJSON" | grep -Eq '"inferredPhotonsPerSec":[0-9]*\.?[0-9]*[1-9]'; then
    FLEET_OK=1; break
  fi
  sleep 0.2
done
[ "$FLEET_OK" = 1 ] || fail "/fleet never showed smoke-worker parked with a nonzero inferred rate: ${FLEETJSON:-}"
echo "$FLEETJSON" | grep -q '"version":"smoke-test"' || fail "/fleet row missing worker build version"

# Goroutines and heap are every daemon's own series, read at scrape time.
for url in "http://$HTTP/metrics" "http://$WDBG/metrics"; do
  RMETRICS=$(curl -fsS "$url")
  for series in go_goroutines go_heap_objects_bytes; do
    echo "$RMETRICS" | grep -Eq "^$series [1-9]" ||
      fail "$url: $series absent or zero: $(echo "$RMETRICS" | grep "^$series" || echo '<absent>')"
  done
done

# The dispatcher's own series: the idle worker counts as parked, and its
# parks are observed (the one behind the parked gauge is still open, so the
# histogram holds the earlier, completed ones).
for _ in $(seq 1 10); do # once a second the worker is between two parks for an instant
  METRICS=$(curl -fsS "http://$HTTP/metrics")
  echo "$METRICS" | grep -q '^service_workers_parked 1$' && break
  sleep 0.1
done
expect "service_workers_parked" 1
echo "$METRICS" | grep -Eq '^service_park_seconds_count [1-9]' ||
  fail "service_park_seconds observed no park: $(echo "$METRICS" | grep '^service_park_seconds_count' || echo '<absent>')"

echo "obs-smoke: mctop -once renders the dashboard..."
TOP=$("$WORK/mctop" -addr "http://$HTTP" -once)
echo "$TOP" | grep -q "smoke-worker" || fail "mctop does not list the worker: $TOP"
echo "$TOP" | grep -Eq "smoke-worker .* (parked|computing) " || fail "mctop lost the worker state column: $TOP"
echo "$TOP" | grep -q "policy tenant-fair" || fail "mctop lost the stats header: $TOP"
echo "$TOP" | grep -q "build smoke-test" || fail "mctop lost the build version: $TOP"

WMETRICS=$(curl -fsS "http://$WDBG/metrics")
echo "$WMETRICS" | grep -q '^worker_photons_total 2000$' ||
  fail "worker did not account 2000 photons: $(echo "$WMETRICS" | grep '^worker_photons' || true)"
echo "$WMETRICS" | grep -q '^worker_chunks_computed_total 4$' || fail "worker chunk count wrong"
# The kernel's event counters: all four kinds exist, 2000 photons scattered
# at least once each, and the transport loop asked the geometry no more
# often than it had events to ask about.
kev() { echo "$WMETRICS" | sed -n "s/^worker_kernel_events_total{kind=\"$1\"} //p"; }
for kind in scatter query crossing roulette; do
  [ -n "$(kev $kind)" ] || fail "worker_kernel_events_total{kind=\"$kind\"} is absent"
done
[ "$(kev scatter)" -ge 2000 ] || fail "kernel counted $(kev scatter) scattering events for 2000 photons"
[ "$(kev query)" -le $(( $(kev scatter) + $(kev crossing) )) ] ||
  fail "kernel queries $(kev query) exceed scatter $(kev scatter) + crossing $(kev crossing)"
echo "$WMETRICS" | grep -Eq '^worker_conn_frames_total\{dir="send",type="task-request"\} [1-9]' ||
  fail "wire frame counters silent"
echo "$WMETRICS" | grep -Eq '^worker_batches_flushed_total [1-9]' ||
  fail "worker handed back no batch: $(echo "$WMETRICS" | grep '^worker_batches' || true)"

echo "obs-smoke: a result, direct and through a gateway..."
# A client asking the shard gets JSON; a gateway in front asks the shard
# the same way and passes its bytes through — the same bytes, each fetch
# one JSON encode on the shard.
"$WORK/mcgate" -http "$GATE" -shard "http://$HTTP" -log-format json >"$WORK/mcgate.log" 2>&1 &
GPID=$!
wait_http "http://$GATE/readyz"
curl -fsS "http://$HTTP/jobs/$ID/result" >"$WORK/result.direct"
curl -fsS "http://$GATE/jobs/$ID/result" >"$WORK/result.gateway"
cmp -s "$WORK/result.direct" "$WORK/result.gateway" ||
  fail "result through the gateway differs from the shard's own"
BYTES=$(wc -c <"$WORK/result.direct" | tr -d ' ')
METRICS=$(curl -fsS "http://$HTTP/metrics")
expect 'service_result_encode_seconds_count{format="json"}' 2
expect 'service_result_bytes_sum{format="json"}' $((2 * BYTES))

echo "obs-smoke: submit stages at both tiers, one grid built once..."
# Two voxel jobs on the same grid, different seeds, through the gateway:
# each tier's submit path has a histogram per stage, and the worker builds
# the grid's traversal accelerator for the first job and shares it with the
# second.
for SEED in 21 22; do
  go run ./scripts/genjob -model voxel -seed "$SEED" -label "smoke-voxel-$SEED" >"$WORK/voxel.json"
  VID=$(curl -fsS -X POST "http://$GATE/jobs" -d @"$WORK/voxel.json" |
    sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
  [ -n "$VID" ] || fail "voxel POST /jobs through the gateway returned no job id"
  for _ in $(seq 1 150); do
    STATE=$(curl -fsS "http://$GATE/jobs/$VID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = done ] && break
    sleep 0.2
  done
  [ "$STATE" = done ] || fail "voxel job $VID stuck in state '$STATE'"
done
METRICS=$(curl -fsS "http://$GATE/metrics")
for stage in decode keys encode forward; do
  expect "gateway_submit_stage_seconds_count{stage=\"$stage\"}" 2
done
# The journal fsyncs from a timer, not from the next append: a few
# intervals (100 ms each) after the last record, with nothing more sent,
# the shard has synced.
sleep 0.5
METRICS=$(curl -fsS "http://$HTTP/metrics")
for stage in decode keys journal; do # the first job, sent to the shard directly, and these two
  expect "service_submit_stage_seconds_count{stage=\"$stage\"}" 3
done
# The gateway forwarded its two in the compact form; the first was a
# client's JSON.
expect 'service_submit_bytes_count{format="compact"}' 2
expect 'service_submit_bytes_count{format="json"}' 1
FSYNCS=$(echo "$METRICS" | sed -n 's/^wal_fsync_seconds_count //p')
[ "${FSYNCS:-0}" -ge 1 ] || fail "idle shard has fsynced its journal ${FSYNCS:-0} times"
METRICS=$(curl -fsS "http://$WDBG/metrics")
expect "worker_geometry_builds_total" 1
expect "worker_geometry_shared_total" 1
kill "$GPID" 2>/dev/null || true
wait "$GPID" 2>/dev/null || true
GPID=

echo "obs-smoke: tenant admission control..."
# alice, attributed via header, sails through and completes.
go run ./scripts/genjob -photons 2000 -seed 15 -label smoke-alice >"$WORK/alice.json"
AID=$(curl -fsS -X POST "http://$HTTP/jobs" -H "X-MC-Tenant: alice" -d @"$WORK/alice.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$AID" ] || fail "alice's POST /jobs returned no job id"

# flood's first job spends its burst-1 bucket...
go run ./scripts/genjob -photons 2000 -seed 16 -label smoke-flood-1 >"$WORK/flood1.json"
FID=$(curl -fsS -X POST "http://$HTTP/jobs" -H "X-MC-Tenant: flood" -d @"$WORK/flood1.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$FID" ] || fail "flood's first POST /jobs returned no job id"

# ...so the immediate second one sheds: 429, a refill-derived Retry-After
# (0.02 jobs/s → ~50s, certainly not the old constant "1"), and the shed
# reason in the error body.
go run ./scripts/genjob -photons 2000 -seed 17 -label smoke-flood-2 >"$WORK/flood2.json"
CODE=$(curl -s -o "$WORK/shed.body" -D "$WORK/shed.hdr" -w '%{http_code}' \
  -X POST "http://$HTTP/jobs" -H "X-MC-Tenant: flood" -d @"$WORK/flood2.json")
[ "$CODE" = 429 ] || fail "flooding tenant answered $CODE, want 429"
RETRY=$(tr -d '\r' <"$WORK/shed.hdr" | sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9]*\)$/\1/p')
[ -n "$RETRY" ] && [ "$RETRY" -ge 2 ] ||
  fail "429 Retry-After '$RETRY' is not a bucket-derived wait"
grep -q 'tenant_rate' "$WORK/shed.body" || fail "429 body lost the shed reason: $(cat "$WORK/shed.body")"

# Both admitted jobs complete despite flood's empty bucket.
for JOB in "$AID" "$FID"; do
  for _ in $(seq 1 150); do
    STATE=$(curl -fsS "http://$HTTP/jobs/$JOB" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$STATE" = done ] && break
    sleep 0.2
  done
  [ "$STATE" = done ] || fail "tenant job $JOB stuck in state '$STATE'"
done

METRICS=$(curl -fsS "http://$HTTP/metrics")
expect 'service_jobs_shed_total{reason="tenant_rate"}' 1
expect 'service_tenant_jobs_shed_total{tenant="flood"}' 1
expect 'service_tenant_jobs_submitted_total{tenant="alice"}' 1
expect 'service_tenant_jobs_submitted_total{tenant="flood"}' 1
expect 'service_tenant_photons_total{tenant="alice"}' 2000

TENANTS=$(curl -fsS "http://$HTTP/tenants")
echo "$TENANTS" | grep -q '"admission":"token-bucket"' || fail "/tenants lost the policy name: $TENANTS"
echo "$TENANTS" | grep -q '"name":"flood"' || fail "/tenants does not list flood: $TENANTS"
echo "$TENANTS" | grep -q '"jobTokens":' || fail "/tenants carries no bucket levels: $TENANTS"
curl -fsS "http://$HTTP/stats" | grep -q '"tenants":{' || fail "/stats lost the tenant rollup"
curl -fsS "http://$HTTP/fleet" | grep -q '"tenants":\[' || fail "/fleet lost the tenant rollup"

TOP=$("$WORK/mctop" -addr "http://$HTTP" -once)
echo "$TOP" | grep -q "TENANT" || fail "mctop renders no tenant table: $TOP"
echo "$TOP" | grep -q "flood" || fail "mctop tenant table misses flood: $TOP"

echo "obs-smoke: graceful shutdown journals the active job..."
# Stop the worker, then queue a job nothing can advance: it must still be
# active when SIGTERM lands, so a clean exit proves the drain waited for
# the final compaction instead of racing past it.
kill "$WPID" 2>/dev/null || true
wait "$WPID" 2>/dev/null || true
WPID=
go run ./scripts/genjob -photons 1000000 -seed 8 -label smoke-active >"$WORK/bigjob.json"
ID2=$(curl -fsS -X POST "http://$HTTP/jobs" -d @"$WORK/bigjob.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID2" ] || fail "second POST /jobs returned no job id"

kill -TERM "$QPID"
ok=0
for _ in $(seq 1 50); do
  if ! kill -0 "$QPID" 2>/dev/null; then ok=1; break; fi
  sleep 0.2
done
[ "$ok" = 1 ] || fail "mcqueue did not exit on SIGTERM"
wait "$QPID" || fail "mcqueue exited non-zero on SIGTERM"
QPID=
grep -q '"msg":"wal: compacted"' "$WORK/mcqueue.log" ||
  fail "SIGTERM with an active job did not compact the journal"
SEGS=$(ls "$WORK/mcqueue-wal"/wal-*.log | wc -l)
[ "$SEGS" = 1 ] || fail "default journal left $SEGS segments after compaction, want 1"

echo "obs-smoke: restart replays the journaled job..."
start_queue "$WORK/mcqueue-restart.log"
STATE=$(curl -fsS "http://$HTTP/jobs/$ID2" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
[ "$STATE" = queued ] ||
  fail "job $ID2 came back in state '$STATE', want queued: $(curl -fsS "http://$HTTP/jobs")"
# Fetch, then match: grep -q quits at its first match, and a curl still
# writing the rest of the scrape into the closed pipe fails the pipeline.
METRICS=$(curl -fsS "http://$HTTP/metrics")
echo "$METRICS" | grep -Eq '^service_jobs_replayed_total [1-9]' ||
  fail "restart replayed no jobs"
kill -TERM "$QPID"
wait "$QPID" || fail "restarted mcqueue exited non-zero on SIGTERM"
QPID=

echo "obs-smoke: PASS"
