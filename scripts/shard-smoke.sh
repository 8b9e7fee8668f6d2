#!/usr/bin/env bash
# shard-smoke.sh — end-to-end smoke test of the sharded control plane.
#
# Boots the real deployment cmd/mcgate documents: two mcqueue shards, the
# second with a lease-file standby blocked on the same journal directory,
# a worker per shard (the second dialing "primary,standby"), and a
# stateless mcgate over both. Submits a batch of jobs through the gateway,
# proves both shards own some of them, then SIGKILLs shard 1's primary
# mid-run and asserts the failover contract from the outside: the standby
# takes the flock lease, replays the journal, and inherits the shard; the
# worker's reconnect rotation lands on it; the gateway fails requests over
# on connection errors; every accepted job completes under the job ID it
# was accepted with — zero loss — and each tally is byte-identical to a
# reference single-node run of the same submissions. Last, a second mcgate
# over the same shards: a precision job runs through the first, a looser
# target over the same physics is submitted through the second — routed by
# its physics key to the shard that ran the first, and answered there from
# its cache — and the hit's tally is fetched through the second, before
# and after the first is killed. The cheap always-on CI cousin of
# internal/gateway's failover tests, through real processes, sockets and
# kill -9.
#
# Stdlib + curl only; run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

REF_FLEET=127.0.0.1:19895 REF_HTTP=127.0.0.1:18189
F0=127.0.0.1:19896       H0=127.0.0.1:18190
F1=127.0.0.1:19897       H1=127.0.0.1:18191
F1B=127.0.0.1:19898      H1B=127.0.0.1:18192
GW=127.0.0.1:18195       GW2=127.0.0.1:18196
JOBS=12

WORK=$(mktemp -d)
PIDS=()
P1PID= SBPID=
cleanup() {
  [ ${#PIDS[@]} -gt 0 ] && kill "${PIDS[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  if [ "${FAILED:-0}" != 0 ]; then
    for log in "$WORK"/*.log; do
      echo "--- $(basename "$log") ---"; tail -40 "$log" 2>/dev/null || true
    done
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  FAILED=1
  echo "shard-smoke: FAIL: $*" >&2
  exit 1
}

wait_http() { # url: poll until 200 or give up
  for _ in $(seq 1 150); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  fail "timeout waiting for $1"
}

wait_done() { # base id: poll a job to state done
  local state=
  for _ in $(seq 1 450); do
    state=$(curl -fsS "http://$1/jobs/$2" 2>/dev/null |
      sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$state" = done ] && return 0
    sleep 0.2
  done
  fail "job $2 stuck in state '${state:-unreachable}' on $1"
}

echo "shard-smoke: building..."
go build -o "$WORK" ./cmd/mcqueue ./cmd/mcworker ./cmd/mcgate
for i in $(seq 1 $JOBS); do
  go run ./scripts/genjob -photons 6000 -chunk 200 -seed "$i" >"$WORK/job$i.json"
done

# Reference run: the same submissions against one plain mcqueue. Job IDs
# are content-addressed, so the sharded run must mint the same IDs, and a
# single worker makes the tally fold deterministic — the reference bytes
# are the sharded run's acceptance bytes.
echo "shard-smoke: reference single-node run..."
"$WORK/mcqueue" -addr "$REF_FLEET" -http "$REF_HTTP" -wal-dir "$WORK/ref" \
  -log-format json >"$WORK/ref-mcqueue.log" 2>&1 &
REFQPID=$!; PIDS+=("$REFQPID")
wait_http "http://$REF_HTTP/readyz"
"$WORK/mcworker" -addr "$REF_FLEET" -name ref-worker -flush-chunks 1 \
  -log-format json >"$WORK/ref-mcworker.log" 2>&1 &
PIDS+=($!)

declare -a IDS
for i in $(seq 1 $JOBS); do
  IDS[$i]=$(curl -fsS -X POST "http://$REF_HTTP/jobs" -d @"$WORK/job$i.json" |
    sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
  [ -n "${IDS[$i]}" ] || fail "reference POST /jobs $i returned no id"
done
for i in $(seq 1 $JOBS); do
  wait_done "$REF_HTTP" "${IDS[$i]}"
  curl -fsS "http://$REF_HTTP/jobs/${IDS[$i]}/result" |
    sed 's/.*"tally"://' >"$WORK/ref-tally-$i.json"
done
kill -TERM "$REFQPID" 2>/dev/null || true
wait "$REFQPID" 2>/dev/null || true

# Sharded topology: shard 0 alone; shard 1 as primary + standby sharing
# one journal directory and one lease file (the standby blocks in
# AcquireLease and must not bind its ports yet). -wal-fsync always so a
# kill -9 can never outrun an accepted job's durability.
echo "shard-smoke: starting 2 shards (+1 standby), workers, gateway..."
"$WORK/mcqueue" -addr "$F0" -http "$H0" \
  -wal-dir "$WORK/s0" -wal-fsync always -lease-file "$WORK/s0.lease" \
  -log-format json >"$WORK/shard0.log" 2>&1 &
PIDS+=($!)
"$WORK/mcqueue" -addr "$F1" -http "$H1" \
  -wal-dir "$WORK/s1" -wal-fsync always -lease-file "$WORK/s1.lease" \
  -log-format json >"$WORK/shard1-primary.log" 2>&1 &
P1PID=$!; PIDS+=("$P1PID")
wait_http "http://$H0/readyz"
wait_http "http://$H1/readyz"

"$WORK/mcqueue" -addr "$F1B" -http "$H1B" \
  -wal-dir "$WORK/s1" -wal-fsync always -lease-file "$WORK/s1.lease" \
  -log-format json >"$WORK/shard1-standby.log" 2>&1 &
SBPID=$!; PIDS+=("$SBPID")
sleep 1
curl -fsS "http://$H1B/readyz" >/dev/null 2>&1 &&
  fail "standby bound its HTTP port while the primary holds the lease"
grep -q "standby: waiting for shard lease" "$WORK/shard1-standby.log" ||
  fail "standby did not report blocking on the lease"

"$WORK/mcworker" -addr "$F0" -name shard0-worker -flush-chunks 1 \
  -log-format json >"$WORK/worker0.log" 2>&1 &
PIDS+=($!)
"$WORK/mcworker" -addr "$F1,$F1B" -name shard1-worker -flush-chunks 1 \
  -log-format json >"$WORK/worker1.log" 2>&1 &
PIDS+=($!)

"$WORK/mcgate" -http "$GW" -shard "$H0" -shard "$H1,$H1B" \
  -log-format json >"$WORK/mcgate.log" 2>&1 &
GWPID=$!; PIDS+=("$GWPID")
wait_http "http://$GW/readyz"

# The same submissions, now through the gateway. Content addressing must
# reproduce the reference IDs exactly.
for i in $(seq 1 $JOBS); do
  GID=$(curl -fsS -X POST "http://$GW/jobs" -d @"$WORK/job$i.json" |
    sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
  [ "$GID" = "${IDS[$i]}" ] ||
    fail "gateway minted id $GID for job $i, reference minted ${IDS[$i]}"
done

# Both shards must own part of the batch, or the kill proves nothing.
sub() { curl -fsS "http://$1/stats" | sed -n 's/.*"jobsSubmitted":\([0-9]*\).*/\1/p'; }
S0=$(sub "$H0"); S1=$(sub "$H1")
[ "${S0:-0}" -ge 1 ] && [ "${S1:-0}" -ge 1 ] ||
  fail "uneven routing: shard0=$S0 shard1=$S1 of $JOBS jobs"
echo "shard-smoke: routed $S0/$S1 jobs; SIGKILL shard 1 primary..."

# The failover: kill -9 the primary mid-run. The kernel drops its flock,
# the standby wakes holding the lease, replays the journal, binds its
# ports; the worker's dial rotation and the gateway's replica failover
# both land on it with no operator action.
kill -9 "$P1PID"
STATUS=0; wait "$P1PID" || STATUS=$?
P1PID=
[ "$STATUS" = 137 ] || fail "primary exited $STATUS, want 137 (SIGKILL)"

wait_http "http://$H1B/readyz"
grep -q "shard lease acquired" "$WORK/shard1-standby.log" ||
  fail "standby never logged taking the lease"
MET=$(curl -fsS "http://$H1B/metrics")
echo "$MET" | grep -Eq '^service_jobs_replayed_total [1-9]' ||
  fail "standby replayed no jobs from the journal"

# Zero accepted-job loss: every job completes through the gateway under
# its original ID, and every tally is byte-identical to the reference.
echo "shard-smoke: draining through the gateway..."
for i in $(seq 1 $JOBS); do
  wait_done "$GW" "${IDS[$i]}"
  curl -fsS "http://$GW/jobs/${IDS[$i]}/result" |
    sed 's/.*"tally"://' >"$WORK/gw-tally-$i.json"
  cmp -s "$WORK/ref-tally-$i.json" "$WORK/gw-tally-$i.json" ||
    fail "job ${IDS[$i]} tally differs from the reference run"
done

# The gateway must have noticed: requests to shard 1 failed over to the
# standby replica at least once.
GWMETRICS=$(curl -fsS "http://$GW/metrics") # not piped: grep -q would hang up on curl mid-scrape
echo "$GWMETRICS" | grep -Eq 'gateway_replica_failovers_total\{shard="1"\} [1-9]' ||
  fail "gateway recorded no replica failover for shard 1"

# The gateway holds no jobs and no results: a precision job runs through
# gateway 1, and a looser target over the same physics, submitted through
# gateway 2, is a physics hit on the shard that ran it — its owner by the
# job ID's leading bit (two key ranges; shard 1 is the standby by now).
echo "shard-smoke: precision job through gateway 1, looser target through gateway 2..."
"$WORK/mcgate" -http "$GW2" -shard "$H0" -shard "$H1,$H1B" \
  -log-format json >"$WORK/mcgate2.log" 2>&1 &
PIDS+=($!)
wait_http "http://$GW2/readyz"
go run ./scripts/genjob -relerr 0.05 -chunk 200 -seed 101 >"$WORK/tight.json"
go run ./scripts/genjob -relerr 0.3 -chunk 200 -seed 101 >"$WORK/loose.json"
PID=$(curl -fsS -X POST "http://$GW/jobs" -d @"$WORK/tight.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$PID" ] || fail "precision POST /jobs through gateway 1 returned no id"
wait_done "$GW" "$PID"
curl -fsS "http://$GW/jobs/$PID/result" | sed 's/.*"tally"://' >"$WORK/tight-tally.json"
HIT=$(curl -fsS -X POST "http://$GW2/jobs" -d @"$WORK/loose.json")
echo "$HIT" | grep -q '"cached":true' || fail "looser target not answered from a cache: $HIT"
HID=$(echo "$HIT" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
case "$PID" in [0-7]*) OWNER=$H0 ;; *) OWNER=$H1B ;; esac
SHMETRICS=$(curl -fsS "http://$OWNER/metrics")
echo "$SHMETRICS" | grep -q '^service_cache_hits_total{index="physics"} 1$' ||
  fail "the shard that ran $PID did not count the looser target as its physics hit"
fetch_hit() { # when: the hit's tally through gateway 2 is the precision run's
  curl -fsS "http://$GW2/jobs/$HID" | grep -q '"cacheHit":true' ||
    fail "gateway 2 has no status for hit $HID ($1)"
  curl -fsS "http://$GW2/jobs/$HID/result" | sed 's/.*"tally"://' >"$WORK/hit-tally.json"
  cmp -s "$WORK/tight-tally.json" "$WORK/hit-tally.json" ||
    fail "hit $HID fetched through gateway 2 ($1) differs from the run $PID"
}
fetch_hit "gateway 1 up"
kill -9 "$GWPID"; wait "$GWPID" 2>/dev/null || true
fetch_hit "gateway 1 killed"

# Everything left shuts down cleanly.
echo "shard-smoke: SIGTERM the fleet..."
kill -TERM "${PIDS[@]}" 2>/dev/null || true
for p in "${PIDS[@]}"; do
  [ "$p" = "${SBPID:-}" ] && continue
  wait "$p" 2>/dev/null || true
done
STATUS=0; wait "$SBPID" || STATUS=$?
[ "$STATUS" = 0 ] || fail "standby-turned-primary exited $STATUS on SIGTERM"

echo "shard-smoke: PASS"
