#!/usr/bin/env bash
# crash-smoke.sh — end-to-end smoke test of the crash-durable journal.
#
# Boots a real mcqueue with the write-ahead journal armed and a fault
# crashpoint set so the process SIGKILLs itself mid-run — after a journal
# append has been staged but before its fsync, the worst ordinary-crash
# window — then restarts it disarmed on the same journal directory and
# asserts, from the outside, what the durability contract promises: the
# restart replays the journal before /readyz flips, counts the job as
# replayed and not as submitted, the accepted job is still there under the
# SAME job ID it was accepted with, the job runs to completion through the
# worker's reconnect loop, and replay and a final SIGTERM each compact the
# journal, down to a snapshot at the end. The cheap always-on CI cousin
# of the full crash-chaos matrix in cmd/mcqueue's TestCrashChaosEndToEnd.
#
# Stdlib + curl only; run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

FLEET=127.0.0.1:19886
HTTP=127.0.0.1:18090

WORK=$(mktemp -d)
QPID= WPID=
cleanup() {
  [ -n "$WPID" ] && kill "$WPID" 2>/dev/null || true
  [ -n "$QPID" ] && kill "$QPID" 2>/dev/null || true
  wait 2>/dev/null || true
  if [ "${FAILED:-0}" != 0 ]; then
    echo "--- mcqueue log (crash run) ---"; cat "$WORK/mcqueue-crash.log" 2>/dev/null || true
    echo "--- mcqueue log (restart) ---"; cat "$WORK/mcqueue-restart.log" 2>/dev/null || true
    echo "--- mcworker log ---"; cat "$WORK/mcworker.log" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  FAILED=1
  echo "crash-smoke: FAIL: $*" >&2
  exit 1
}

wait_http() { # url: poll until 200 or give up
  for _ in $(seq 1 150); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  fail "timeout waiting for $1"
}

echo "crash-smoke: building..."
go build -o "$WORK" ./cmd/mcqueue ./cmd/mcworker
# Enough chunks that the armed append is mid-job, nowhere near the end.
go run ./scripts/genjob -photons 16000 -chunk 250 -seed 99 >"$WORK/job.json"

start_queue() { # logfile [extra env...]
  local log="$1"; shift
  # Tiny segments so the smoke run exercises rotation too, and a snapshot
  # every 2 chunks so the replay folds snapshots, not just raw records.
  env "$@" "$WORK/mcqueue" -addr "$FLEET" -http "$HTTP" \
    -wal-dir "$WORK/wal" -wal-fsync interval \
    -wal-segment-bytes 4096 -wal-snapshot-every 2 \
    -log-format json >"$log" 2>&1 &
  QPID=$!
}

# Run 1: armed to SIGKILL itself on the 3rd journal append — the accept
# record and one snapshot in, the second snapshot staged but unsynced. A
# clean run of this job appends about nine records (the accept, then a
# snapshot per worker batch that carries the count past 2, the last one
# final), so the 3rd is past the accept and well short of the end however
# the worker happens to batch.
echo "crash-smoke: starting armed mcqueue..."
start_queue "$WORK/mcqueue-crash.log" MC_CRASHPOINT=wal.post-append MC_CRASH_AFTER=3
wait_http "http://$HTTP/readyz"

"$WORK/mcworker" -addr "$FLEET" -name crash-worker \
  -log-format json >"$WORK/mcworker.log" 2>&1 &
WPID=$!

ID=$(curl -fsS -X POST "http://$HTTP/jobs" -d @"$WORK/job.json" |
  sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ID" ] || fail "POST /jobs returned no job id"
echo "crash-smoke: job $ID accepted; waiting for the crashpoint..."

# The crashpoint must kill the process, not let the job finish.
STATUS=0
wait "$QPID" || STATUS=$?
QPID=
[ "$STATUS" = 137 ] || fail "armed mcqueue exited with status $STATUS, want 137 (SIGKILL)"

# Run 2: disarmed, same journal, same ports. The worker is still running
# and reconnects on its own backoff.
echo "crash-smoke: restarting on the same journal..."
start_queue "$WORK/mcqueue-restart.log"
wait_http "http://$HTTP/readyz"

METRICS=$(curl -fsS "http://$HTTP/metrics")
echo "$METRICS" | grep -Eq '^wal_replay_records_total [1-9]' ||
  fail "restart replayed no journal records: $(echo "$METRICS" | grep '^wal_' || echo '<no wal series>')"
echo "$METRICS" | grep -q '^service_jobs_replayed_total 1$' ||
  fail "restart did not replay exactly the 1 accepted job"
echo "$METRICS" | grep -q '^service_jobs_submitted_total 0$' ||
  fail "restart counted its replayed job as a submission"

# The job must survive under its original ID — a kill must not re-key it.
curl -fsS "http://$HTTP/jobs/$ID" >/dev/null ||
  fail "job $ID lost across the crash: $(curl -fsS "http://$HTTP/jobs")"

echo "crash-smoke: waiting for the replayed job to finish..."
for _ in $(seq 1 300); do
  STATE=$(curl -fsS "http://$HTTP/jobs/$ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$STATE" = done ] && break
  sleep 0.2
done
[ "$STATE" = done ] || fail "replayed job stuck in state '$STATE'"
curl -fsS "http://$HTTP/jobs/$ID/result" | grep -q '"tally"' ||
  fail "replayed job has no result"

# SIGTERM: the shutdown pass is a final compaction — the journal must
# shrink to one compacted segment holding the finished job's snapshot. The
# restart compacts twice: once when replay ends, once at SIGTERM.
echo "crash-smoke: SIGTERM compaction..."
kill -TERM "$QPID"
STATUS=0
wait "$QPID" || STATUS=$?
QPID=
[ "$STATUS" = 0 ] || fail "mcqueue exited $STATUS on SIGTERM"
COMPACTIONS=$(grep -c '"msg":"wal: compacted"' "$WORK/mcqueue-restart.log" || true)
[ "$COMPACTIONS" = 2 ] ||
  fail "restart compacted the journal $COMPACTIONS times, want 2 (replay, then SIGTERM)"
SEGS=$(ls "$WORK/wal"/wal-*.log | wc -l)
[ "$SEGS" = 1 ] || fail "journal left $SEGS segments after compaction, want 1"

echo "crash-smoke: PASS"
