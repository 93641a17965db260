#!/usr/bin/env bash
# Kill-and-restart smoke run of stream_daemon on one codec spool.
#
#   1. Start the supervised daemon: checkpoints every 5 bins (keep 2),
#      JSONL events, the metrics endpoint on an ephemeral port, and a
#      serve window after the drain.
#   2. When the first worker has drained the spool, scrape /metrics,
#      /healthz, /alerts and /events/recent, then SIGKILL the worker in
#      its serve window.
#   3. The supervisor restarts it from the newest checkpoint. When the
#      restarted worker has drained too, scrape its /metrics.
#   4. Require equal tfd_*_total record, bin, anomaly and quarantine
#      counters on both sides, supervisor exit 0, 2 checkpoint files,
#      and an event log that validates across the restart.
#
# Usage: scripts/daemon_recovery_smoke.sh DAEMON SPOOL WORKDIR BINS
#            [extra daemon flags...]
# BINS is the number of bins the spool holds. Exits non-zero on the
# first failed check, after printing the daemon's log.
set -euo pipefail

daemon=$1 spool=$2 work=$3 bins=$4
shift 4
scripts=$(cd "$(dirname "$0")" && pwd)
log="$work/daemon.log"
rm -rf "$work"
mkdir -p "$work"

fail() {
  cat "$log" >&2
  echo "recovery smoke: $*" >&2
  exit 1
}

"$daemon" "$spool" --checkpoint-dir="$work/ckpt" \
  --checkpoint-every-bins=5 --checkpoint-keep=2 \
  --supervise --max-restarts=1 --watchdog-secs=120 \
  --events="$work/events.jsonl" --metrics-port=0 --serve-secs=20 \
  "$@" > "$log" 2>&1 &
supervisor=$!

# Wait (at most 60 s) until the log holds N lines matching PATTERN.
wait_lines() {
  local n=$1 pattern=$2
  for _ in $(seq 1 600); do
    [ "$(grep -c -- "$pattern" "$log" || true)" -ge "$n" ] && return 0
    sleep 0.1
  done
  fail "timed out waiting for $n line(s) matching '$pattern'"
}

# Scrape worker N (1 = first, 2 = restarted) once it has drained: it
# prints its serve-window line after the final metrics sync.
scrape() {
  local n=$1 port
  wait_lines "$n" 'endpoint stays up'
  port=$(sed -n 's/.*serving.*127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$log" |
    sed -n "${n}p")
  [ -n "$port" ] || fail "worker $n printed no serving port"
  curl -fsS "http://127.0.0.1:$port/metrics" > "$work/metrics.$n.txt"
  grep -q "^tfd_bins_emitted_total $bins\$" "$work/metrics.$n.txt" ||
    fail "worker $n: /metrics does not read $bins bins"
  grep -E '^tfd_(records_in|records_accumulated|records_late|bins_emitted|anomalies|frames_quarantined|records_lost_corrupt)_total ' \
    "$work/metrics.$n.txt" | sort > "$work/counters.$n.txt"
  echo "$port"
}

port=$(scrape 1)
grep -Eq '^tfd_records_in_total [1-9][0-9]*$' "$work/metrics.1.txt" ||
  fail "no records in"
grep -q 'tfd_stage_bin_close_seconds_bucket{le="+Inf"}' "$work/metrics.1.txt" ||
  fail "no bin-close histogram"
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q '"bins_emitted"' ||
  fail "/healthz"
curl -fsS "http://127.0.0.1:$port/alerts" | grep -q '"alerts_total"' ||
  fail "/alerts"
curl -fsS "http://127.0.0.1:$port/events/recent" |
  grep -q '"type":"bin_closed"' || fail "/events/recent"

pkill -9 -P "$supervisor"
scrape 2 > /dev/null
status=0
wait "$supervisor" || status=$?
[ "$status" -eq 0 ] || fail "supervisor exited $status"
grep -q 'restored .*checkpoint-' "$log" ||
  fail "the restarted worker restored no checkpoint"
diff "$work/counters.1.txt" "$work/counters.2.txt" ||
  fail "counters differ across the restart"
count=$(ls "$work"/ckpt/checkpoint-*.tfss | wc -l)
[ "$count" -eq 2 ] || fail "$count checkpoint files, expected 2"
python3 "$scripts/validate_events.py" "$work/events.jsonl" ||
  fail "event log does not validate across the restart"
grep -E 'resume:|quarantine  ' "$log"
cat "$work/counters.2.txt"
echo "recovery smoke: counters equal across the restart"
