#!/usr/bin/env bash
# End-to-end metrics smoke check: start excess_server, run a handful of
# queries through excess_client, scrape \metrics twice, and assert the
# key series are present and monotone. Used by CI after the build; runs
# against ./build by default:
#
#   tools/check_metrics.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/src/excess_server"
CLIENT="$BUILD_DIR/src/excess_client"
PORT="${EXODUS_CHECK_PORT:-40877}"

[ -x "$SERVER" ] || { echo "missing $SERVER (build first)"; exit 1; }
[ -x "$CLIENT" ] || { echo "missing $CLIENT (build first)"; exit 1; }

"$SERVER" --port "$PORT" --workers 2 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null; wait "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the listener.
for _ in $(seq 1 50); do
  if echo '\quit' | "$CLIENT" "127.0.0.1:$PORT" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

run_client() {
  "$CLIENT" "127.0.0.1:$PORT" 2>&1
}

# Series value from an exposition dump; labels are part of the name.
# Anchored at line start so `# TYPE name counter` headers never match.
metric() {
  local dump="$1" name="$2"
  printf '%s\n' "$dump" |
    awk -v n="$name " 'index($0, n) == 1 { print $NF; found = 1; exit }
                       END { if (!found) print "MISSING" }'
}

echo "--- loading workload"
run_client <<'EOF' >/dev/null
define type Employee (name: char[25], dept_id: int4);
create Employees : {Employee};
append to Employees (name = "ann", dept_id = 1);
append to Employees (name = "bob", dept_id = 2);
retrieve (E.name) from E in Employees;
EOF

SCRAPE1=$(printf '\\metrics\n' | run_client | grep -E '^(#|exodus_)')

echo "--- second query batch"
run_client <<'EOF' >/dev/null
retrieve (E.name) from E in Employees where E.dept_id = 1;
retrieve (E.name) from E in Employees;
EOF

SCRAPE2=$(printf '\\metrics\n' | run_client | grep -E '^(#|exodus_)')

fail=0
check_present() {
  local name="$1"
  if ! printf '%s\n' "$SCRAPE2" | grep -qF "$name"; then
    echo "FAIL: series '$name' missing from exposition"
    fail=1
  else
    echo "ok: $name present"
  fi
}
check_monotone() {
  local name="$1"
  local v1 v2
  v1=$(metric "$SCRAPE1" "$name")
  v2=$(metric "$SCRAPE2" "$name")
  if [ "$v1" = "MISSING" ] || [ "$v2" = "MISSING" ]; then
    echo "FAIL: cannot read '$name' ($v1 -> $v2)"
    fail=1
  elif [ "$v2" -lt "$v1" ]; then
    echo "FAIL: '$name' went backwards ($v1 -> $v2)"
    fail=1
  else
    echo "ok: $name monotone ($v1 -> $v2)"
  fi
}
check_increased() {
  local name="$1"
  local v1 v2
  v1=$(metric "$SCRAPE1" "$name")
  v2=$(metric "$SCRAPE2" "$name")
  if [ "$v1" = "MISSING" ] || [ "$v2" = "MISSING" ] || [ "$v2" -le "$v1" ]; then
    echo "FAIL: '$name' did not increase ($v1 -> $v2)"
    fail=1
  else
    echo "ok: $name increased ($v1 -> $v2)"
  fi
}

# Every metric family must be registered exactly once: a duplicate
# `# TYPE` header means two call sites registered the same series and
# Prometheus will reject the scrape.
DUPES=$(printf '%s\n' "$SCRAPE2" | grep '^# TYPE ' | sort | uniq -d)
if [ -n "$DUPES" ]; then
  echo "FAIL: duplicate # TYPE families in exposition:"
  printf '%s\n' "$DUPES"
  fail=1
else
  echo "ok: no duplicate # TYPE families"
fi

check_present 'exodus_server_connections_total'
check_present 'exodus_server_latency_us_count'
check_present 'exodus_plan_cache_misses_total'
check_present 'exodus_operator_rows_total{op="hash_join"}'
check_present 'exodus_statement_latency_us_bucket'
# Wait-event profile: every class is registered up front, and the
# connection-thread events must actually move under wire traffic.
for ev in mvcc_writer_latch mvcc_exclusive_lock wal_fsync wal_group_commit \
          thread_pool_queue server_send client_read; do
  check_present "exodus_wait_events_total{event=\"$ev\"}"
  check_present "exodus_wait_time_us_count{event=\"$ev\"}"
done
check_increased 'exodus_wait_events_total{event="client_read"}'
check_increased 'exodus_wait_events_total{event="server_send"}'

check_monotone 'exodus_server_errors_total'
check_monotone 'exodus_statement_errors_total'
check_increased 'exodus_server_queries_total'
check_increased 'exodus_statements_total'
check_increased 'exodus_operator_rows_total{op="scan"}'
check_increased 'exodus_server_connections_total'

if [ "$fail" -ne 0 ]; then
  echo "metrics check FAILED"
  exit 1
fi
echo "metrics check passed"
