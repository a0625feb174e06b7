#!/usr/bin/env bash
# Loopback parity proof for the socket transport (docs/transport.md), all
# through one binary, anonet_campaign, in its three roles:
#
#   1. run the smoke grid in-process as the reference,
#   2. run it through a --listen coordinator at 1, 2, and 4 --connect
#      worker processes,
#   3. run it distributed with one worker killed after its first cell,
#   4. run the faults grid in-process and distributed at 2 workers,
#   5. split the smoke grid's 2 shards between an in-process run and a
#      coordinator with one worker, both writing one file,
#
# and require every distributed output to be byte-identical to its
# reference. Then
#
#   6. resume table1 from a file with one record's "exact" flipped, in
#      process and through a coordinator (which finds nothing pending and
#      starts no worker): each must exit 1 (the records no longer match
#      the paper) and write the same bytes.
#
# Usage: scripts/net_loopback_smoke.sh [BUILD_DIR] (default: build). Exits
# non-zero on the first mismatch or tool failure.
set -euo pipefail

BUILD_DIR="${1:-build}"
CAMPAIGN="$BUILD_DIR/tools/anonet_campaign"

if [[ ! -x "$CAMPAIGN" ]]; then
  echo "net_loopback_smoke: missing $CAMPAIGN (build first)" >&2
  exit 2
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/anonet_net.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "== reference: in-process run of grid 'smoke'"
"$CAMPAIGN" --grid smoke --out "$WORK/ref.jsonl" --quiet >/dev/null

# run_distributed OUT NWORKERS FIRST_WORKER_FLAGS [COORDINATOR_FLAGS...]:
# a coordinator writing OUT on an ephemeral loopback port, and NWORKERS
# workers; FIRST_WORKER_FLAGS (word-split, may be empty) go to the first
# worker. Returns the coordinator's exit status.
run_distributed() {
  local out="$1" workers="$2"
  local -a first_flags
  read -r -a first_flags <<<"$3"
  shift 3
  local port_file="$out.port"
  rm -f "$port_file"
  "$CAMPAIGN" --listen 127.0.0.1:0 --port-file "$port_file" \
              --workers "$workers" --out "$out" --quiet "$@" >/dev/null &
  local coord_pid=$!
  # The coordinator writes the port file only after the listener is bound.
  for _ in $(seq 1 200); do
    [[ -s "$port_file" ]] && break
    sleep 0.05
  done
  [[ -s "$port_file" ]] || { echo "coordinator never bound" >&2; exit 1; }
  local port
  port="$(cat "$port_file")"
  local worker_pids=()
  for ((w = 0; w < workers; ++w)); do
    if [[ $w -eq 0 ]]; then
      "$CAMPAIGN" --connect "127.0.0.1:$port" "${first_flags[@]}" >/dev/null &
    else
      "$CAMPAIGN" --connect "127.0.0.1:$port" >/dev/null &
    fi
    worker_pids+=($!)
  done
  local status=0
  wait "$coord_pid" || status=$?
  # Workers exit 0 both on clean shutdown and deliberate abandonment.
  wait "${worker_pids[@]}"
  return "$status"
}

for n in 1 2 4; do
  echo "== distributed: $n worker process(es)"
  run_distributed "$WORK/net$n.jsonl" "$n" "" --grid smoke
  cmp "$WORK/ref.jsonl" "$WORK/net$n.jsonl" || {
    echo "net_loopback_smoke: $n-worker output differs from reference" >&2
    exit 1
  }
done

echo "== distributed: 2 workers, one killed after its first cell"
run_distributed "$WORK/kill.jsonl" 2 "--abandon-after 1" --grid smoke
cmp "$WORK/ref.jsonl" "$WORK/kill.jsonl" || {
  echo "net_loopback_smoke: worker-kill output differs from reference" >&2
  exit 1
}

echo "== faults grid: in-process and 2 worker processes"
"$CAMPAIGN" --grid faults --out "$WORK/faults_ref.jsonl" --quiet >/dev/null
run_distributed "$WORK/faults_net.jsonl" 2 "" --grid faults
cmp "$WORK/faults_ref.jsonl" "$WORK/faults_net.jsonl" || {
  echo "net_loopback_smoke: faults output differs from reference" >&2
  exit 1
}

echo "== mixed dispatch: shard 0 of 2 in-process, shard 1 through 1 worker"
"$CAMPAIGN" --grid smoke --shards 2 --shard-index 0 \
            --out "$WORK/mixed.jsonl" --quiet >/dev/null
run_distributed "$WORK/mixed.jsonl" 1 "" --grid smoke --shards 2 \
                --shard-index 1
cmp "$WORK/ref.jsonl" "$WORK/mixed.jsonl" || {
  echo "net_loopback_smoke: mixed-dispatch output differs from reference" >&2
  exit 1
}

echo "== doctored table1 resume: both dispatch modes must fail it"
"$CAMPAIGN" --grid table1 --out "$WORK/table1.jsonl" --quiet >/dev/null
# The first outdegree-aware/none/average record loses its "exact" flag; the
# line still parses, so resume keeps it instead of recomputing the cell.
awk '!done && /"model":"outdegree-aware","knowledge":"none","function":"average"/ {
       sub(/"exact":true/, "\"exact\":false"); done = 1
     }
     { print }' "$WORK/table1.jsonl" >"$WORK/doctored.jsonl"
if cmp -s "$WORK/table1.jsonl" "$WORK/doctored.jsonl"; then
  echo "net_loopback_smoke: found no record to doctor" >&2
  exit 1
fi
cp "$WORK/doctored.jsonl" "$WORK/doctored_in_process.jsonl"
cp "$WORK/doctored.jsonl" "$WORK/doctored_listen.jsonl"
status=0
"$CAMPAIGN" --grid table1 --out "$WORK/doctored_in_process.jsonl" --quiet \
  >/dev/null || status=$?
if [[ $status -ne 1 ]]; then
  echo "net_loopback_smoke: in-process run exited $status on a doctored" \
       "resume (want 1)" >&2
  exit 1
fi
# Every record resumes, so the coordinator returns without a worker.
status=0
"$CAMPAIGN" --listen 127.0.0.1:0 --grid table1 \
  --out "$WORK/doctored_listen.jsonl" --quiet >/dev/null || status=$?
if [[ $status -ne 1 ]]; then
  echo "net_loopback_smoke: coordinator exited $status on a doctored" \
       "resume (want 1)" >&2
  exit 1
fi
cmp "$WORK/doctored_in_process.jsonl" "$WORK/doctored_listen.jsonl" || {
  echo "net_loopback_smoke: doctored resumes wrote different bytes" >&2
  exit 1
}

echo "net_loopback_smoke: all distributed outputs byte-identical to the"
echo "in-process reference (smoke at 1, 2, 4 workers, with one killed, and"
echo "split across both dispatch modes; faults at 2); both dispatch modes"
echo "fail a doctored table1 resume"
