#!/usr/bin/env bash
# bvqserve's TCP front end must not grow with the number of connections it
# has served. An exited connection thread keeps its stack mapped until it
# is joined, so the accept loop joins finished handlers as it goes: after
# 2,000 sequential connect/help/close cycles VmSize must stay within 64 MiB
# of its value after the first cycle, `quit` must answer `ok`, and the
# server must exit 0.
#
# The server runs with one malloc arena. glibc otherwise gives a thread
# that starts while another still holds an arena a fresh one, reserving
# 64 MiB of address space each (up to 8 per core, reused, never touched),
# so VmSize would step up with connection timing rather than with leaks.
#
# Usage: tests/bvqserve_tcp_test.sh <bvqserve>

set -euo pipefail

bvqserve=$1
cycles=2000
slack_kib=$((64 * 1024))
tmp=$(mktemp -d)
pid=""
cleanup() {
  if [[ -n "$pid" ]]; then kill "$pid" 2> /dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT

MALLOC_ARENA_MAX=1 "$bvqserve" --port=0 2> "$tmp/err" &
pid=$!
port=""
for _ in $(seq 200); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$tmp/err")
  [[ -n "$port" ]] && break
  sleep 0.05
done
if [[ -z "$port" ]]; then
  echo "bvqserve never reported its port" >&2
  cat "$tmp/err" >&2
  exit 1
fi

vmsize_kib() { awk '/^VmSize:/ {print $2}' "/proc/$pid/status"; }

# One client: connect, send a line, read the first reply line, close.
request() {
  local reply
  exec 3<> "/dev/tcp/127.0.0.1/$port"
  printf '%s\n' "$1" >&3
  IFS= read -r reply <&3
  exec 3<&-
  printf '%s\n' "$reply"
}

first=$(request help)
if [[ "$first" != "ok help" ]]; then
  echo "help answered '$first'" >&2
  exit 1
fi
start=$(vmsize_kib)
for ((i = 1; i < cycles; i++)); do request help > /dev/null; done
# The accept loop wakes at least every 100 ms and joins on every wake.
sleep 0.3
end=$(vmsize_kib)
echo "VmSize after 1 connection: ${start} KiB; after ${cycles}: ${end} KiB"
if ((end - start > slack_kib)); then
  echo "VmSize grew by $(((end - start) / 1024)) MiB over ${cycles}" \
       "connections (finished handlers not joined?)" >&2
  exit 1
fi

reply=$(request quit)
if [[ "$reply" != ok* ]]; then
  echo "quit answered '$reply'" >&2
  exit 1
fi
rc=0
wait "$pid" || rc=$?
pid=""
if [[ $rc -ne 0 ]]; then
  echo "bvqserve exited $rc after quit" >&2
  exit 1
fi
echo "bvqserve_tcp_reap: ok"
