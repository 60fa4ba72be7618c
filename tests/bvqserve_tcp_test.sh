#!/usr/bin/env bash
# bvqserve's TCP front end, driven over /dev/tcp.
#
# reap: the front end must not grow with the number of connections it has
# served. An exited connection thread keeps its stack mapped until it is
# joined, so the accept loop joins finished handlers as it goes: after
# 2,000 sequential connect/help/close cycles VmSize must stay within 64 MiB
# of its value after the first cycle, `quit` must answer `ok`, and the
# server must exit 0.
#
# The server runs with one malloc arena. glibc otherwise gives a thread
# that starts while another still holds an arena a fresh one, reserving
# 64 MiB of address space each (up to 8 per core, reused, never touched),
# so VmSize would step up with connection timing rather than with leaks.
#
# latency: over one connection, open a session on a 6-cycle and send 41
# sequential evals of the data/demo.bvqserve transitive-closure query,
# each waiting for its `end <id>`. The median round trip must stay under
# 20 ms. An eval answers in two sends (the ack, then the result block);
# without TCP_NODELAY the block waits for the client's delayed ACK, whose
# floor on Linux is 40 ms.
#
# Usage: tests/bvqserve_tcp_test.sh reap|latency <bvqserve> [server flags]

set -euo pipefail
export LC_ALL=C

mode=$1
bvqserve=$2
shift 2
tmp=$(mktemp -d)
pid=""
cleanup() {
  if [[ -n "$pid" ]]; then kill "$pid" 2> /dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT

MALLOC_ARENA_MAX=1 "$bvqserve" --port=0 "$@" 2> "$tmp/err" &
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

# One client: connect, send a line, read the first reply line, close.
request() {
  local reply
  exec 3<> "/dev/tcp/127.0.0.1/$port"
  printf '%s\n' "$1" >&3
  IFS= read -r reply <&3
  exec 3<&-
  printf '%s\n' "$reply"
}

reap() {
  local cycles=2000
  local slack_kib=$((64 * 1024))
  vmsize_kib() { awk '/^VmSize:/ {print $2}' "/proc/$pid/status"; }
  local first start end
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
}

latency() {
  local evals=41
  local limit_us=20000
  local query='(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)'
  local line
  exec 4<> "/dev/tcp/127.0.0.1/$port"
  # Sends one control line and requires its reply to start with `ok`.
  control() {
    printf '%s\n' "$1" >&4
    IFS= read -r -t 10 line <&4
    if [[ "$line" != ok* ]]; then
      echo "'$1' answered '$line'" >&2
      exit 1
    fi
  }
  control "open s k=3"
  control "domain s 6"
  control "rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;"
  local -a us=()
  local id t0 t1 ok
  for ((id = 1; id <= evals; id++)); do
    t0=${EPOCHREALTIME/./}
    printf 'eval %d s %s\n' "$id" "$query" >&4
    ok=0
    while IFS= read -r -t 10 line <&4; do
      [[ "$line" == "result $id ok" ]] && ok=1
      [[ "$line" == "end $id" ]] && break
    done
    t1=${EPOCHREALTIME/./}
    if [[ "$line" != "end $id" || $ok -ne 1 ]]; then
      echo "eval $id: no 'result $id ok' block ending in 'end $id'" >&2
      exit 1
    fi
    us+=($((t1 - t0)))
  done
  exec 4<&-
  local median
  median=$(printf '%s\n' "${us[@]}" | sort -n | sed -n "$((evals / 2 + 1))p")
  local min
  min=$(printf '%s\n' "${us[@]}" | sort -n | head -1)
  echo "eval round trip over ${evals} evals: median ${median} us, min ${min} us"
  if ((median >= limit_us)); then
    echo "median ${median} us is not under ${limit_us} us: result blocks" \
         "wait for the client's delayed ACK (TCP_NODELAY not set?)" >&2
    exit 1
  fi
}

case "$mode" in
  reap) reap ;;
  latency) latency ;;
  *)
    echo "usage: $0 reap|latency <bvqserve> [server flags]" >&2
    exit 2
    ;;
esac

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
echo "bvqserve_tcp_${mode}: ok"
