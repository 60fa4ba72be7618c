#!/usr/bin/env bash
# Checks of the record benches (bench/bench_common.h), registered as ctests
# in bench/CMakeLists.txt.
#
#   bench_record_test.sh smoke <bench> <out> [flags...]
#       The bench, run with --out=<out>, must exit 0 (every gate held) and
#       leave a record that parses as JSON.
#   bench_record_test.sh rejects <bench> [flags...]
#       The bench must exit 1 with a usage line on stderr.
set -euo pipefail

mode=${1:?usage: bench_record_test.sh smoke|rejects <bench> ...}
bench=${2:?missing bench path}
shift 2

fail() {
  echo "bench_record_test ($mode): $1" >&2
  exit 1
}

case $mode in
  smoke)
    out=${1:?missing record path}
    shift
    rm -f "$out"
    "$bench" --out="$out" "$@" || fail "$bench exited with $?"
    python3 -m json.tool "$out" > /dev/null || fail "$out does not parse"
    echo "record $out written and parses"
    ;;
  rejects)
    rc=0
    err=$("$bench" "$@" 2>&1 > /dev/null) || rc=$?
    echo "$err"
    [[ $rc -eq 1 ]] || fail "exit status $rc for $*, expected 1"
    grep -q '^usage: ' <<< "$err" || fail "no usage line for $*"
    ;;
  *)
    fail "unknown mode"
    ;;
esac
