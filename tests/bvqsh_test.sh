#!/usr/bin/env bash
# Script-level checks of bvqsh, registered as ctests in tools/CMakeLists.txt
# next to the bvqsh target.
#
#   bvqsh_test.sh strict <bvqsh> <script>
#       Every command line of the script (all but comments, blank lines and
#       `quit`) is malformed: each must be reported as exactly one `error:`
#       line on stderr, and the shell must exit nonzero.
#   bvqsh_test.sh serve <bvqsh> <script>
#       The script evaluates N queries directly (`eval`), then serves the
#       same N in the same order under ids 1..N. Every served result block
#       must be ok, come out in id order, and carry a payload byte-identical
#       to the direct printout. A `serve` line answering `err`, or a result
#       block answering `error`, must fail the shell.
#   bvqsh_test.sh cold <bvqsh> <cold_script.py>
#       The seed-1 cold_fixpoints stream (4 rounds: 24 queries at domain
#       48) runs at threads 1 and 4, each with the answer cache on and off.
#       The answer lines (counts and rows, stats dropped) must be
#       byte-identical across the four runs.
#
# Run from the repo root (the scripts load data/*.bvq).
set -euo pipefail

mode=${1:?usage: bvqsh_test.sh strict|serve|cold <bvqsh> <script>}
bvqsh=${2:?missing bvqsh path}
script=${3:?missing script path}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "bvqsh_test ($mode): $1" >&2
  exit 1
}

case $mode in
  strict)
    expected=$(grep -cvE '^(#.*|quit|)$' "$script")
    rc=0
    "$bvqsh" "$script" > /dev/null 2> "$tmp/err" || rc=$?
    got=$(grep -c '^error:' "$tmp/err" || true)
    [[ $rc -ne 0 ]] || fail "exit status 0 despite malformed commands"
    if [[ $got -ne $expected ]]; then
      cat "$tmp/err" >&2
      fail "$got error lines for $expected malformed commands"
    fi
    echo "$expected malformed commands, $got errors"
    ;;
  serve)
    "$bvqsh" "$script" > "$tmp/out" || fail "exit status $?"
    # Direct payload: from a relation header to the next "  [" stats line.
    # Served payload: between "result <id> ok" and "end <id>".
    awk -v direct="$tmp/direct" -v served="$tmp/served" -v ids="$tmp/ids" '
      /^result [0-9]+ ok$/ { block = 1; print $2 > ids; next }
      block && /^end [0-9]+$/ { block = 0; print "--" > served; next }
      block { print > served; next }
      /^  [0-9]+ tuple\(s\), arity [0-9]+$/ { rel = 1 }
      rel && /^  \[/ { rel = 0; print "--" > direct; next }
      rel { print > direct }
    ' "$tmp/out"
    n=$(grep -c '^--$' "$tmp/direct" || true)
    [[ $n -gt 0 ]] || fail "no direct evals in $script"
    [[ "$(cat "$tmp/ids")" == "$(seq 1 "$n")" ]] ||
        fail "served ids $(tr '\n' ' ' < "$tmp/ids")are not 1..$n in order"
    diff "$tmp/direct" "$tmp/served" >&2 ||
        fail "served payloads differ from the direct printouts"
    printf 'serve close nosuch\nserve open e\nserve eval 1 e (x1) E(x1\n' \
        > "$tmp/bad.bvqsh"
    rc=0
    "$bvqsh" "$tmp/bad.bvqsh" > /dev/null 2> "$tmp/bad.err" || rc=$?
    [[ $rc -ne 0 ]] || fail "an err answer left the exit status 0"
    grep -q '^error: serve close nosuch: err close nosuch' "$tmp/bad.err" ||
        fail "err line not reported: $(cat "$tmp/bad.err")"
    grep -q '^error: serve eval 1 e .*: result 1 error ParseError' \
        "$tmp/bad.err" || fail "error block not reported: $(cat "$tmp/bad.err")"
    echo "$n served payloads byte-identical, in order; err answers fail"
    ;;
  cold)
    python3 "$script" 1 4 > "$tmp/cold.bvqsh"
    grep -qx 'threads 1' "$tmp/cold.bvqsh" &&
        grep -qx 'cache on' "$tmp/cold.bvqsh" ||
        fail "the cold script sets no 'threads 1' and 'cache on' lines"
    for threads in 1 4; do
      for cache in on off; do
        run=threads$threads.cache_$cache
        sed -e "s/^threads 1$/threads $threads/" \
            -e "s/^cache on$/cache $cache/" "$tmp/cold.bvqsh" > "$tmp/$run.bvqsh"
        "$bvqsh" "$tmp/$run.bvqsh" > "$tmp/$run.out" || fail "$run: exit status $?"
        # Answers: the count line and its rows; stats lines lead with "  [".
        grep -E '^  [0-9]+ tuple\(s\), arity [0-9]+$|^    ' "$tmp/$run.out" \
            > "$tmp/$run.answers" || true
        n=$(grep -c 'tuple(s)' "$tmp/$run.answers" || true)
        [[ $n -eq 24 ]] || fail "$run: $n answers for 24 queries"
        diff "$tmp/threads1.cache_on.answers" "$tmp/$run.answers" >&2 ||
            fail "$run answers differ from threads 1, cache on"
      done
    done
    echo "24 cold answers byte-identical at threads 1 and 4, cache on and off"
    ;;
  *)
    fail "unknown mode"
    ;;
esac
