#!/usr/bin/env bash
# An answer of n^k tuples costs its cube, not its rows: `(x1,x2,x3) true` at
# domain 512 has 134,217,728 answers (a 16 MiB cube; the rows alone would be
# 1.5 GiB). bvqserve and bvqsh must each print the count, the first 20 rows
# and the overflow marker within 30 s under a 1,000,000 KiB address-space
# limit, and exit 0. Registered as a ctest in tests/CMakeLists.txt.
#
#   big_answer_test.sh <bvqserve> <bvqsh> [<sanitizer>]
#
# Every thread reserves its stack in the address space, so both run one
# evaluator thread (and bvqserve one executor lane): the limit then bounds
# the answer's memory whatever the host's core count. A sanitized build
# reserves terabytes of shadow address space, so with a sanitizer named the
# limit is not set (the count and rows are still checked).
set -euo pipefail

bvqserve=${1:?usage: big_answer_test.sh <bvqserve> <bvqsh> [<sanitizer>]}
bvqsh=${2:?missing bvqsh path}
sanitizer=${3:-}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "big_answer_test: $1" >&2
  exit 1
}

# The payload both must print: header, rows (0,0,0)..(0,0,19), marker.
{
  echo "  134217728 tuple(s), arity 3"
  for i in $(seq 0 19); do echo "    (0,0,$i)"; done
  echo "    ... (134217708 more)"
} > "$tmp/want"

printf '%s\n' 'open s1 k=3 threads=1' 'domain s1 512' \
    'eval 1 s1 (x1,x2,x3) true' drain quit > "$tmp/serve.in"
printf '%s\n' 'k 3' 'threads 1' 'domain 512' 'eval (x1,x2,x3) true' \
    > "$tmp/shell.in"

run() {
  local name=$1
  shift
  local rc=0
  (
    if [[ -z "$sanitizer" ]]; then ulimit -v 1000000; fi
    exec timeout 30 "$@"
  ) > "$tmp/$name.out" 2> "$tmp/$name.err" || rc=$?
  if [[ $rc -ne 0 ]]; then
    cat "$tmp/$name.err" >&2
    fail "$name exited $rc"
  fi
}

run bvqserve "$bvqserve" --lanes=1 "$tmp/serve.in"
sed -n '/^result 1 ok$/,/^end 1$/p' "$tmp/bvqserve.out" | sed '1d;$d' \
    > "$tmp/served"
diff "$tmp/want" "$tmp/served" >&2 || fail "bvqserve payload differs"

run bvqsh "$bvqsh" "$tmp/shell.in"
grep -E '^  [0-9]+ tuple|^    ' "$tmp/bvqsh.out" > "$tmp/direct" || true
diff "$tmp/want" "$tmp/direct" >&2 || fail "bvqsh printout differs"

echo "134217728 answers served and printed under the limit"
