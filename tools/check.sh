#!/usr/bin/env bash
# Tier-1 verification: build + ctest, plain and under ThreadSanitizer and
# AddressSanitizer+UBSan.
#
# Usage: tools/check.sh [--tsan-only|--plain-only|--asan-only|--list]
#        tools/check.sh --smoke <name> <build-dir>
#
# The TSan pass builds with -DBVQ_SANITIZE=thread and runs the test suite
# with BVQ_THREADS=4 so the auto thread count exercises the parallel
# kernels; any data race in the evaluation layer fails the run. The ASan
# pass builds with -DBVQ_SANITIZE=address,undefined. Each tier's ctest
# includes a small-n smoke of every record bench (bench/CMakeLists.txt), so
# their identity and hit gates run under both sanitizers too.
#
# Each tier's ctest also runs the seven serving smokes below, one ctest
# each (smoke_<name>, tests/CMakeLists.txt), through `--smoke <name>
# <build-dir>`, which runs one smoke against the binaries of <build-dir>.
#
# The resource-governor smoke: a PFP binary counter that needs >1 s
# ungoverned must come back as a clean DeadlineExceeded under
# --deadline-ms=10 (nonzero exit, error on stderr, seconds not minutes of
# wall time), and a governed run under a generous memory budget must print
# byte-identical answers to the ungoverned run.
#
# The serving-layer smoke (see serve_smoke below): 8 concurrent bvqserve
# sessions, one over-budget admission rejection, one remote cancellation,
# and a shutdown that must leak neither sessions nor reserved admission
# bytes.
#
# The sharded serving smoke (see shard_smoke below): a 2-shard bvqserve
# router fork/execs real worker processes, splits the admission budget
# across the fleet, and must reject an over-reserving session on its own
# shard while sessions on both shards keep serving.
#
# The batch-planner smoke (see batch_smoke below): an 8-query overlapping
# batch through bvqserve must report dedup > 1 on its `ok batch ... end`
# line and answer every query byte-identically to a cache-off serial run of
# the same queries — both direct and through a 2-shard router (batches are
# session-affine, so routing must not change a single byte).
#
# The nesting and long-line smoke (see deep_smoke below): the formulas that
# used to overflow the stack come back as one ParseError each while the
# session keeps answering, direct and routed; the same shapes at the depth
# limit still evaluate on that tier's stack; an endless TCP line gets `err
# line too long` while other connections keep serving; and bvqsh drives its
# in-process server through `serve`.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

# Emits a bvqsh script for the PFP binary-counter orbit over a strict order
# on {0..n-1}: the pfp stage sequence enumerates all 2^n subsets before
# cycling, so Floyd mode at n=18 runs for seconds — the deadline workload —
# while hash mode at n=10 finishes instantly — the budget-identity workload.
gen_counter() {
  local n=$1 mode=$2 pairs="" i j
  for ((i = 0; i < n; i++)); do
    for ((j = i + 1; j < n; j++)); do pairs+=" $i $j ;"; done
  done
  printf 'domain %s\nrel Lt/2%s\nk 2\npfp %s\n' "$n" "$pairs" "$mode"
  printf 'eval (x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)\n'
}

# Prints the payload of the `result <id> ok` block in bvqserve output <file>.
payload() {
  awk -v id="$2" '$0 == "end " id {p=0} p {print} $0 == "result " id " ok" {p=1}' \
      "$1"
}

resource_smoke() {
  local bvqsh="$1/tools/bvqsh" tmp rc=0 start end wall_ms
  tmp=$(mktemp -d)
  echo "== resource governor smoke ($bvqsh) =="
  gen_counter 18 floyd > "$tmp/deadline.bvq"
  start=$(date +%s%N)
  "$bvqsh" --deadline-ms=10 "$tmp/deadline.bvq" \
      > "$tmp/deadline.out" 2> "$tmp/deadline.err" || rc=$?
  end=$(date +%s%N)
  wall_ms=$(( (end - start) / 1000000 ))
  if [[ $rc -eq 0 ]]; then
    echo "deadline smoke: expected a nonzero exit" >&2; exit 1
  fi
  if ! grep -q "DeadlineExceeded" "$tmp/deadline.err"; then
    echo "deadline smoke: no DeadlineExceeded on stderr" >&2
    cat "$tmp/deadline.err" >&2; exit 1
  fi
  # Generous bound: the cut itself is ~10 ms; the rest is process startup
  # and (sanitized) library overhead. A hang or a full 2^18-stage run blows
  # straight past this.
  if [[ $wall_ms -ge 5000 ]]; then
    echo "deadline smoke: took ${wall_ms} ms (governor not cutting?)" >&2
    exit 1
  fi
  echo "   deadline cut after ${wall_ms} ms wall (DeadlineExceeded)"

  gen_counter 10 hash > "$tmp/budget.bvq"
  # Timing/stats lines lead with "  [" and are the only permitted diff.
  "$bvqsh" "$tmp/budget.bvq" | grep -v '^  \[' > "$tmp/plain.txt"
  "$bvqsh" --mem-budget-mb=512 --stats "$tmp/budget.bvq" \
      | grep -v '^  \[' > "$tmp/gov.txt"
  if ! diff "$tmp/plain.txt" "$tmp/gov.txt"; then
    echo "budget smoke: governed output differs from ungoverned" >&2
    exit 1
  fi
  echo "   governed answers byte-identical under a generous budget"
  rm -rf "$tmp"
}

# Serving-layer smoke: 8 concurrent sessions evaluate through one bvqserve
# under an aggregate budget, one session's reserve exceeds the whole budget
# (must come back ResourceExhausted while the others complete), one long PFP
# counter is cancelled remotely (must come back Cancelled), and after the
# drain + closes the final stats line must report zero sessions and zero
# reserved bytes — no leaked sessions, no leaked admission budget.
serve_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc=0 s i j
  tmp=$(mktemp -d)
  echo "== serving layer smoke ($bvqserve) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  { printf 'domain 18\nrel Lt/2'
    for ((i = 0; i < 18; i++)); do
      for ((j = i + 1; j < 18; j++)); do printf ' %d %d ;' "$i" "$j"; done
    done
    printf '\n'; } > "$tmp/order.bvq"
  {
    for ((s = 0; s < 8; s++)); do
      printf 'open s%d k=3 reserve-mb=16\n' "$s"
      printf 'load s%d %s/cycle.bvq\n' "$s" "$tmp"
    done
    printf 'open big k=3 reserve-mb=512\n'
    printf 'open slow k=2 reserve-mb=16\n'
    printf 'load slow %s/order.bvq\n' "$tmp"
    for ((s = 0; s < 8; s++)); do
      printf 'eval %d s%d (x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)\n' \
          "$((s + 1))" "$s"
    done
    printf 'eval 100 big (x1,x2) E(x1,x2)\n'
    printf 'eval 200 slow (x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)\n'
    printf 'cancel 200\n'
    printf 'drain\n'
    for ((s = 0; s < 8; s++)); do printf 'close s%d\n' "$s"; done
    printf 'close big\nclose slow\nstats\nquit\n'
  } > "$tmp/script.bvqserve"
  "$bvqserve" --aggregate-mb=256 --max-concurrent=16 "$tmp/script.bvqserve" \
      > "$tmp/out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "serve smoke: bvqserve exited with $rc" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  for ((s = 1; s <= 8; s++)); do
    if ! grep -q "^result $s ok$" "$tmp/out"; then
      echo "serve smoke: session eval $s did not complete ok" >&2
      cat "$tmp/out" >&2; exit 1
    fi
  done
  if ! grep -q "^result 100 error ResourceExhausted$" "$tmp/out"; then
    echo "serve smoke: over-budget reserve was not rejected" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q "^result 200 error Cancelled$" "$tmp/out"; then
    echo "serve smoke: remote cancel did not come back Cancelled" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q "^stats sessions=0 active=0 queue=0 reserved_bytes=0 " "$tmp/out"; then
    echo "serve smoke: shutdown leaked sessions or admission budget" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  echo "   8 concurrent sessions ok, over-budget rejected, remote cancel clean"
  rm -rf "$tmp"
}

# Sharded serving smoke: a 2-shard router (fork/exec of real worker
# processes) with the aggregate budget split across the fleet. Sessions land
# on both shards (FNV-1a placement: s0,s2 → shard 0; s1,s3,big → shard 1);
# the over-reserving session must be rejected by its own shard's budget
# while every other session — including the ones sharing its shard — keeps
# serving, the consolidated stats must report a clean fleet-wide zero after
# the closes, and the router must exit 0 (clean worker shutdown, no hang).
shard_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc=0 s i
  tmp=$(mktemp -d)
  echo "== sharded serving smoke ($bvqserve) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  {
    for ((s = 0; s < 4; s++)); do
      printf 'open s%d k=3 reserve-mb=16\n' "$s"
      printf 'load s%d %s/cycle.bvq\n' "$s" "$tmp"
    done
    printf 'open big k=3 reserve-mb=512\n'
    for ((s = 0; s < 4; s++)); do
      printf 'eval %d s%d (x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)\n' \
          "$((s + 1))" "$s"
    done
    printf 'eval 100 big (x1,x2) E(x1,x2)\n'
    printf 'drain\n'
    for ((s = 0; s < 4; s++)); do printf 'close s%d\n' "$s"; done
    printf 'close big\nstats\nquit\n'
  } > "$tmp/script.bvqserve"
  "$bvqserve" --shards=2 --aggregate-mb=64 --max-concurrent=8 \
      "$tmp/script.bvqserve" > "$tmp/out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "shard smoke: bvqserve exited with $rc" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  for ((s = 1; s <= 4; s++)); do
    if ! grep -q "^result $s ok$" "$tmp/out"; then
      echo "shard smoke: eval $s did not complete ok" >&2
      cat "$tmp/out" >&2; exit 1
    fi
  done
  if ! grep -q "^result 100 error ResourceExhausted$" "$tmp/out"; then
    echo "shard smoke: over-budget reserve was not rejected by its shard" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q "^stats sessions=0 active=0 queue=0 reserved_bytes=0 " "$tmp/out"; then
    echo "shard smoke: shutdown leaked sessions or admission budget" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q " shards=2 up=2$" "$tmp/out"; then
    echo "shard smoke: consolidated stats missing shards=2 up=2" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  echo "   2-shard router ok, per-shard rejection clean, fleet stats zeroed"
  rm -rf "$tmp"
}

# Batch-planner smoke: 8 overlapping queries (two structural shapes built
# around one shared path subformula, repeated) go through `batch begin /
# eval / end` on one bvqserve session. The `ok batch ... end` summary must
# report a dedup ratio strictly above 1 — the planner found the sharing —
# and every per-id result block must be byte-identical to a cache-off
# serial run of the same queries, both against the server directly and
# through a 2-shard router (batches are session-affine).
batch_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc=0 i dedup mode
  local qa='(x1,x2) exists x3 . (E(x1,x3) & E(x3,x2))'
  local qb='(x1,x2) exists x3 . (E(x1,x3) & E(x3,x2)) | E(x1,x2)'
  tmp=$(mktemp -d)
  echo "== batch planner smoke ($bvqserve) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  {
    printf 'open b k=3\n'
    printf 'load b %s/cycle.bvq\n' "$tmp"
    printf 'batch b begin\n'
    for ((i = 1; i <= 8; i++)); do
      if (( i % 2 )); then printf 'batch b eval %d %s\n' "$i" "$qa"
      else printf 'batch b eval %d %s\n' "$i" "$qb"; fi
    done
    printf 'batch b end\ndrain\nclose b\nquit\n'
  } > "$tmp/batch.bvqserve"
  {
    printf 'open s k=3 cache=0\n'
    printf 'load s %s/cycle.bvq\n' "$tmp"
    for ((i = 1; i <= 8; i++)); do
      if (( i % 2 )); then printf 'eval %d s %s\n' "$i" "$qa"
      else printf 'eval %d s %s\n' "$i" "$qb"; fi
    done
    printf 'drain\nclose s\nquit\n'
  } > "$tmp/serial.bvqserve"
  "$bvqserve" "$tmp/serial.bvqserve" > "$tmp/serial.out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "batch smoke: serial reference bvqserve exited with $rc" >&2
    cat "$tmp/serial.out" >&2; exit 1
  fi
  for ((i = 1; i <= 8; i++)); do
    if ! grep -q "^result $i ok$" "$tmp/serial.out"; then
      echo "batch smoke: serial reference query $i did not complete ok" >&2
      cat "$tmp/serial.out" >&2; exit 1
    fi
  done
  for mode in direct routed; do
    rc=0
    if [[ $mode == direct ]]; then
      "$bvqserve" "$tmp/batch.bvqserve" > "$tmp/batch.out" 2>&1 || rc=$?
    else
      "$bvqserve" --shards=2 "$tmp/batch.bvqserve" > "$tmp/batch.out" 2>&1 || rc=$?
    fi
    if [[ $rc -ne 0 ]]; then
      echo "batch smoke ($mode): bvqserve exited with $rc" >&2
      cat "$tmp/batch.out" >&2; exit 1
    fi
    dedup=$(awk '/^ok batch b end /{
        for (i = 1; i <= NF; i++)
          if ($i ~ /^dedup=/) { sub(/^dedup=/, "", $i); print $i }
      }' "$tmp/batch.out")
    if [[ -z "$dedup" ]]; then
      echo "batch smoke ($mode): no ok batch ... end summary line" >&2
      cat "$tmp/batch.out" >&2; exit 1
    fi
    if ! awk -v d="$dedup" 'BEGIN { exit !(d > 1.0) }'; then
      echo "batch smoke ($mode): dedup ratio $dedup is not > 1" >&2
      cat "$tmp/batch.out" >&2; exit 1
    fi
    for ((i = 1; i <= 8; i++)); do
      if ! grep -q "^result $i ok$" "$tmp/batch.out"; then
        echo "batch smoke ($mode): batched query $i did not complete ok" >&2
        cat "$tmp/batch.out" >&2; exit 1
      fi
      if [[ "$(payload "$tmp/batch.out" $i)" != \
            "$(payload "$tmp/serial.out" $i)" ]]; then
        echo "batch smoke ($mode): query $i differs from the serial run" >&2
        diff <(payload "$tmp/serial.out" $i) \
             <(payload "$tmp/batch.out" $i) >&2 || true
        exit 1
      fi
    done
    echo "   $mode: 8-query batch dedup=$dedup, byte-identical to serial"
  done
  rm -rf "$tmp"
}

# Cross-query answer-cache smoke: a replayed fixpoint query must be served
# from the session cache (nonzero cache hits in the stats line) with output
# byte-identical to a --cross-query-cache=0 run, and a mid-session `load`
# through bvqserve must invalidate by relation version — the replay before
# the load hits and reproduces the first answer exactly, the eval after the
# load recomputes against the new database.
cache_smoke() {
  local bvqsh="$1/tools/bvqsh" bvqserve="$1/tools/bvqserve" tmp rc=0 i
  local tc='(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)'
  tmp=$(mktemp -d)
  echo "== cross-query cache smoke ($1) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\nrel P/1 0 ;\n'
    printf 'eval (x1) [lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)\n'
    printf 'eval (x1) [lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)\n'
  } > "$tmp/warm.bvq"
  "$bvqsh" --stats "$tmp/warm.bvq" > "$tmp/warm.out"
  if ! grep -q '^  \[cache on: [1-9]' "$tmp/warm.out"; then
    echo "cache smoke: replayed query never hit the cache" >&2
    cat "$tmp/warm.out" >&2; exit 1
  fi
  "$bvqsh" --cross-query-cache=0 "$tmp/warm.bvq" > "$tmp/off.out"
  # Timing/stats lines lead with "  [" and are the only permitted diff.
  if ! diff <(grep -v '^  \[' "$tmp/warm.out") \
            <(grep -v '^  \[' "$tmp/off.out"); then
    echo "cache smoke: cached answers differ from the cache-off run" >&2
    exit 1
  fi
  echo "   bvqsh replay hit the cache, byte-identical to cache-off"

  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 9; i++)); do printf ' %d %d ;' "$i" "$((i + 1))"; done
    printf '\n'; } > "$tmp/path.bvq"
  {
    printf 'open s k=3\n'
    printf 'load s %s/cycle.bvq\n' "$tmp"
    printf 'eval 1 s %s\ndrain\n' "$tc"
    printf 'eval 2 s %s\ndrain\n' "$tc"
    printf 'stats s\n'
    printf 'load s %s/path.bvq\n' "$tmp"
    printf 'eval 3 s %s\ndrain\n' "$tc"
    printf 'close s\nquit\n'
  } > "$tmp/script.bvqserve"
  "$bvqserve" "$tmp/script.bvqserve" > "$tmp/serve.out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "cache smoke: bvqserve exited with $rc" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  for i in 1 2 3; do
    if ! grep -q "^result $i ok$" "$tmp/serve.out"; then
      echo "cache smoke: eval $i did not complete ok" >&2
      cat "$tmp/serve.out" >&2; exit 1
    fi
  done
  if ! grep -q " cache_hits=[1-9]" "$tmp/serve.out"; then
    echo "cache smoke: session stats report no cache hits" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  if [[ "$(payload "$tmp/serve.out" 1)" != \
        "$(payload "$tmp/serve.out" 2)" ]]; then
    echo "cache smoke: warm replay differs from the cold answer" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  if [[ "$(payload "$tmp/serve.out" 1)" == \
        "$(payload "$tmp/serve.out" 3)" ]]; then
    echo "cache smoke: eval after load served a stale answer" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  echo "   bvqserve warm hit counted, load invalidated by version"
  rm -rf "$tmp"
}

# Restart-prewarm smoke. Part 1 (single process) reuses
# tools/cache_persist_test.sh: serve → snapshot on quit → restart →
# byte-identical replies with cache hits, and a corrupted snapshot degrades
# to a cold start. Part 2 (crash path): kill -9 both workers of a 2-shard
# router mid-session; the respawned workers get the same --cache-dir, the
# re-opened sessions prewarm from the snapshots the preceding drain wrote,
# and the first post-restart evals answer byte-identically with nonzero
# cache hits.
persist_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc=0 i router kids
  local tc='(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)'
  echo "== restart-prewarm smoke ($bvqserve) =="
  "$ROOT/tools/cache_persist_test.sh" "$bvqserve"
  echo "   single-process restart round trip ok (incl. corrupted snapshot)"

  tmp=$(mktemp -d)
  mkdir "$tmp/cache"
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  mkfifo "$tmp/ctl"
  "$bvqserve" --shards=2 --cache-dir="$tmp/cache" "$tmp/ctl" \
      > "$tmp/out" 2> "$tmp/err" &
  router=$!
  exec 9> "$tmp/ctl"
  printf 'open s0 k=3\nopen s1 k=3\n' >&9
  printf 'load s0 %s/cycle.bvq\nload s1 %s/cycle.bvq\n' "$tmp" "$tmp" >&9
  printf 'eval 1 s0 %s\neval 2 s1 %s\n' "$tc" "$tc" >&9
  printf 'drain\n' >&9  # barrier: evals done, every session snapshotted
  for ((i = 0; i < 300; i++)); do
    if grep -q '^result 1 ok$' "$tmp/out" && \
       grep -q '^result 2 ok$' "$tmp/out" && \
       [[ -s "$tmp/cache/s0.bvqcache" && -s "$tmp/cache/s1.bvqcache" ]]; then
      break
    fi
    sleep 0.1
  done
  if [[ ! -s "$tmp/cache/s0.bvqcache" || ! -s "$tmp/cache/s1.bvqcache" ]]; then
    echo "persist smoke: drain left no snapshots" >&2
    cat "$tmp/out" "$tmp/err" >&2; exit 1
  fi

  kids=$(cat "/proc/$router/task/$router/children")
  if [[ -z "$kids" ]]; then
    echo "persist smoke: no worker processes found to kill" >&2; exit 1
  fi
  kill -9 $kids
  for ((i = 0; i < 300; i++)); do
    [[ "$(grep -c 'restarted' "$tmp/err" || true)" -ge 2 ]] && break
    sleep 0.1
  done
  if [[ "$(grep -c 'restarted' "$tmp/err" || true)" -lt 2 ]]; then
    echo "persist smoke: workers were not respawned after kill -9" >&2
    cat "$tmp/err" >&2; exit 1
  fi

  # The crashed workers took their sessions with them (a respawned empty
  # worker must never silently serve a re-homed session); re-opening
  # prewarms each session from its snapshot.
  printf 'open s0 k=3\nopen s1 k=3\n' >&9
  printf 'load s0 %s/cycle.bvq\nload s1 %s/cycle.bvq\n' "$tmp" "$tmp" >&9
  printf 'eval 3 s0 %s\neval 4 s1 %s\n' "$tc" "$tc" >&9
  printf 'drain\nstats s0\nstats s1\nquit\n' >&9
  exec 9>&-
  wait "$router" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "persist smoke: router exited with $rc" >&2
    cat "$tmp/out" "$tmp/err" >&2; exit 1
  fi
  if [[ -z "$(payload "$tmp/out" 1)" || -z "$(payload "$tmp/out" 3)" ]]; then
    echo "persist smoke: missing result payloads" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if [[ "$(payload "$tmp/out" 1)" != "$(payload "$tmp/out" 3)" ||
        "$(payload "$tmp/out" 2)" != "$(payload "$tmp/out" 4)" ]]; then
    echo "persist smoke: post-restart answers differ from pre-crash" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if [[ "$(grep -c ' cache_hits=[1-9]' "$tmp/out" || true)" -lt 2 ]]; then
    echo "persist smoke: restarted workers served no cache hits" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  echo "   crash-restarted workers prewarmed: byte-identical, hits counted"
  rm -rf "$tmp"
}

# Nesting and long-line smoke. Three inputs that used to overflow the stack
# (10,000 nested `!`, 10,000 nested parentheses, a 20,000-term `&` chain)
# must each come back as exactly one ParseError result block, direct and
# through a 2-shard router, while the same session keeps answering. The same
# shapes at the depth limit (512) must still evaluate, byte-identical to the
# plain atom: that confirms the limit keeps every recursive pass on this
# tier's stack. Over TCP, a line that never ends must get `err line too
# long` and lose its connection while a second connection keeps serving;
# the process must exit 0 after quit. Last, the bvqsh `serve` script runs,
# so this tier's sanitizer watches the shell's in-process Server too.
deep_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc mode i n port server id=0
  local atom='E(x1,x1)'
  tmp=$(mktemp -d)
  echo "== nesting and long-line smoke ($1) =="
  repeat() { local i; for ((i = 0; i < $2; i++)); do printf '%s' "$1"; done; }
  deep_fail() { echo "deep smoke: $1" >&2; cut -c1-200 "$2" >&2; exit 1; }
  {
    printf 'open d k=1\ndomain d 3\nrel d E/2 0 0 ; 1 2 ;\n'
    for n in 10000 512; do  # ids 1-3 over the limit, 4-6 at it
      printf 'eval %d d (x1) %s%s\n' $((++id)) "$(repeat '!' $n)" "$atom"
      printf 'eval %d d (x1) %s%s%s\n' $((++id)) "$(repeat '(' $n)" "$atom" \
          "$(repeat ')' $n)"
      printf 'eval %d d (x1) %s%s\n' $((++id)) "$atom" \
          "$(repeat " & $atom" $((n == 512 ? 512 : 19999)))"
    done
    printf 'eval 7 d (x1) %s\ndrain\nclose d\nquit\n' "$atom"
  } > "$tmp/deep.bvqserve"
  for mode in "" --shards=2; do
    rc=0
    "$bvqserve" $mode "$tmp/deep.bvqserve" > "$tmp/deep.out" 2>&1 || rc=$?
    [[ $rc -eq 0 ]] && grep -qx 'ok quit' "$tmp/deep.out" ||
        deep_fail "bvqserve $mode exited with $rc" "$tmp/deep.out"
    [[ "$(grep -c '^result [0-9]* error ' "$tmp/deep.out")" -eq 3 ]] ||
        deep_fail "$mode: expected exactly 3 error blocks" "$tmp/deep.out"
    for i in 1 2 3; do
      grep -qx "result $i error ParseError" "$tmp/deep.out" ||
          deep_fail "$mode: input $i is not a ParseError" "$tmp/deep.out"
    done
    for i in 4 5 6; do
      grep -qx "result $i ok" "$tmp/deep.out" &&
          [[ "$(payload "$tmp/deep.out" $i)" == \
             "$(payload "$tmp/deep.out" 7)" ]] ||
          deep_fail "$mode: eval $i at the limit did not answer" "$tmp/deep.out"
    done
    echo "   ${mode:-direct}: over-deep inputs -> ParseError, limit-deep ones answer"
  done

  "$bvqserve" --port=0 > /dev/null 2> "$tmp/tcp.err" &
  server=$!
  for ((i = 0; i < 100; i++)); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$tmp/tcp.err")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  [[ -n "$port" ]] || { kill "$server"; deep_fail "no TCP port" "$tmp/tcp.err"; }
  (
    exec 3<> "/dev/tcp/127.0.0.1/$port"
    printf 'open t k=1\n' >&3
    head -c 17000000 /dev/zero | tr '\0' a >&3 || true
    cat <&3 || true
  ) > "$tmp/long.out" 2> /dev/null
  (
    exec 3<> "/dev/tcp/127.0.0.1/$port"
    printf 'domain t 3\neval 1 t (x1) x1 = x1\ndrain\nquit\n' >&3
    cat <&3
  ) > "$tmp/after.out"
  rc=0
  wait "$server" || rc=$?
  [[ "$(grep -c '^err' "$tmp/long.out")" -eq 1 ]] &&
      grep -qx 'err line too long' "$tmp/long.out" ||
      deep_fail "endless TCP line not refused with one err" "$tmp/long.out"
  [[ $rc -eq 0 ]] && grep -qx 'result 1 ok' "$tmp/after.out" ||
      deep_fail "not serving after the long line (exit $rc)" "$tmp/after.out"
  echo "   endless TCP line -> err line too long; next connection served"

  "$ROOT/tests/bvqsh_test.sh" serve "$1/tools/bvqsh" "$ROOT/data/serve.bvqsh"
  rm -rf "$tmp"
}

usage() {
  echo "usage: tools/check.sh [--tsan-only|--plain-only|--asan-only|--list]" >&2
  echo "       tools/check.sh --smoke resource|serve|shard|batch|cache|persist|deep <build-dir>" >&2
  exit 2
}

run_plain=1
run_tsan=1
run_asan=1
case "${1:-}" in
  --tsan-only) run_plain=0; run_asan=0 ;;
  --plain-only) run_tsan=0; run_asan=0 ;;
  --asan-only) run_plain=0; run_tsan=0 ;;
  --list)
    echo "plain  build + ctest (incl. bench smokes and the resource/serve/shard/batch/cache/persist/deep smokes)"
    echo "tsan   the same under -DBVQ_SANITIZE=thread, BVQ_THREADS=4"
    echo "asan   the same under -DBVQ_SANITIZE=address,undefined"
    exit 0 ;;
  --smoke)
    [[ $# -eq 3 ]] || usage
    case $2 in
      resource|serve|shard|batch|cache|persist|deep) "$2_smoke" "$3" ;;
      *) usage ;;
    esac
    exit 0 ;;
  "") ;;
  *) usage ;;
esac

if [[ $run_plain -eq 1 ]]; then
  echo "== plain build + ctest =="
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j"$(nproc)"
  (cd "$ROOT/build" && ctest --output-on-failure -j"$(nproc)")
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan build + ctest (BVQ_THREADS=4) =="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DBVQ_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j"$(nproc)"
  (cd "$ROOT/build-tsan" && BVQ_THREADS=4 ctest --output-on-failure -j"$(nproc)")
fi

if [[ $run_asan -eq 1 ]]; then
  echo "== ASan+UBSan build + ctest =="
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DBVQ_SANITIZE=address,undefined
  cmake --build "$ROOT/build-asan" -j"$(nproc)"
  (cd "$ROOT/build-asan" && ctest --output-on-failure -j"$(nproc)")
fi

echo "check.sh: all requested passes green"
