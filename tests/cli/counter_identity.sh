#!/bin/sh
# Checks that the deterministic --stats lines do not depend on --jobs.
#
#   counter_identity.sh SLP SLP_VERIFY SLPGEN
#
# With the cache off every query is proved exactly once, so the
# verdicts, cache, presolve counts, clause intake, subsumption, pools,
# model-guided and single-backend lines and the proof count are
# properties of the corpus alone. With the single-flight cache on each
# distinct key is proved once at any --jobs, so the same holds on a
# doubled corpus. So do the session resets and reclaimed terms, which
# sum per-query counts. Times (the presolve seconds, a backend's
# worker-s) and the worker count are stripped. Writes its files into
# the working directory.
set -eu
slp=$1
verify=$2
slpgen=$3

# The deterministic lines of the --stats block in file $1.
counters() {
  grep -E '^(verdicts|cache|presolve|clauses|subsumption|pools|model-guided|sessions|backend)' "$1" |
    sed -E 's/ in [0-9.]+s$//; s/, [0-9.]+ worker-s//; s/^sessions: [0-9]+ workers, /sessions: /'
  grep -oE 'over [0-9]+ proofs' "$1" || true
}

# same_at_jobs NAME ARGS...: runs `slp ARGS` at --jobs=1 and --jobs=4
# and compares stdout and the deterministic --stats lines.
same_at_jobs() {
  name=$1
  shift
  for j in 1 4; do
    "$slp" --stats --jobs=$j "$@" > "$name.j$j.out" 2> "$name.j$j.err"
    counters "$name.j$j.err" > "$name.j$j.counters"
  done
  cmp "$name.j1.out" "$name.j4.out"
  cmp "$name.j1.counters" "$name.j4.counters"
}

"$slpgen" --dist=1 --vars=10 --count=200 --seed=1 > identity-d1.slp
"$slpgen" --dist=2 --vars=10 --count=200 --seed=1 > identity-d2.slp
same_at_jobs identity-d1-off --cache=off identity-d1.slp
same_at_jobs identity-d2-off --cache=off identity-d2.slp

for j in 1 4; do
  "$verify" --cache=off --stats --jobs=$j > identity-verify.j$j.out \
    2> identity-verify.j$j.err
  counters identity-verify.j$j.err > identity-verify.j$j.counters
done
cmp identity-verify.j1.out identity-verify.j4.out
cmp identity-verify.j1.counters identity-verify.j4.counters

cat identity-d1.slp identity-d1.slp > identity-d1x2.slp
same_at_jobs identity-d1x2-on --cache=on identity-d1x2.slp

# No query of this corpus is decided by the pre-solver, so every
# first occurrence is a miss and every repeat a hit.
"$slpgen" --dist=2 --vars=16 --count=400 --seed=1 --pnext=0.7 > identity-d2b.slp
cat identity-d2b.slp identity-d2b.slp > identity-d2bx2.slp
same_at_jobs identity-d2bx2-on --cache=on --fuel=300 identity-d2bx2.slp
grep -Fx 'cache: on, hit rate 50.0% (400 hits, 400 misses, 400 entries, 0 evictions)' \
  identity-d2bx2-on.j4.err
