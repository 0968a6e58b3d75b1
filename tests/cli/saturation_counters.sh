#!/bin/sh
# Pins the deterministic saturation counters of slp --stats.
#
#   saturation_counters.sh SLP SLPGEN
#
# One query at a time with the cache off, so these counters are a
# property of the corpus alone. A build with the invariant checks on
# must print the same lines: the checks compare through the uncounted
# clause order and must not move them. Writes its files into the
# working directory.
set -eu
slp=$1
slpgen=$2

"$slpgen" --dist=2 --vars=16 --count=400 --seed=1 --pnext=0.7 > counters-d2.slp
"$slp" --stats --fuel=300 --cache=off --jobs=1 counters-d2.slp \
  > /dev/null 2> counters.err
grep -Fx 'subsumption: 32541 fwd, 2680 bwd, 60020 checks of 31279452 scan-equivalent (521.2x pruned)' counters.err
grep -Fx 'pools: 34418 equations, 34418 literals; order memo 155 hits / 20278 misses (0.8%)' counters.err
grep -Fx 'clauses: 87645 derived, 1608 kept, 53219 tautologies, 5 demodulated; 0 compactions, 0 stale purged' counters.err

# The refute-d1 shape without the pre-solver: every query saturates,
# so the clause intake is pinned here.
"$slpgen" --dist=1 --vars=20 --count=400 --seed=1 > counters-d1.slp
"$slp" --stats --fuel=300 --cache=off --jobs=1 --no-presolve counters-d1.slp \
  > /dev/null 2> counters-d1.err
grep -Fx 'subsumption: 158252 fwd, 30599 bwd, 468064 checks of 119708305 scan-equivalent (255.8x pruned)' counters-d1.err
grep -Fx 'pools: 319336 equations, 319336 literals; order memo 51985 hits / 1267978 misses (3.9%)' counters-d1.err
grep -Fx 'clauses: 414499 derived, 113259 kept, 94222 tautologies, 11569 demodulated; 39 compactions, 14324 stale purged' counters-d1.err

# The render modes prove the engine's canonical query, so the per-query
# --query-stats counters sum to the pinned line above.
"$slp" --query-stats --fuel=300 --no-presolve counters-d1.slp > counters-d1.qs
sums=$(awk '{
    for (i = 1; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "fwd") f += kv[2]
      if (kv[1] == "bwd") b += kv[2]
      if (kv[1] == "checks") c += kv[2]
      if (kv[1] == "scan-equivalent") s += kv[2]
    }
  } END { print f, b, c, s }' counters-d1.qs)
test "$sums" = '158252 30599 468064 119708305'
