#!/bin/sh
# Checks that slp's render modes prove what the engine proves.
#
#   render_matches_engine.sh SLP SLPGEN
#
# On a generated corpus at bounded fuel without the pre-solver, where
# the term order decides verdicts and costs:
#   - every --query-stats verdict equals the plain --jobs=1 verdict;
#   - the per-query fuel=, fwd=, bwd= and checks= counts sum to the
#     totals of the engine's --stats summary;
#   - a query's --query-stats block (its time: line aside) is the same
#     alone and inside the corpus.
# Writes its files into the working directory.
set -eu
slp=$1
slpgen=$2
flags="--fuel=300 --no-presolve"

"$slpgen" --dist=1 --vars=10 --count=200 --seed=1 > rme_corpus.slp
"$slp" --query-stats $flags rme_corpus.slp > rme_qs.out
"$slp" --jobs=1 $flags rme_corpus.slp > rme_plain.out
"$slp" --jobs=1 --cache=off --stats $flags rme_corpus.slp \
  > /dev/null 2> rme_stats.err

# A verdict is the 4-space-indented line under each echoed query.
grep -E '^    [a-z]' rme_qs.out | grep -v '^    time:' > rme_qs.verdicts
grep -E '^    [a-z]' rme_plain.out > rme_plain.verdicts
cmp rme_qs.verdicts rme_plain.verdicts

sums=$(awk '{
    for (i = 1; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "fuel") fuel += kv[2]
      if (kv[1] == "fwd") fwd += kv[2]
      if (kv[1] == "bwd") bwd += kv[2]
      if (kv[1] == "checks") checks += kv[2]
    }
  } END { print fuel, fwd, bwd, checks }' rme_qs.out)
fuel=$(sed -n 's/^backend slp .* \([0-9]*\) fuel)$/\1/p' rme_stats.err)
sub=$(sed -n 's/^subsumption: \([0-9]*\) fwd, \([0-9]*\) bwd, \([0-9]*\) checks .*/\1 \2 \3/p' \
  rme_stats.err)
if [ "$sums" != "$fuel $sub" ]; then
  echo "--query-stats sums '$sums' != engine totals '$fuel $sub'" >&2
  exit 1
fi

# Query 62's block, with its number and time: line dropped.
block() {
  awk -v n="$2" '/^\[[0-9]+\] / { in_q = index($0, "[" n "] ") == 1 }
                 in_q && !/^    time:/' "$1" | sed 's/^\[[0-9]*\] //'
}
block rme_qs.out 62 > rme_in_corpus.block
sed -n 62p rme_corpus.slp | "$slp" --query-stats $flags > rme_alone.out
block rme_alone.out 1 > rme_alone.block
test -s rme_alone.block
cmp rme_in_corpus.block rme_alone.block
