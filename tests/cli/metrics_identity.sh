#!/bin/sh
# Checks that the --metrics-json counters and gauges do not depend on
# --jobs, and that every dump passes scripts/check_trace.py.
#
#   metrics_identity.sh SLP SLP_VERIFY SLPGEN PYTHON CHECK_TRACE
#
# The registry's counters and gauges are the run's BatchStats, handed
# over once at the end of the run, so with the cache off (and with the
# single-flight cache on a doubled corpus) every value is a property of
# the corpus alone. The exceptions depend on scheduling or the clock:
# the steal counters, the worker and session gauges, and the backends'
# time_ns. Writes its files into the working directory.
set -eu
slp=$1
verify=$2
slpgen=$3
python=$4
check_trace=$5

# dump NAME TOOL ARGS...: runs TOOL at --jobs=1 and --jobs=4 with a
# trace and a metrics dump, and validates both artifacts.
dump() {
  name=$1
  tool=$2
  shift 2
  for j in 1 4; do
    "$tool" --jobs=$j --trace="$name.j$j.trace.json" \
      --metrics-json="$name.j$j.metrics.json" "$@" > /dev/null
    "$python" "$check_trace" "$name.j$j.trace.json" "$name.j$j.metrics.json"
  done
  "$python" - "$name.j1.metrics.json" "$name.j4.metrics.json" <<'EOF'
import json
import sys

SCHEDULED = ("engine.steal.", "engine.workers", "engine.sessions")


def values(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {(kind, name): v
            for kind in ("counters", "gauges")
            for name, v in doc[kind].items()
            if not name.startswith(SCHEDULED)
            and not (name.startswith("backend.") and name.endswith(".time_ns"))}


one, four = values(sys.argv[1]), values(sys.argv[2])
bad = sorted(k for k in one.keys() | four.keys() if one.get(k) != four.get(k))
for kind, name in bad:
    print(f"{kind} {name}: {one.get((kind, name))} at --jobs=1, "
          f"{four.get((kind, name))} at --jobs=4", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
}

"$slpgen" --dist=1 --vars=10 --count=200 --seed=1 > metrics-d1.slp
cat metrics-d1.slp metrics-d1.slp > metrics-d1x2.slp
dump metrics-d1-off "$slp" --cache=off metrics-d1.slp
dump metrics-d1x2-on "$slp" --cache=on metrics-d1x2.slp
dump metrics-verify-off "$verify" --cache=off
