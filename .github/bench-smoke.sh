#!/usr/bin/env bash
# Runs each benchmark workload given, one second at seed 1, and fails unless
# its last report line says the outputs are correct and no job failed.
# Each argument is the workload name with its run.py flags, for example
#   bash .github/bench-smoke.sh "grids --trace 0" "lg-bell --trace 1"
set -euo pipefail
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for args in "$@"; do
  # $args is split on purpose: the workload name and its flags
  python perfbench/run.py --workload $args --seed 1 --seconds 1 > "$out"
  python -c 'import json, sys
r = json.loads(open(sys.argv[1]).read().splitlines()[-1])
ok = r["correct"] is True and r["failed"] == 0
sys.exit(0 if ok else "benchmark smoke run failed: " + sys.argv[2])' "$out" "$args"
done
