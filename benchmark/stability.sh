#!/usr/bin/env bash
# Runs the full benchmark twice on one commit, the second pass in reverse
# workload order, and prints each end-to-end metric's difference between
# the passes against its bound in BENCHMARK.json. Host timings must agree
# within their bound; simulated metrics must match exactly.
#
#   bash benchmark/stability.sh [SEED]
#
# Exits 1 when any metric falls outside, 0 otherwise.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

python3 - "${1:-1000}" <<'EOF'
import json, subprocess, sys

seed = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in bench["workloads"]]
# Measured on the host; everything else is simulated and deterministic.
host_timed = {"setup_s", "simulator_fps", "ladder_fps"}

def run(name):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", name, "--seed", seed,
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{name}: correctness gate failed")
    return result["metrics"]

first = {n: run(n) for n in names}
second = {n: run(n) for n in reversed(names)}

ok = True
print(f"{'workload':8} {'metric':24} {'pass 1':>14} {'pass 2':>14} "
      f"{'worse by':>9} {'bound':>6}")
for n in names:
    for m in bench["end_to_end"]:
        a = first[n][m["name"]]["value"]
        b = second[n][m["name"]]["value"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        if m["name"] in host_timed:
            verdict = "ok" if abs(worse) <= m["bound"] else "OUT"
        else:
            verdict = "exact" if a == b else "DIFFERS"
        ok = ok and verdict in ("ok", "exact")
        print(f"{n:8} {m['name']:24} {a:14.6g} {b:14.6g} {worse:+9.2%} "
              f"{m['bound']:6.2f} {verdict}")
sys.exit(0 if ok else 1)
EOF
