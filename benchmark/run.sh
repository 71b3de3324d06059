#!/usr/bin/env bash
# apxbench's one command: builds the benchmark (Release) and runs it.
#
#   bash benchmark/run.sh
#       Every workload in BENCHMARK.json, untraced, for its run_seconds.
#       Prints every metric with its name and unit and writes
#       benchmark/out/result.json (plus the host's nproc, CPU model, build
#       type and git commit).
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run. The last line of stdout is its JSON result; --trace 1
#       reports the per-layer metrics and writes benchmark/out/trace-NAME.json.
#
# Build output goes to stderr, so stdout carries only results.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/apxbench"
build_type=Release

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE="$build_type" >&2
cmake --build "$build" --target apxbench -j "$(nproc)" >&2
mkdir -p "$root/benchmark/out"
cd "$root"

if [ "$#" -gt 0 ]; then
  exec "$build/apxbench" "$@"
fi

read -r seconds names < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
for name in $names; do
  "$build/apxbench" --workload "$name" --seconds "$seconds" |
    tee "benchmark/out/$name.log"
  tail -n 1 "benchmark/out/$name.log" > "benchmark/out/$name.json"
done

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$build_type" "$commit" $names <<'EOF'
import json, os, sys

build_type, commit, names = sys.argv[1], sys.argv[2], sys.argv[3:]
cpu = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
result = {
    "host": {"nproc": os.cpu_count(), "cpu_model": cpu,
             "build_type": build_type, "git_commit": commit},
    "workloads": {n: json.load(open(f"benchmark/out/{n}.json")) for n in names},
}
with open("benchmark/out/result.json", "w") as f:
    json.dump(result, f, indent=2)
print("wrote benchmark/out/result.json")
EOF
