#!/usr/bin/env bash
# Tier-1 flow plus sanitizer sweeps.
#
#   tools/check.sh            # tier-1: default build + full ctest
#                             # + apxbench --smoke correctness gate
#                             # + release apxsim ladder-matrix smoke check
#                             #   (every preset + the warm-tier ladder,
#                             #    metrics schema validated per export)
#                             # + committed BENCH_tables.json shape check
#   tools/check.sh sanitize   # + asan-ubsan over the whole suite
#                             # + tsan over the concurrency tests
#
# The tsan leg covers the code that can actually race: the shared-cache
# suite (readers vs writer over one locked ApproxCache, exact, p-stable,
# A-LSH and QALSH backends) and the sharded edge cache service. The
# simulation runner itself is single-threaded: one event world per run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j
ctest --preset default -j

# The end-to-end benchmark's correctness gate: apxbench --smoke runs every
# workload briefly and fails unless the ladder leg matches the runner.
cmake -S benchmark -B .bench_build/apxbench -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build/apxbench -j
ctest --test-dir .bench_build/apxbench --output-on-failure

# Ladder-matrix smoke check: run the release-preset driver over every
# named preset plus the warm-tier ladder (2-device scenario), validating
# each JSON export against the checked-in schema. The `full` leg keeps the
# original longer duration as the primary metrics-export smoke check.
cmake --preset release
cmake --build --preset release -j --target apxsim

validate_metrics() {
  local metrics_json="$1"
  if ! command -v python3 > /dev/null; then
    echo "python3 not found; skipping metrics JSON schema validation" >&2
    return 0
  fi
  python3 -m json.tool "$metrics_json" > /dev/null
  python3 - "$metrics_json" tools/metrics_schema.json <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
schema = json.load(open(sys.argv[2]))
missing = [k for k in schema["top_level"] if k not in metrics]
assert not missing, f"missing top-level keys: {missing}"
assert metrics["schema"] == schema["schema"], metrics["schema"]
missing = [k for k in schema["required_counters"]
           if k not in metrics["counters"]]
assert not missing, f"missing counters: {missing}"
missing = [k for k in schema["required_histograms"]
           if k not in metrics["histograms"]]
assert not missing, f"missing histograms: {missing}"
# Subsystem groups (cache, p2p, warm rung) are all-or-nothing: absent for
# ladders without the subsystem, complete for ladders with it.
for name, group in schema.get("subsystems", {}).items():
    keys = [(metrics["counters"], k) for k in group.get("counters", [])]
    keys += [(metrics["histograms"], k) for k in group.get("histograms", [])]
    present = [k for where, k in keys if k in where]
    if present:
        partial = [k for where, k in keys if k not in where]
        assert not partial, f"subsystem {name} partially exported: {partial}"
for name, hist in metrics["histograms"].items():
    bad = [f for f in schema["histogram_fields"] if f not in hist]
    assert not bad, f"histogram {name} missing fields: {bad}"
    assert len(hist["buckets"]) == len(hist["bounds"]) + 1, name
    assert sum(hist["buckets"]) == hist["count"], name
print(f"metrics schema ok: {len(metrics['counters'])} counters, "
      f"{len(metrics['histograms'])} histograms")
PY
}

metrics_json="build-release/metrics.json"
./build-release/tools/apxsim --config full --duration 15 --metrics \
  --metrics-out "$metrics_json" > /dev/null
validate_metrics "$metrics_json"

for preset in nocache exact local imu video full adaptive; do
  echo "ladder matrix: --config $preset"
  ./build-release/tools/apxsim --config "$preset" --devices 2 --duration 10 \
    --metrics-out "build-release/metrics_${preset}.json" > /dev/null
  validate_metrics "build-release/metrics_${preset}.json"
done
echo "ladder matrix: --ladder imu,temporal,warm,local,p2p,dnn"
./build-release/tools/apxsim --ladder imu,temporal,warm,local,p2p,dnn \
  --devices 2 --duration 10 \
  --metrics-out build-release/metrics_warm.json > /dev/null
validate_metrics build-release/metrics_warm.json
# The warm rung must actually show up in its export.
grep -q 'pipeline/rung_us/warm' build-release/metrics_warm.json
echo "ladder matrix: --ladder imu,temporal,local(q8),p2p,dnn"
./build-release/tools/apxsim --ladder 'imu,temporal,local(q8),p2p,dnn' \
  --devices 2 --duration 10 \
  --metrics-out build-release/metrics_q8.json > /dev/null
validate_metrics build-release/metrics_q8.json
# The quantized subsystem must actually show up in its export.
grep -q 'cache/bytes_codes' build-release/metrics_q8.json
grep -q 'ann/rerank_survivors' build-release/metrics_q8.json
echo "ladder matrix: --ladder imu,temporal,local,p2p,edge(shards=2,ttl=20s),dnn"
./build-release/tools/apxsim \
  --ladder 'imu,temporal,local,p2p,edge(shards=2,ttl=20s),dnn' \
  --devices 2 --duration 10 \
  --metrics-out build-release/metrics_edge.json > /dev/null
validate_metrics build-release/metrics_edge.json
# The edge subsystem must actually show up in its export (all-or-nothing:
# validate_metrics has already checked the group is complete).
grep -q 'edge/srv_lookup' build-release/metrics_edge.json
grep -q 'edge/round_us' build-release/metrics_edge.json
echo "ladder matrix: --ladder imu,temporal,regions(grid=8,ttl=1s),local,p2p,dnn"
./build-release/tools/apxsim \
  --ladder 'imu,temporal,regions(grid=8,ttl=1s),local,p2p,dnn' \
  --devices 2 --duration 10 \
  --metrics-out build-release/metrics_regions.json > /dev/null
validate_metrics build-release/metrics_regions.json
# The regions subsystem must actually show up in its export (all-or-nothing:
# validate_metrics has already checked the group is complete).
grep -q 'regions/blocks_recomputed' build-release/metrics_regions.json
grep -q 'regions/splice_depth' build-release/metrics_regions.json
echo "ladder matrix: --ladder imu,temporal,local(qalsh),p2p,dnn"
./build-release/tools/apxsim \
  --ladder 'imu,temporal,local(qalsh),p2p,dnn' \
  --devices 2 --duration 10 \
  --metrics-out build-release/metrics_qalsh.json > /dev/null
validate_metrics build-release/metrics_qalsh.json
# The qalsh subsystem must actually show up in its export (all-or-nothing:
# validate_metrics has already checked the group is complete).
grep -q 'ann/qalsh/rounds' build-release/metrics_qalsh.json
grep -q 'ann/qalsh/c1_stop' build-release/metrics_qalsh.json

# M5 regions-bench smoke: a shrunk run of the splice-vs-full sweep (the
# binary itself asserts bit-identity every iteration), its JSON validated
# against the committed BENCH_regions.json schema.
cmake --build --preset release -j --target bench_m5_regions
./build-release/bench/bench_m5_regions --smoke \
  build-release/BENCH_regions_smoke.json
python3 - build-release/BENCH_regions_smoke.json BENCH_regions.json <<'PY'
import json, sys
smoke = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
for doc, name in ((smoke, "smoke"), (committed, "committed")):
    for key in ("bench", "dim", "entries", "metrics", "extras"):
        assert key in doc, f"{name}: missing {key}"
    assert doc["bench"] == "m5_regions", doc["bench"]
    for metric, fields in doc["metrics"].items():
        for f in ("base_ns_op", "new_ns_op", "speedup"):
            assert f in fields, f"{name}: {metric} missing {f}"
        assert fields["new_ns_op"] > 0, f"{name}: {metric} empty measurement"
assert set(smoke["metrics"]) == set(committed["metrics"]), (
    set(smoke["metrics"]) ^ set(committed["metrics"]))
assert set(smoke["extras"]) == set(committed["extras"]), (
    set(smoke["extras"]) ^ set(committed["extras"]))
# The committed exhibit must carry the headline claim: every <=25%-changed
# point splices faster than full extraction.
slow = [m for m, f in committed["metrics"].items()
        if ("changed0pct" in m or "changed25pct" in m) and f["speedup"] <= 1.0]
assert not slow, f"committed exhibit lost the partial-hit win: {slow}"
print(f"bench_m5 schema ok: {len(smoke['metrics'])} metrics, "
      f"{len(smoke['extras'])} extras")
PY

# The committed table pass (bench_tables, ~5 min, not rerun here): every
# exhibit present, every row as wide as its header.
python3 - BENCH_tables.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "tables", doc["bench"]
ids = [ex["id"] for ex in doc["exhibits"]]
expected = ["T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5", "F9",
            "A2", "A3", "A5"]
assert ids == expected, f"exhibits {ids}, expected {expected}"
tables = 0
for ex in doc["exhibits"]:
    assert ex["tables"], f"{ex['id']}: no tables"
    for table in ex["tables"]:
        tables += 1
        assert table["rows"], f"{ex['id']} {table['title']}: no rows"
        for row in table["rows"]:
            assert len(row) == len(table["header"]), (
                f"{ex['id']} {table['title']}: row {row} vs header "
                f"{table['header']}")
print(f"BENCH_tables ok: {len(ids)} exhibits, {tables} tables")
PY

if [[ "${1:-}" == "sanitize" ]]; then
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j
  ctest --preset asan-ubsan -j
  # The quantized parity suite in full, under both sanitizers — the SQ8
  # kernels and the code arena are the newest pointer arithmetic in the tree.
  ./build-asan-ubsan/tests/quantized_test
  # The region-reuse suite likewise: masked partial conv recomputation is
  # the newest indexing arithmetic (halo clipping, tile splicing).
  ./build-asan-ubsan/tests/regions_test
  # The conv kernel parity suite: tap-major weight indexing, clamped halo
  # reads and the AVX2 body's unaligned loads/stores.
  ./build-asan-ubsan/tests/conv_kernel_test
  # The QALSH suite in full: sorted-line cursor sweeps, pending-tail
  # merges, tombstone compaction and slot recycling are the newest
  # pointer/index arithmetic in src/ann.
  ./build-asan-ubsan/tests/qalsh_test

  cmake --preset tsan
  cmake --build --preset tsan -j
  # The shared-cache concurrency suite: readers (lookup, peek_vote,
  # nearest_distance, find, for_each, ...) vs a writer over one locked
  # ApproxCache for the exact, p-stable, A-LSH and QALSH backends (A-LSH's
  # in-lookup rebuilds and QALSH's sorted lines and pending tails race the
  # writer without the lock), plus the randomized concurrent fuzz schedules
  # and the EdgeConcurrent query/feed/sweep hammer on one EdgeCacheService.
  ./build-tsan/tests/concurrent_test
  ./build-tsan/tests/property_test \
    --gtest_filter='*ConcurrentBatchedReaders*'
  # The edge tier suite: sharded service + admission + TTL sweeps.
  ./build-tsan/tests/edge_test
fi
echo "check.sh: all green"
