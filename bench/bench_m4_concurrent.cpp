// M4 — concurrent shared-cache benchmark: QPS and tail latency of the
// batched lookup path when one ApproxCache is hammered from many threads.
//
// Phases:
//   1. preload a clustered working set (the shape the cache holds in the
//      paper's steady state: many near-duplicate views of a modest object
//      population);
//   2. single-thread comparison: lookup() (a batch of one plus an immediate
//      fold) against lookup_batch() — the batch amortization with zero
//      contention;
//   3. read-only scaling: 1/8/16/32 threads, each with its own
//      CacheQueryScratch, folding periodically;
//   4. mixed 95/5 lookup/insert at 8 and 32 threads — writers take the
//      exclusive lock and stall readers, which is what p99 pays for.
//
// Emits BENCH_concurrent.json (path = first non-flag arg, default
// ./BENCH_concurrent.json) on the shared BenchJson schema. Metrics are
// ns/query so "speedup" reads as scaling ratio; absolute QPS lands in
// extras next to hw_threads — on a single-core host the scaling numbers
// are honest 1x-ish and hw_threads says why.
//
// --smoke shrinks the cache and the measurement windows for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDim = 64;
constexpr std::size_t kBatch = 32;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Clustered vector factory shared by preload and query streams.
struct Clusters {
  std::vector<FeatureVec> centers;

  Clusters(Rng& rng, std::size_t n) {
    centers.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      FeatureVec v(kDim);
      for (float& x : v) x = static_cast<float>(rng.normal());
      normalize(v);
      centers.push_back(std::move(v));
    }
  }

  FeatureVec near(Rng& rng, std::size_t c) const {
    FeatureVec v = centers[c];
    for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.03));
    normalize(v);
    return v;
  }

  /// `batches` batches of kBatch clustered queries, packed row-major.
  std::vector<float> query_pool(Rng& rng, std::size_t batches) const {
    std::vector<float> flat;
    flat.reserve(batches * kBatch * kDim);
    for (std::size_t i = 0; i < batches * kBatch; ++i) {
      const FeatureVec v = near(rng, rng.uniform_u64(centers.size()));
      flat.insert(flat.end(), v.begin(), v.end());
    }
    return flat;
  }
};

struct PhaseResult {
  double ns_per_query = 0.0;  ///< aggregate wall-time / queries answered
  double p50_ns = 0.0;        ///< per-query, from per-batch samples
  double p99_ns = 0.0;
  double qps = 0.0;
  double mean_candidates = 0.0;
};

/// Runs `threads` workers against `cache` until `deadline_ms` elapses.
/// Every worker owns a scratch, loops over a private clustered query pool,
/// folds every 64 batches, and (when `insert_every` > 0) replaces one
/// batch in `insert_every` with a kBatch-insert burst — a 95/5 mix at 32.
PhaseResult run_phase(ApproxCache& cache, const Clusters& clusters,
                      int threads, int deadline_ms, int insert_every,
                      std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> queries_done(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> candidates_sum(
      static_cast<std::size_t>(threads));
  std::vector<std::vector<double>> batch_ns(
      static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));

  const auto t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto ti = static_cast<std::size_t>(t);
      Rng rng{seed + 17 * static_cast<std::uint64_t>(t)};
      const std::vector<float> pool = clusters.query_pool(rng, 64);
      const std::size_t pool_batches = pool.size() / (kBatch * kDim);
      CacheQueryScratch scratch = cache.make_scratch();
      std::vector<CacheResult> results(kBatch);
      batch_ns[ti].reserve(1 << 14);
      std::uint64_t batches = 0;
      SimTime now = 1'000'000 + static_cast<SimTime>(t) * 1'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        if (insert_every > 0 &&
            batches % static_cast<std::uint64_t>(insert_every) ==
                static_cast<std::uint64_t>(insert_every) - 1) {
          for (std::size_t i = 0; i < kBatch; ++i) {
            cache.insert(clusters.near(rng,
                                       rng.uniform_u64(
                                           clusters.centers.size())),
                         static_cast<Label>(rng.uniform_u64(512)), 0.9f,
                         now++);
          }
          ++batches;
          continue;
        }
        const std::size_t b = batches % pool_batches;
        const std::span<const float> q{pool.data() + b * kBatch * kDim,
                                       kBatch * kDim};
        const auto bt0 = Clock::now();
        cache.lookup_batch({.features = q, .count = kBatch, .now = now++},
                           results, scratch);
        batch_ns[ti].push_back(ns_since(bt0));
        for (const CacheResult& r : results) {
          candidates_sum[ti] += r.candidates;
        }
        queries_done[ti] += kBatch;
        ++batches;
        if (batches % 64 == 0) cache.fold_scratch(scratch);
      }
      cache.fold_scratch(scratch);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(deadline_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed_ns = ns_since(t0);

  PhaseResult r;
  std::uint64_t queries = 0, cands = 0;
  std::vector<double> per_query;
  for (int t = 0; t < threads; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    queries += queries_done[ti];
    cands += candidates_sum[ti];
    for (const double ns : batch_ns[ti]) {
      per_query.push_back(ns / static_cast<double>(kBatch));
    }
  }
  if (queries == 0) return r;
  // Wall-clock ns per answered query: with perfect scaling, N threads cut
  // this N-fold, so the JSON's base/new "speedup" IS the scaling ratio.
  r.ns_per_query = elapsed_ns / static_cast<double>(queries);
  r.p50_ns = percentile(per_query, 50.0);
  r.p99_ns = percentile(per_query, 99.0);
  r.qps = static_cast<double>(queries) / (elapsed_ns * 1e-9);
  r.mean_candidates =
      static_cast<double>(cands) / static_cast<double>(queries);
  return r;
}

}  // namespace
}  // namespace apx::bench

int main(int argc, char** argv) {
  using namespace apx;
  using namespace apx::bench;

  bool smoke = false;
  std::string json_path = "BENCH_concurrent.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const std::size_t entries = smoke ? 20'000 : 1'000'000;
  const std::size_t num_clusters = smoke ? 512 : 16'384;
  const int window_ms = smoke ? 150 : 2'000;

  banner("M4", "concurrent shared cache",
         "batched lookups scale with reader threads; writers only dent p99");
  std::printf("dim=%zu entries=%zu batch=%zu hw_threads=%u%s\n\n", kDim,
              entries, kBatch, std::thread::hardware_concurrency(),
              smoke ? " [smoke]" : "");

  ApproxCacheConfig cfg;
  cfg.capacity = 2 * entries;  // headroom: the O(n) evictor never runs
  cfg.index = IndexKind::kAdaptiveLsh;
  cfg.alsh.lsh.num_tables = 4;
  cfg.alsh.lsh.hashes_per_table = 8;
  // At 1M entries a 2.5 width (the 10k-entry M2 operating point) floods
  // every bucket with colliding clusters — ~8% of the cache scanned per
  // query. 0.8 keeps candidate sets near one cluster's worth while the
  // clustered queries still hit.
  cfg.alsh.lsh.bucket_width = 0.8f;
  cfg.alsh.lsh.probes_per_table = 2;
  // Pin the tables for the measurement: a mid-phase rebuild would charge
  // one unlucky batch with an O(n) rehash.
  cfg.alsh.min_queries_between_rebuilds = ~std::size_t{0};
  cfg.hknn.k = 8;
  cfg.hknn.max_distance = 0.3f;
  ApproxCache cache{kDim, cfg, make_lru_policy()};

  Rng rng{2026};
  const Clusters clusters{rng, num_clusters};

  // --- phase 1: preload -------------------------------------------------
  const auto pre0 = Clock::now();
  for (std::size_t i = 0; i < entries; ++i) {
    cache.insert(clusters.near(rng, i % num_clusters),
                 static_cast<Label>(i % 512), 0.9f,
                 static_cast<SimTime>(i));
  }
  const double preload_ns = ns_since(pre0);
  std::printf("preload: %zu entries in %.2f s (%.0f ns/insert)\n", entries,
              preload_ns * 1e-9, preload_ns / static_cast<double>(entries));

  // --- phase 2: single-thread lookup() vs batched -----------------------
  const std::size_t probe_count = smoke ? 512 : 4'096;
  const std::vector<float> probes =
      clusters.query_pool(rng, probe_count / kBatch);
  std::vector<double> single_ns;
  single_ns.reserve(probe_count);
  {  // warm-up then timed pass, one sample per query
    for (std::size_t i = 0; i < probe_count; ++i) {
      const std::span<const float> q{probes.data() + i * kDim, kDim};
      (void)cache.lookup({.features = q, .now = 1});
    }
    for (std::size_t i = 0; i < probe_count; ++i) {
      const std::span<const float> q{probes.data() + i * kDim, kDim};
      const auto t0 = Clock::now();
      (void)cache.lookup({.features = q, .now = 2});
      single_ns.push_back(ns_since(t0));
    }
  }
  std::vector<double> batched_ns;
  {
    CacheQueryScratch scratch = cache.make_scratch();
    std::vector<CacheResult> results(kBatch);
    const std::size_t batches = probe_count / kBatch;
    for (std::size_t rep = 0; rep < 2; ++rep) {  // rep 0 warms the scratch
      if (rep == 1) batched_ns.reserve(probe_count);
      for (std::size_t b = 0; b < batches; ++b) {
        const std::span<const float> q{probes.data() + b * kBatch * kDim,
                                       kBatch * kDim};
        const auto t0 = Clock::now();
        cache.lookup_batch({.features = q, .count = kBatch, .now = 3},
                           results, scratch);
        const double per_query = ns_since(t0) / static_cast<double>(kBatch);
        if (rep == 1) {
          for (std::size_t i = 0; i < kBatch; ++i) {
            batched_ns.push_back(per_query);
          }
        }
      }
      cache.fold_scratch(scratch);
    }
  }
  const double single_p50 = percentile(single_ns, 50.0);
  const double single_p99 = percentile(single_ns, 99.0);
  const double batched_p50 = percentile(batched_ns, 50.0);
  const double batched_p99 = percentile(batched_ns, 99.0);
  std::printf("\nsingle thread (per query):\n");
  std::printf("  lookup()          p50 %8.0f ns   p99 %8.0f ns\n", single_p50,
              single_p99);
  std::printf("  lookup_batch(%zu) p50 %8.0f ns   p99 %8.0f ns   (%.2fx p50)\n",
              kBatch, batched_p50, batched_p99, single_p50 / batched_p50);

  // --- phase 3: read-only scaling ---------------------------------------
  std::printf("\nread-only scaling (%d ms windows):\n", window_ms);
  const int thread_counts[] = {1, 8, 16, 32};
  PhaseResult read[4];
  for (int i = 0; i < 4; ++i) {
    read[i] = run_phase(cache, clusters, thread_counts[i], window_ms,
                        /*insert_every=*/0, /*seed=*/42);
    std::printf("  %2d threads: %9.0f qps   p50 %8.0f ns   p99 %8.0f ns\n",
                thread_counts[i], read[i].qps, read[i].p50_ns,
                read[i].p99_ns);
  }

  // --- phase 4: mixed 95/5 lookup/insert --------------------------------
  std::printf("\nmixed 95/5 lookup/insert:\n");
  PhaseResult mixed8 = run_phase(cache, clusters, 8, window_ms,
                                 /*insert_every=*/20, /*seed=*/43);
  PhaseResult mixed32 = run_phase(cache, clusters, 32, window_ms,
                                  /*insert_every=*/20, /*seed=*/44);
  std::printf("   8 threads: %9.0f qps   p50 %8.0f ns   p99 %8.0f ns\n",
              mixed8.qps, mixed8.p50_ns, mixed8.p99_ns);
  std::printf("  32 threads: %9.0f qps   p50 %8.0f ns   p99 %8.0f ns\n",
              mixed32.qps, mixed32.p50_ns, mixed32.p99_ns);

  const auto& c = cache.counters();
  const double hits = static_cast<double>(c.get("hit"));
  const double misses = static_cast<double>(c.get("miss"));
  const double hit_rate =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  std::printf("\nhit rate %.2f | mean candidates/query %.0f | size %zu\n",
              hit_rate, read[0].mean_candidates, cache.size());

  BenchJson json{"m4_concurrent", kDim, entries};
  // ns/query metrics: "speedup" = base/new reads as the improvement ratio.
  json.metric("single_lookup_p50", single_p50, batched_p50);
  json.metric("single_lookup_p99", single_p99, batched_p99);
  json.metric("read_ns_per_query_8t", read[0].ns_per_query,
              read[1].ns_per_query);
  json.metric("read_ns_per_query_16t", read[0].ns_per_query,
              read[2].ns_per_query);
  json.metric("read_ns_per_query_32t", read[0].ns_per_query,
              read[3].ns_per_query);
  json.metric("read_p99_8t", read[0].p99_ns, read[1].p99_ns);
  json.metric("mixed_p99_8t", read[1].p99_ns, mixed8.p99_ns);
  json.metric("mixed_p99_32t", read[3].p99_ns, mixed32.p99_ns);
  json.extra("hw_threads",
             static_cast<double>(std::thread::hardware_concurrency()));
  json.extra("qps_1t", read[0].qps);
  json.extra("qps_8t", read[1].qps);
  json.extra("qps_16t", read[2].qps);
  json.extra("qps_32t", read[3].qps);
  json.extra("mixed_qps_8t", mixed8.qps);
  json.extra("mixed_qps_32t", mixed32.qps);
  json.extra("hit_rate", hit_rate);
  json.extra("mean_candidates", read[0].mean_candidates);
  json.extra("preload_ns_per_insert",
             preload_ns / static_cast<double>(entries));
  json.extra("smoke", smoke ? 1.0 : 0.0);
  if (!json.write(json_path)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
