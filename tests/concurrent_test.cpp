// Concurrency tests for the shared ApproxCache: the lookup fold feeding the
// index controller, and N-readers/1-writer interleavings over the one
// locked query path. The interleaved tests are the payload of the TSan CI
// leg — they pass trivially on a race-free build and light up under
// ThreadSanitizer otherwise.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "src/ann/adaptive_lsh.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 16;

FeatureVec random_unit(Rng& rng, std::size_t dim = kDim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

ApproxCacheConfig test_config(IndexKind index, std::size_t capacity = 512) {
  ApproxCacheConfig cfg;
  cfg.capacity = capacity;
  cfg.index = index;
  cfg.hknn.k = 4;
  cfg.hknn.max_distance = 0.8f;
  cfg.hknn.homogeneity_threshold = 0.6f;
  return cfg;
}

void fill_cache(ApproxCache& cache, Rng& rng, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    cache.insert(random_unit(rng), static_cast<Label>(i % 16), 0.9f,
                 static_cast<SimTime>(i));
  }
}

// ------------------------------------------------------ Lookup fold

TEST(FoldScratch, FeedsAdaptiveWidthController) {
  // Start with a bucket width wildly off target so a few lookups' worth of
  // d_k samples cross the rebuild tolerance.
  ApproxCacheConfig cfg = test_config(IndexKind::kAdaptiveLsh);
  cfg.alsh.lsh.bucket_width = 64.0f;
  cfg.alsh.width_factor = 8.0f;
  cfg.alsh.min_queries_between_rebuilds = 4;
  cfg.alsh.min_size_to_adapt = 4;
  ApproxCache cache{kDim, cfg, make_lru_policy()};
  Rng rng{19};
  fill_cache(cache, rng, 64);

  const auto* alsh = dynamic_cast<const AdaptiveLshIndex*>(&cache.index());
  ASSERT_NE(alsh, nullptr);
  ASSERT_EQ(alsh->rebuild_count(), 0u);

  constexpr std::size_t kQueries = 16;
  for (std::size_t i = 0; i < kQueries; ++i) {
    (void)cache.lookup({.features = random_unit(rng), .now = 1});
  }

  // Unit vectors are never farther than 2 apart, so the EMA lands near 1-2
  // and the 64.0 width triggers a rebuild inside a lookup's fold.
  EXPECT_GE(alsh->rebuild_count(), 1u);
  EXPECT_LT(alsh->current_width(), 64.0f);
}

// ------------------------------------------------- Readers vs writer

// N reader threads drive every locked read entry point — lookup, peek_vote,
// nearest_distance, find, size, for_each, entries_since — while one writer
// inserts, removes and clears. Each lookup folds its side effects (touches,
// hit/miss, the index hook, which may rebuild A-LSH tables) under the same
// lock the writer takes.
void readers_survive_writer_churn(IndexKind kind) {
  ApproxCacheConfig cfg = test_config(kind, /*capacity=*/256);
  ApproxCache cache{kDim, cfg, make_lru_policy()};
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  Rng seed_rng{31};
  fill_cache(cache, seed_rng, 128);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_lookups{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&cache, &stop, &total_lookups, t] {
      Rng rng{100 + static_cast<std::uint64_t>(t)};
      std::uint64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const FeatureVec q = random_unit(rng);
        const double dice = rng.uniform();
        if (dice < 0.6) {
          const CacheResult r = cache.lookup({.features = q, .now = 1});
          // Latency always includes the base cost; a torn read of the
          // entry map or index arenas would break this (and TSan barks).
          EXPECT_GE(r.latency, cache.config().lookup_base_latency);
          ++done;
        } else if (dice < 0.7) {
          (void)cache.peek_vote({.features = q});
        } else if (dice < 0.8) {
          (void)cache.nearest_distance(q);
        } else if (dice < 0.9) {
          (void)cache.find(rng.uniform_u64(512));
          EXPECT_LE(cache.size(), cache.capacity());
        } else {
          std::size_t n = 0;
          cache.for_each([&n](const CacheEntry&) { ++n; });
          EXPECT_LE(n, cache.capacity());
          (void)cache.entries_since(0);
        }
      }
      total_lookups.fetch_add(done, std::memory_order_relaxed);
    });
  }

  std::thread writer([&cache, &stop] {
    Rng rng{77};
    std::vector<VecId> ids;
    SimTime now = 1000;
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.70 || ids.empty()) {
        ids.push_back(cache.insert(random_unit(rng),
                                   static_cast<Label>(rng.uniform_u64(16)),
                                   0.9f, now++));
      } else if (dice < 0.95) {
        (void)cache.remove(ids[rng.uniform_u64(ids.size())]);
      } else {
        cache.clear();
        ids.clear();
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& th : readers) th.join();

  EXPECT_LE(cache.size(), cfg.capacity);
  EXPECT_GT(total_lookups.load(), 0u);
  // Only lookups tally: hits + misses == lookups answered.
  EXPECT_EQ(metrics.counter_value("cache/hit") +
                metrics.counter_value("cache/miss"),
            total_lookups.load());
  // Still serves queries after the churn.
  const CacheResult r = cache.lookup({.features = random_unit(seed_rng)});
  EXPECT_GE(r.latency, cfg.lookup_base_latency);
}

TEST(ConcurrentReadWrite, ReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kLsh);
}

TEST(ConcurrentReadWrite, ExactReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kExact);
}

// The QALSH query path walks sorted lines, pending tails, and the alive
// bitmap that insert/remove/compact mutate — the TSan leg proves the one
// lock covers all of them.
TEST(ConcurrentReadWrite, QalshReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kQalsh);
}

// Every lookup's fold feeds A-LSH's width controller, which may rebuild
// every table while other readers wait on the lock.
TEST(ConcurrentReadWrite, AdaptiveLshReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kAdaptiveLsh);
}

// ------------------------------------------------------- Edge service

// Many threads hammer one EdgeCacheService with the full direct API mix.
// Each shard serializes its own mutations and the service counters sit
// behind a mutex, so the test passes trivially on a race-free build and
// lights up under TSan otherwise.
TEST(EdgeConcurrent, MixedQueryFeedSweepHammer) {
  EdgeParams params;
  params.shards = 4;
  params.capacity = 64;
  params.error_budget = 1.0f;
  // Tight TTL on a microsecond clock: sweeps race feeds over live entries
  // instead of no-oping on an empty expiry set.
  params.ttl = 20'000;
  params.cache.hknn.max_distance = 0.8f;
  EdgeCacheService svc{kDim, params};
  MetricsRegistry metrics;
  svc.attach_metrics(metrics);

  constexpr int kThreads = 16;  // ISSUE calls for 8-32
  constexpr int kOpsPerThread = 400;
  std::atomic<std::uint64_t> queries{0}, feeds{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&svc, &params, &queries, &feeds, t] {
      Rng rng{900 + static_cast<std::uint64_t>(t)};
      for (int op = 0; op < kOpsPerThread; ++op) {
        const SimTime now = static_cast<SimTime>(op) * 100;
        const double dice = rng.uniform();
        if (dice < 0.45) {
          const CacheResult res = svc.query(random_unit(rng), now);
          EXPECT_GE(res.latency, svc.params().cache.lookup_base_latency);
          queries.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 0.85) {
          (void)svc.feed(random_unit(rng),
                         static_cast<Label>(rng.uniform_u64(16)), 0.9f, now);
          feeds.fetch_add(1, std::memory_order_relaxed);
        } else if (dice < 0.95) {
          (void)svc.sweep(now);
        } else {
          EXPECT_LE(svc.size(), params.shards * params.capacity);
        }
      }
    });
  }
  for (auto& th : workers) th.join();

  // Quiescent now: the tallies must balance exactly.
  const auto count = [&metrics](const char* name) {
    return metrics.counter_value(name);
  };
  EXPECT_EQ(count("edge/srv_lookup"), queries.load());
  EXPECT_EQ(count("edge/srv_feed"), feeds.load());
  EXPECT_EQ(count("edge/srv_admit") + count("edge/srv_reject_budget"),
            feeds.load());
  EXPECT_LE(svc.size(), params.shards * params.capacity);
}

}  // namespace
}  // namespace apx
