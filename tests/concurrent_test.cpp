// Concurrency tests for the shared ApproxCache: batched-vs-single parity,
// deferred side-effect folding, and N-readers/1-writer interleavings. The
// interleaved tests are the payload of the TSan CI leg — they pass trivially
// on a race-free build and light up under ThreadSanitizer otherwise.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "src/ann/adaptive_lsh.hpp"
#include "src/ann/qalsh.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/edge/edge_cache.hpp"
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

// Packs `count` fresh random unit vectors row-major, as lookup_batch wants.
std::vector<float> pack_queries(Rng& rng, std::size_t count) {
  std::vector<float> flat;
  flat.reserve(count * kDim);
  for (std::size_t i = 0; i < count; ++i) {
    const FeatureVec v = random_unit(rng);
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

void fill_cache(ApproxCache& cache, Rng& rng, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    cache.insert(random_unit(rng), static_cast<Label>(i % 16), 0.9f,
                 static_cast<SimTime>(i));
  }
}

// ------------------------------------------------------ Batch == single

struct ParityCase {
  const char* name;
  ApproxCacheConfig cfg;
};

std::vector<ParityCase> parity_cases() {
  ApproxCacheConfig q8 = test_config(IndexKind::kAdaptiveLsh);
  q8.alsh.lsh.quantize.enabled = true;
  return {{"exact", test_config(IndexKind::kExact)},
          {"lsh", test_config(IndexKind::kLsh)},
          {"adaptive-lsh", test_config(IndexKind::kAdaptiveLsh)},
          {"qalsh", test_config(IndexKind::kQalsh)},
          {"q8", q8}};
}

// The state the fold's index hook tunes: A-LSH's bucket width, QALSH's
// start radius (0 for the backends without a controller).
float controller_state(const ApproxCache& cache) {
  if (const auto* alsh =
          dynamic_cast<const AdaptiveLshIndex*>(&cache.index())) {
    return alsh->current_width();
  }
  if (const auto* qalsh = dynamic_cast<const QalshIndex*>(&cache.index())) {
    return qalsh->start_radius();
  }
  return 0.0f;
}

// lookup() is a batch of one plus an immediate fold: on twin caches, one
// driven by lookup() and one by lookup_batch(count = 1) + fold_scratch(),
// every result, counter, entry touch and controller state must agree after
// every query — for every backend, including the self-tuning ones whose
// controllers the fold feeds.
TEST(BatchParity, BatchMatchesSingleLookup) {
  for (const ParityCase& c : parity_cases()) {
    SCOPED_TRACE(c.name);
    ApproxCache single{kDim, c.cfg, make_lru_policy()};
    ApproxCache batched{kDim, c.cfg, make_lru_policy()};
    Rng rng{7};
    std::vector<FeatureVec> stored;
    for (std::size_t i = 0; i < 256; ++i) {
      stored.push_back(random_unit(rng));
      single.insert(stored.back(), static_cast<Label>(i % 16), 0.9f,
                    static_cast<SimTime>(i));
      batched.insert(stored.back(), static_cast<Label>(i % 16), 0.9f,
                     static_cast<SimTime>(i));
    }
    const float initial_state = controller_state(single);

    CacheQueryScratch scratch = batched.make_scratch();
    std::vector<CacheResult> out(1);
    constexpr std::size_t kQueries = 96;
    for (std::size_t i = 0; i < kQueries; ++i) {
      // Perturbed stored vectors (hits) interleaved with fresh ones.
      FeatureVec q = random_unit(rng);
      if (i % 2 == 0) {
        q = stored[(i * 37) % stored.size()];
        q[0] += 0.01f;
        normalize(q);
      }
      const SimTime now = static_cast<SimTime>(1000 + i);
      const CacheResult a = single.lookup({.features = q, .now = now});
      batched.lookup_batch({.features = q, .count = 1, .now = now}, out,
                           scratch);
      batched.fold_scratch(scratch);
      const CacheResult& b = out[0];
      ASSERT_EQ(a.vote.has_value(), b.vote.has_value()) << "query " << i;
      if (a.vote.has_value()) {
        EXPECT_EQ(a.vote->label, b.vote->label);
        EXPECT_EQ(a.vote->voters, b.vote->voters);
        EXPECT_EQ(a.vote->homogeneity, b.vote->homogeneity);
        EXPECT_EQ(a.vote->nearest_distance, b.vote->nearest_distance);
      }
      EXPECT_EQ(a.candidates, b.candidates) << "query " << i;
      EXPECT_EQ(a.latency, b.latency) << "query " << i;
      ASSERT_EQ(controller_state(single), controller_state(batched))
          << "query " << i;
    }

    EXPECT_GT(single.counters().get("hit"), 0u);
    EXPECT_GT(single.counters().get("miss"), 0u);
    EXPECT_EQ(single.counters().get("hit"), batched.counters().get("hit"));
    EXPECT_EQ(single.counters().get("miss"), batched.counters().get("miss"));
    single.for_each([&batched](const CacheEntry& e) {
      const CacheEntry* twin = batched.find(e.id);
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(e.access_count, twin->access_count) << "entry " << e.id;
      EXPECT_EQ(e.last_access, twin->last_access) << "entry " << e.id;
    });
    // The self-tuning backends' controllers really were fed.
    if (dynamic_cast<const AdaptiveLshIndex*>(&single.index()) != nullptr ||
        dynamic_cast<const QalshIndex*>(&single.index()) != nullptr) {
      EXPECT_NE(controller_state(single), initial_state);
    }
  }
}

TEST(BatchParity, BatchIsDeterministicAcrossRuns) {
  ApproxCache cache{kDim, test_config(IndexKind::kAdaptiveLsh),
                    make_lru_policy()};
  Rng rng{11};
  fill_cache(cache, rng, 256);
  constexpr std::size_t kQueries = 32;
  const std::vector<float> flat = pack_queries(rng, kQueries);
  const CacheQuery q{.features = flat, .count = kQueries, .now = 5};

  CacheQueryScratch s1 = cache.make_scratch();
  CacheQueryScratch s2 = cache.make_scratch();
  std::vector<CacheResult> a(kQueries), b(kQueries);
  cache.lookup_batch(q, a, s1);
  cache.lookup_batch(q, b, s2);  // no fold between: tables unchanged
  for (std::size_t i = 0; i < kQueries; ++i) {
    ASSERT_EQ(a[i].vote.has_value(), b[i].vote.has_value());
    if (a[i].vote.has_value()) {
      EXPECT_EQ(a[i].vote->label, b[i].vote->label);
    }
    EXPECT_EQ(a[i].candidates, b[i].candidates);
  }
}

// ------------------------------------------------------ Fold semantics

TEST(FoldScratch, SideEffectsDeferredUntilFold) {
  ApproxCache cache{kDim, test_config(IndexKind::kExact), make_lru_policy()};
  Rng rng{3};
  const FeatureVec hot = random_unit(rng);
  const VecId id = cache.insert(hot, 1, 0.9f, 0);

  CacheQueryScratch scratch = cache.make_scratch();
  std::vector<CacheResult> out(1);
  cache.lookup_batch({.features = hot, .count = 1, .now = 500}, out, scratch);
  ASSERT_TRUE(out[0].vote.has_value());

  // Nothing visible yet: counters untouched, entry untouched.
  EXPECT_EQ(cache.counters().get("hit"), 0u);
  EXPECT_EQ(cache.find(id)->access_count, 0u);
  EXPECT_EQ(scratch.pending_lookups(), 1u);
  EXPECT_EQ(scratch.pending_hits(), 1u);

  cache.fold_scratch(scratch);
  EXPECT_EQ(cache.counters().get("hit"), 1u);
  EXPECT_EQ(cache.find(id)->access_count, 1u);
  EXPECT_EQ(cache.find(id)->last_access, 500);
  EXPECT_EQ(scratch.pending_lookups(), 0u);
  EXPECT_EQ(scratch.pending_hits(), 0u);

  // A miss folds into the miss counter.
  FeatureVec far(kDim, 0.0f);
  far[kDim - 1] = 1.0f;
  cache.lookup_batch({.features = far, .count = 1, .now = 600}, out, scratch);
  EXPECT_FALSE(out[0].vote.has_value());
  cache.fold_scratch(scratch);
  EXPECT_EQ(cache.counters().get("miss"), 1u);
}

TEST(FoldScratch, FeedsAdaptiveWidthController) {
  // Start with a bucket width wildly off target so a single fold's worth of
  // d_k samples crosses the rebuild tolerance.
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
  const std::vector<float> flat = pack_queries(rng, kQueries);
  CacheQueryScratch scratch = cache.make_scratch();
  std::vector<CacheResult> out(kQueries);
  cache.lookup_batch({.features = flat, .count = kQueries, .now = 1},
                     out, scratch);
  cache.fold_scratch(scratch);

  // Unit vectors are never farther than 2 apart, so the EMA lands near 1-2
  // and the 64.0 width triggers a rebuild at fold time.
  EXPECT_GE(alsh->rebuild_count(), 1u);
  EXPECT_LT(alsh->current_width(), 64.0f);
}

// ------------------------------------------------------ API validation

TEST(BatchApi, BadSizesThrow) {
  ApproxCache cache{kDim, test_config(IndexKind::kExact), make_lru_policy()};
  Rng rng{5};
  const std::vector<float> flat = pack_queries(rng, 4);
  CacheQueryScratch scratch = cache.make_scratch();
  std::vector<CacheResult> out(4);

  // count disagrees with features.size().
  EXPECT_THROW(cache.lookup_batch({.features = flat, .count = 3}, out,
                                  scratch),
               std::invalid_argument);
  // results span too small.
  std::vector<CacheResult> tiny(2);
  EXPECT_THROW(cache.lookup_batch({.features = flat, .count = 4}, tiny,
                                  scratch),
               std::invalid_argument);
  // Single-frame entry points reject multi-frame requests.
  EXPECT_THROW((void)cache.lookup({.features = flat, .count = 4}),
               std::invalid_argument);
  EXPECT_THROW((void)cache.peek_vote({.features = flat, .count = 4}),
               std::invalid_argument);
  // An empty batch is a no-op, not an error.
  cache.lookup_batch({.features = {}, .count = 0}, out, scratch);
}

// ------------------------------------------------- Readers vs readers

void many_readers_see_identical_results(IndexKind kind) {
  ApproxCache cache{kDim, test_config(kind), make_lru_policy()};
  Rng rng{23};
  fill_cache(cache, rng, 256);
  constexpr std::size_t kQueries = 128;
  const std::vector<float> flat = pack_queries(rng, kQueries);
  const CacheQuery q{.features = flat, .count = kQueries, .now = 9};

  // Sequential reference.
  CacheQueryScratch ref_scratch = cache.make_scratch();
  std::vector<CacheResult> reference(kQueries);
  cache.lookup_batch(q, reference, ref_scratch);

  constexpr int kThreads = 8;
  std::vector<std::vector<CacheResult>> per_thread(
      kThreads, std::vector<CacheResult>(kQueries));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &q, &per_thread, t] {
      CacheQueryScratch scratch = cache.make_scratch();
      for (int round = 0; round < 4; ++round) {
        cache.lookup_batch(q, per_thread[static_cast<std::size_t>(t)],
                           scratch);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      const CacheResult& got = per_thread[static_cast<std::size_t>(t)][i];
      ASSERT_EQ(got.vote.has_value(), reference[i].vote.has_value())
          << "thread " << t << " query " << i;
      if (reference[i].vote.has_value()) {
        EXPECT_EQ(got.vote->label, reference[i].vote->label);
      }
      EXPECT_EQ(got.candidates, reference[i].candidates);
    }
  }
}

TEST(ConcurrentReads, ManyReadersSeeIdenticalResults) {
  many_readers_see_identical_results(IndexKind::kLsh);
}

TEST(ConcurrentReads, QalshManyReadersSeeIdenticalResults) {
  many_readers_see_identical_results(IndexKind::kQalsh);
}

// A-LSH's query path is read-only too: its width controller learns only at
// fold time, under the exclusive lock.
TEST(ConcurrentReads, AdaptiveLshManyReadersSeeIdenticalResults) {
  many_readers_see_identical_results(IndexKind::kAdaptiveLsh);
}

// ------------------------------------------------- Readers vs writer

void readers_survive_writer_churn(IndexKind kind) {
  ApproxCacheConfig cfg = test_config(kind, /*capacity=*/256);
  ApproxCache cache{kDim, cfg, make_lru_policy()};
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
      CacheQueryScratch scratch = cache.make_scratch();
      constexpr std::size_t kBatch = 16;
      std::vector<CacheResult> out(kBatch);
      std::uint64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<float> flat = pack_queries(rng, kBatch);
        cache.lookup_batch(
            {.features = flat, .count = kBatch, .now = 1}, out, scratch);
        for (const CacheResult& r : out) {
          // Latency always includes the base cost; a torn read of the
          // entry map or index arenas would break this (and TSan barks).
          EXPECT_GE(r.latency, cache.config().lookup_base_latency);
        }
        done += kBatch;
        if ((done & 0xff) == 0) cache.fold_scratch(scratch);
      }
      cache.fold_scratch(scratch);
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
  // Folded tallies landed: hits + misses == lookups answered.
  EXPECT_EQ(cache.counters().get("hit") + cache.counters().get("miss"),
            total_lookups.load());
}

TEST(ConcurrentReadWrite, ReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kLsh);
}

// The QALSH read path walks sorted lines, pending tails, and the alive
// bitmap that insert/remove/compact mutate — the TSan leg proves the
// reader-writer split covers all of them.
TEST(ConcurrentReadWrite, QalshReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kQalsh);
}

// The readers' periodic folds feed A-LSH's width controller, which may
// rebuild every table while other readers wait on the shared lock.
TEST(ConcurrentReadWrite, AdaptiveLshReadersSurviveWriterChurn) {
  readers_survive_writer_churn(IndexKind::kAdaptiveLsh);
}

TEST(ConcurrentReadWrite, SharedReadSurfaceDuringBatches) {
  // find/for_each/entries_since/size share the read lock with lookup_batch;
  // hammer them together against a writer.
  ApproxCache cache{kDim, test_config(IndexKind::kExact, 128),
                    make_lru_policy()};
  Rng seed_rng{41};
  fill_cache(cache, seed_rng, 64);

  std::atomic<bool> stop{false};
  std::thread batcher([&cache, &stop] {
    Rng rng{1};
    CacheQueryScratch scratch = cache.make_scratch();
    std::vector<CacheResult> out(8);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<float> flat = pack_queries(rng, 8);
      cache.lookup_batch({.features = flat, .count = 8}, out, scratch);
    }
  });
  std::thread scanner([&cache, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t n = 0;
      cache.for_each([&n](const CacheEntry&) { ++n; });
      EXPECT_LE(n, cache.capacity());
      (void)cache.entries_since(0);
      (void)cache.size();
      (void)cache.find(1);
    }
  });
  std::thread writer([&cache, &stop] {
    Rng rng{2};
    for (int op = 0; op < 2000; ++op) {
      cache.insert(random_unit(rng), static_cast<Label>(op % 8), 0.9f,
                   static_cast<SimTime>(op));
    }
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  batcher.join();
  scanner.join();
  EXPECT_LE(cache.size(), cache.capacity());
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
  const Counter& c = svc.counters();
  EXPECT_EQ(c.get("lookup"), queries.load());
  EXPECT_EQ(c.get("feed"), feeds.load());
  EXPECT_EQ(c.get("admit") + c.get("reject_budget"), feeds.load());
  EXPECT_LE(svc.size(), params.shards * params.capacity);
}

}  // namespace
}  // namespace apx
