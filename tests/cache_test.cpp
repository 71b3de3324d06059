// Unit tests for the approximate cache, eviction policies, and the
// exact-match baseline cache.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/ann/qalsh.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/cache/exact_cache.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 8;

FeatureVec unit_at(float angle) {
  FeatureVec v(kDim, 0.0f);
  v[0] = std::cos(angle);
  v[1] = std::sin(angle);
  return v;
}

ApproxCacheConfig small_config(IndexKind index = IndexKind::kExact) {
  ApproxCacheConfig cfg;
  cfg.capacity = 8;
  cfg.index = index;
  cfg.hknn.k = 3;
  cfg.hknn.max_distance = 0.3f;
  cfg.hknn.homogeneity_threshold = 0.7f;
  return cfg;
}

ApproxCache make_cache(IndexKind index = IndexKind::kExact,
                       std::size_t capacity = 8) {
  auto cfg = small_config(index);
  cfg.capacity = capacity;
  return ApproxCache{kDim, cfg, make_lru_policy()};
}

// ------------------------------------------------------------ ApproxCache

TEST(ApproxCache, BadConfigThrows) {
  EXPECT_THROW(ApproxCache(0, small_config(), make_lru_policy()),
               std::invalid_argument);
  auto cfg = small_config();
  cfg.capacity = 0;
  EXPECT_THROW(ApproxCache(kDim, cfg, make_lru_policy()),
               std::invalid_argument);
  EXPECT_THROW(ApproxCache(kDim, small_config(), nullptr),
               std::invalid_argument);
}

// Feature-size checks throw instead of asserting, so they hold in release
// builds too (P2P merges feed insert() with peer-decoded vectors).
TEST(ApproxCache, LookupRejectsWrongFeatureSize) {
  auto cache = make_cache();
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  const FeatureVec short_key(kDim - 1, 0.5f);
  EXPECT_THROW(cache.lookup({.features = short_key, .now = 1}),
               std::invalid_argument);
  EXPECT_EQ(metrics.counter_value("cache/miss"), 0u);
}

TEST(ApproxCache, PeekAndNearestRejectWrongFeatureSize) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  const FeatureVec long_key(kDim + 1, 0.5f);
  EXPECT_THROW((void)cache.peek_vote({.features = long_key}),
               std::invalid_argument);
  EXPECT_THROW((void)cache.nearest_distance(long_key), std::invalid_argument);
}

TEST(ApproxCache, InsertRejectsWrongFeatureSizeBeforeAnyChange) {
  auto cache = make_cache();
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  EXPECT_THROW(cache.insert(FeatureVec(kDim + 1, 0.5f), 5, 0.9f, 0),
               std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(metrics.counter_value("cache/insert"), 0u);
  // The cache still works after the rejected insert.
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  EXPECT_EQ(cache.size(), 1u);
}

// Non-finite keys are rejected before any change, on every backend: on the
// LSH family a NaN or infinity would reach the float-to-integer bucket cast.
TEST(ApproxCache, NonFiniteKeysThrowBeforeAnyChange) {
  for (const IndexKind kind : {IndexKind::kExact, IndexKind::kLsh,
                               IndexKind::kAdaptiveLsh, IndexKind::kQalsh}) {
    SCOPED_TRACE(to_string(kind));
    auto cache = make_cache(kind);
    MetricsRegistry metrics;
    cache.attach_metrics(metrics);
    cache.insert(unit_at(0.0f), 5, 0.9f, 0);
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      FeatureVec key = unit_at(0.0f);
      key[kDim / 2] = bad;
      EXPECT_THROW((void)cache.lookup({.features = key, .now = 1}),
                   std::invalid_argument);
      EXPECT_THROW((void)cache.peek_vote({.features = key}),
                   std::invalid_argument);
      EXPECT_THROW((void)cache.nearest_distance(key), std::invalid_argument);
      EXPECT_THROW(cache.insert(key, 6, 0.9f, 1), std::invalid_argument);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(metrics.counter_value("cache/hit"), 0u);
    EXPECT_EQ(metrics.counter_value("cache/miss"), 0u);
    EXPECT_EQ(metrics.counter_value("cache/insert"), 1u);
    // The cache still answers a valid key.
    EXPECT_TRUE(
        cache.lookup({.features = unit_at(0.0f), .now = 2}).vote.has_value());
  }
}

TEST(ApproxCache, EmptyLookupMisses) {
  auto cache = make_cache();
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  const auto result = cache.lookup({.features = unit_at(0.0f), .now = 0});
  EXPECT_FALSE(result.vote.has_value());
  EXPECT_EQ(metrics.counter_value("cache/miss"), 1u);
}

TEST(ApproxCache, NearbyFeatureHits) {
  auto cache = make_cache();
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  const auto result = cache.lookup({.features = unit_at(0.05f), .now = 1});
  ASSERT_TRUE(result.vote.has_value());
  EXPECT_EQ(result.vote->label, 5);
  EXPECT_EQ(metrics.counter_value("cache/hit"), 1u);
}

TEST(ApproxCache, FarFeatureMisses) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  const auto result = cache.lookup({.features = unit_at(1.5f), .now = 1});
  EXPECT_FALSE(result.vote.has_value());
}

TEST(ApproxCache, ThresholdScaleRelaxesMatch) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  // 0.35 rad apart: just beyond max_distance 0.3 (chord ~0.35).
  EXPECT_FALSE(cache.lookup({.features = unit_at(0.35f),
                             .now = 1,
                             .threshold_scale = 1.0f})
                   .vote.has_value());
  EXPECT_TRUE(cache.lookup({.features = unit_at(0.35f),
                            .now = 2,
                            .threshold_scale = 1.5f})
                  .vote.has_value());
}

TEST(ApproxCache, ThresholdScaleTightensMatch) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 5, 0.9f, 0);
  EXPECT_TRUE(cache.lookup({.features = unit_at(0.25f),
                            .now = 1,
                            .threshold_scale = 1.0f})
                  .vote.has_value());
  EXPECT_FALSE(cache.lookup({.features = unit_at(0.25f),
                             .now = 2,
                             .threshold_scale = 0.5f})
                   .vote.has_value());
}

TEST(ApproxCache, MixedLabelsAbstain) {
  // The query sits equidistant between two conflicting labels, so neither
  // side can reach the homogeneity threshold.
  auto cache = make_cache();
  cache.insert(unit_at(0.00f), 1, 0.9f, 0);
  cache.insert(unit_at(0.04f), 2, 0.9f, 0);
  const auto result = cache.lookup({.features = unit_at(0.02f), .now = 1});
  EXPECT_FALSE(result.vote.has_value());
}

TEST(ApproxCache, PlainVoteModeAnswersWhereHknnAbstains) {
  auto cfg = small_config();
  cfg.hknn.require_homogeneity = false;
  ApproxCache cache{kDim, cfg, make_lru_policy()};
  cache.insert(unit_at(0.00f), 1, 0.9f, 0);
  cache.insert(unit_at(0.04f), 2, 0.9f, 0);
  // Equidistant conflicting labels: H-kNN abstains (see MixedLabelsAbstain)
  // but the plain vote must answer.
  EXPECT_TRUE(cache.lookup({.features = unit_at(0.02f), .now = 1}).vote.has_value());
}

TEST(ApproxCache, ExactMatchDominatesMixedNeighborhood) {
  // An exact-distance match outweighs conflicting far neighbours in the
  // distance-weighted vote (weight ~ 1/eps).
  auto cache = make_cache();
  cache.insert(unit_at(0.00f), 1, 0.9f, 0);
  cache.insert(unit_at(0.02f), 2, 0.9f, 0);
  cache.insert(unit_at(0.04f), 3, 0.9f, 0);
  const auto result = cache.lookup({.features = unit_at(0.02f), .now = 1});
  ASSERT_TRUE(result.vote.has_value());
  EXPECT_EQ(result.vote->label, 2);
}

TEST(ApproxCache, CapacityEnforced) {
  auto cache = make_cache(IndexKind::kExact, 4);
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  for (int i = 0; i < 10; ++i) {
    cache.insert(unit_at(static_cast<float>(i)), i, 0.9f, i);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(metrics.counter_value("cache/evict"), 6u);
}

TEST(ApproxCache, LruEvictsOldest) {
  auto cache = make_cache(IndexKind::kExact, 2);
  const VecId a = cache.insert(unit_at(0.0f), 1, 0.9f, 0);
  const VecId b = cache.insert(unit_at(1.0f), 2, 0.9f, 1);
  // Touch a via lookup so b becomes the LRU victim.
  ASSERT_TRUE(cache.lookup({.features = unit_at(0.0f), .now = 10}).vote.has_value());
  cache.insert(unit_at(2.0f), 3, 0.9f, 11);
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_EQ(cache.find(b), nullptr);
}

TEST(ApproxCache, RemoveErasesEntry) {
  auto cache = make_cache();
  const VecId id = cache.insert(unit_at(0.0f), 1, 0.9f, 0);
  EXPECT_TRUE(cache.remove(id));
  EXPECT_FALSE(cache.remove(id));
  EXPECT_EQ(cache.find(id), nullptr);
  EXPECT_FALSE(cache.lookup({.features = unit_at(0.0f), .now = 1}).vote.has_value());
}

TEST(ApproxCache, FindReturnsMetadata) {
  auto cache = make_cache();
  const VecId id =
      cache.insert(unit_at(0.0f), 7, 0.8f, 42, EntryOrigin::kPeer, 2, 9);
  const CacheEntry* entry = cache.find(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->label, 7);
  EXPECT_FLOAT_EQ(entry->confidence, 0.8f);
  EXPECT_EQ(entry->insert_time, 42);
  EXPECT_EQ(entry->origin, EntryOrigin::kPeer);
  EXPECT_EQ(entry->hop_count, 2);
  EXPECT_EQ(entry->source_device, 9u);
}

TEST(ApproxCache, HitTouchesVoters) {
  auto cache = make_cache();
  const VecId id = cache.insert(unit_at(0.0f), 1, 0.9f, 0);
  ASSERT_TRUE(cache.lookup({.features = unit_at(0.01f), .now = 100}).vote.has_value());
  const CacheEntry* entry = cache.find(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->access_count, 1u);
  EXPECT_EQ(entry->last_access, 100);
}

TEST(ApproxCache, NearestDistanceEmptyIsNullopt) {
  auto cache = make_cache();
  EXPECT_FALSE(cache.nearest_distance(unit_at(0.0f)).has_value());
}

TEST(ApproxCache, NearestDistanceFindsClosest) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 1, 0.9f, 0);
  const auto d = cache.nearest_distance(unit_at(0.0f));
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 0.0f, 1e-6f);
}

// Pins what peek_vote() and nearest_distance() do today: of lookup()'s
// fold they apply only the index hook — one ANN instrument sample and one
// controller sample per call — and nothing else. Making them
// side-effect-free is a deliberate change that must edit this test.
TEST(ApproxCache, PeekAndNearestApplyOnlyTheIndexHook) {
  auto cfg = small_config(IndexKind::kQalsh);
  cfg.capacity = 64;
  ApproxCache cache{kDim, cfg, make_lru_policy()};
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  for (int i = 0; i < 32; ++i) {
    cache.insert(unit_at(0.05f * static_cast<float>(i)),
                 static_cast<Label>(i / 8), 0.9f, i);
  }
  const auto* qalsh = dynamic_cast<const QalshIndex*>(&cache.index());
  ASSERT_NE(qalsh, nullptr);
  ASSERT_EQ(qalsh->start_radius(), cfg.qalsh.r0);
  const auto samples = [&metrics](const char* name) {
    const MetricsRegistry::Histogram* h = metrics.find_histogram(name);
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const auto expect_no_cache_side_effects = [&] {
    EXPECT_EQ(metrics.counter_value("cache/hit"), 0u);
    EXPECT_EQ(metrics.counter_value("cache/miss"), 0u);
    EXPECT_EQ(samples("cache/lookup_us"), 0u);
    EXPECT_EQ(samples("cache/nearest_distance"), 0u);
    cache.for_each([](const CacheEntry& e) {
      EXPECT_EQ(e.access_count, 0u) << "entry " << e.id;
      EXPECT_EQ(e.last_access, e.insert_time) << "entry " << e.id;
    });
  };
  const float c = cfg.qalsh.c;

  // nearest_distance: k = 1, so the controller's one sample is the nearest
  // distance itself. A fresh EMA takes its first sample verbatim.
  const FeatureVec q1 = unit_at(0.42f);
  const auto nearest = cache.nearest_distance(q1);
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(samples("ann/candidates"), 1u);
  EXPECT_FLOAT_EQ(qalsh->start_radius(), *nearest / c);
  expect_no_cache_side_effects();

  // peek_vote: k = hknn.k; its one sample is the k-th neighbour distance,
  // EMA'd onto the first.
  const FeatureVec q2 = unit_at(1.07f);
  const auto vote = cache.peek_vote({.features = q2, .now = 500});
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(samples("ann/candidates"), 2u);
  EXPECT_EQ(samples("ann/qalsh/rounds"), 2u);
  const float kth = cache.index().query(q2, cfg.hknn.k).back().distance;
  double ema = static_cast<double>(*nearest);
  ema += 0.1 * (static_cast<double>(kth) - ema);
  EXPECT_FLOAT_EQ(qalsh->start_radius(), static_cast<float>(ema) / c);
  expect_no_cache_side_effects();
}

TEST(ApproxCache, EntriesSinceFiltersAndSorts) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 1, 0.9f, 10);
  cache.insert(unit_at(1.0f), 2, 0.9f, 30);
  cache.insert(unit_at(2.0f), 3, 0.9f, 20);
  const auto since = cache.entries_since(15);
  ASSERT_EQ(since.size(), 2u);
  EXPECT_EQ(since[0].insert_time, 20);
  EXPECT_EQ(since[1].insert_time, 30);
}

TEST(ApproxCache, ForEachVisitsAll) {
  auto cache = make_cache();
  cache.insert(unit_at(0.0f), 1, 0.9f, 0);
  cache.insert(unit_at(1.0f), 2, 0.9f, 0);
  int visits = 0;
  cache.for_each([&](const CacheEntry&) { ++visits; });
  EXPECT_EQ(visits, 2);
}

TEST(ApproxCache, LatencyGrowsWithCandidates) {
  auto cfg = small_config(IndexKind::kExact);
  cfg.capacity = 100;
  cfg.lookup_base_latency = 100;
  cfg.per_candidate_latency = 10;
  ApproxCache cache{kDim, cfg, make_lru_policy()};
  const auto empty = cache.lookup({.features = unit_at(0.0f), .now = 0});
  EXPECT_EQ(empty.latency, 100);
  for (int i = 0; i < 10; ++i) {
    cache.insert(unit_at(static_cast<float>(i)), i, 0.9f, 0);
  }
  const auto full = cache.lookup({.features = unit_at(0.0f), .now = 1});
  EXPECT_EQ(full.latency, 100 + 10 * 10);
  EXPECT_EQ(full.candidates, 10u);
}

TEST(ApproxCache, WorksWithAllIndexKinds) {
  for (const IndexKind kind :
       {IndexKind::kExact, IndexKind::kLsh, IndexKind::kAdaptiveLsh}) {
    auto cache = make_cache(kind, 32);
    cache.insert(unit_at(0.0f), 5, 0.9f, 0);
    const auto result = cache.lookup({.features = unit_at(0.0f), .now = 1});
    ASSERT_TRUE(result.vote.has_value())
        << "kind=" << static_cast<int>(kind);
    EXPECT_EQ(result.vote->label, 5);
  }
}

// ------------------------------------------------------------ Eviction

CacheEntry entry_with(SimTime last_access, std::uint32_t access_count,
                      std::uint8_t hops = 0, float confidence = 1.0f) {
  CacheEntry e;
  e.last_access = last_access;
  e.access_count = access_count;
  e.hop_count = hops;
  e.confidence = confidence;
  return e;
}

TEST(Eviction, LruScoresByRecency) {
  const auto policy = make_lru_policy();
  EXPECT_LT(policy->score(entry_with(10, 5), 100),
            policy->score(entry_with(20, 0), 100));
}

TEST(Eviction, LfuScoresByFrequency) {
  const auto policy = make_lfu_policy();
  EXPECT_LT(policy->score(entry_with(99, 1), 100),
            policy->score(entry_with(1, 5), 100));
}

TEST(Eviction, LfuTieBreaksByRecency) {
  const auto policy = make_lfu_policy();
  EXPECT_LT(policy->score(entry_with(10, 3), 100),
            policy->score(entry_with(90, 3), 100));
}

TEST(Eviction, UtilityPrefersLocalOverRemote) {
  const auto policy = make_utility_policy();
  EXPECT_GT(policy->score(entry_with(50, 2, 0), 100),
            policy->score(entry_with(50, 2, 2), 100));
}

TEST(Eviction, UtilityDecaysWithAge) {
  const auto policy = make_utility_policy();
  EXPECT_GT(policy->score(entry_with(90 * kSecond, 2), 100 * kSecond),
            policy->score(entry_with(10 * kSecond, 2), 100 * kSecond));
}

TEST(Eviction, UtilityDiscountsLowConfidence) {
  const auto policy = make_utility_policy();
  EXPECT_GT(policy->score(entry_with(50, 2, 0, 1.0f), 100),
            policy->score(entry_with(50, 2, 0, 0.2f), 100));
}

TEST(Eviction, PolicyNames) {
  EXPECT_EQ(make_lru_policy()->name(), "lru");
  EXPECT_EQ(make_lfu_policy()->name(), "lfu");
  EXPECT_EQ(make_utility_policy()->name(), "utility");
}

// ------------------------------------------------------------ ExactCache

TEST(ExactCache, BadParamsThrow) {
  EXPECT_THROW(ExactCache(0), std::invalid_argument);
  EXPECT_THROW(ExactCache(4, 0.0f), std::invalid_argument);
}

TEST(ExactCache, ExactMatchHits) {
  ExactCache cache{4};
  const FeatureVec v = unit_at(0.3f);
  cache.insert(v, 9);
  const auto hit = cache.lookup(v);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 9);
}

TEST(ExactCache, PerturbedFeatureMisses) {
  ExactCache cache{4, 64.0f};
  FeatureVec v = unit_at(0.3f);
  cache.insert(v, 9);
  v[0] += 0.1f;  // larger than a quantization step
  EXPECT_FALSE(cache.lookup(v).has_value());
}

TEST(ExactCache, TinyPerturbationWithinStepStillHits) {
  ExactCache cache{4, 16.0f};  // coarse grid: step 1/16
  FeatureVec v = unit_at(0.3f);
  cache.insert(v, 9);
  v[0] += 0.001f;
  EXPECT_TRUE(cache.lookup(v).has_value());
}

TEST(ExactCache, LruEvictionAtCapacity) {
  ExactCache cache{2};
  cache.insert(unit_at(0.0f), 1);
  cache.insert(unit_at(1.0f), 2);
  // Touch the first so the second is evicted.
  ASSERT_TRUE(cache.lookup(unit_at(0.0f)).has_value());
  cache.insert(unit_at(2.0f), 3);
  EXPECT_TRUE(cache.lookup(unit_at(0.0f)).has_value());
  EXPECT_FALSE(cache.lookup(unit_at(1.0f)).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExactCache, ReinsertUpdatesLabel) {
  ExactCache cache{4};
  const FeatureVec v = unit_at(0.0f);
  cache.insert(v, 1);
  cache.insert(v, 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.lookup(v), 2);
}

TEST(ExactCache, CountersTrackActivity) {
  ExactCache cache{4};
  cache.lookup(unit_at(0.0f));
  cache.insert(unit_at(0.0f), 1);
  cache.lookup(unit_at(0.0f));
  EXPECT_EQ(cache.counters().get("miss"), 1u);
  EXPECT_EQ(cache.counters().get("hit"), 1u);
  EXPECT_EQ(cache.counters().get("insert"), 1u);
}

}  // namespace
}  // namespace apx
