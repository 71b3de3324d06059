// Unit tests for the edge aggregation tier (src/edge): shard routing
// determinism, the error-controlled admission gate, TTL expiry exactly at
// the sim-clock boundary, per-shard capacity eviction, edge hits refreshing
// the temporal keyframe, and byte-identical same-seed metrics exports with
// the edge rung enabled.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <optional>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/dnn/oracle.hpp"
#include "src/dnn/zoo.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/edge/edge_client.hpp"
#include "src/features/extractor.hpp"
#include "src/image/scene.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 8;

/// Unit vector along axis `i` (negated when sign < 0): pairwise distance
/// sqrt(2), far outside every max_distance used here.
FeatureVec axis(std::size_t i, float sign = 1.0f) {
  FeatureVec v(kDim, 0.0f);
  v[i % kDim] = sign;
  return v;
}

/// Deterministic vote geometry: exact index, no LSH width adaptation.
EdgeParams exact_params() {
  EdgeParams p;
  p.shards = 1;
  p.cache.index = IndexKind::kExact;
  p.cache.hknn.max_distance = 0.3f;
  return p;
}

// ------------------------------------------------------------ shard routing

TEST(EdgeShards, RoutingIsDeterministicAcrossInstances) {
  EdgeParams p;
  p.shards = 4;
  const EdgeCacheService a{kDim, p}, b{kDim, p};
  std::mt19937 rng{42};
  std::normal_distribution<float> dist;
  for (int trial = 0; trial < 200; ++trial) {
    FeatureVec v(kDim);
    for (float& x : v) x = dist(rng);
    const std::size_t shard = a.shard_of(v);
    EXPECT_LT(shard, a.shard_count());
    // A pure function of (dim, shards, features): every instance agrees.
    EXPECT_EQ(shard, b.shard_of(v));
  }
}

TEST(EdgeShards, NonPowerOfTwoShardCountsStayInRange) {
  EdgeParams p;
  p.shards = 3;
  const EdgeCacheService svc{kDim, p};
  std::mt19937 rng{7};
  std::normal_distribution<float> dist;
  for (int trial = 0; trial < 200; ++trial) {
    FeatureVec v(kDim);
    for (float& x : v) x = dist(rng);
    EXPECT_LT(svc.shard_of(v), 3u);
  }
}

TEST(EdgeShards, FeedLandsInTheRoutedShard) {
  EdgeParams p;
  p.shards = 4;
  p.error_budget = 1.0f;
  EdgeCacheService svc{kDim, p};
  const FeatureVec v = axis(0);
  ASSERT_TRUE(svc.feed(v, /*label=*/1, /*confidence=*/0.9f, /*now=*/0));
  const std::size_t routed = svc.shard_of(v);
  EXPECT_EQ(svc.shard(routed).size(), 1u);
  for (std::size_t s = 0; s < svc.shard_count(); ++s) {
    if (s != routed) {
      EXPECT_EQ(svc.shard(s).size(), 0u);
    }
  }
  // And the query for the same key answers from that shard.
  const CacheResult res = svc.query(v, /*now=*/1);
  ASSERT_TRUE(res.vote.has_value());
  EXPECT_EQ(res.vote->label, 1);
}

TEST(EdgeShards, ConstructorRejectsInvalidParams) {
  EXPECT_THROW(EdgeCacheService(0, EdgeParams{}), std::invalid_argument);
  {
    EdgeParams p;
    p.shards = 0;
    EXPECT_THROW(EdgeCacheService(kDim, p), std::invalid_argument);
  }
  {
    EdgeParams p;
    p.capacity = 0;
    EXPECT_THROW(EdgeCacheService(kDim, p), std::invalid_argument);
  }
  {
    EdgeParams p;
    p.ttl = 0;
    EXPECT_THROW(EdgeCacheService(kDim, p), std::invalid_argument);
  }
  {
    EdgeParams p;
    p.error_budget = 1.5f;
    EXPECT_THROW(EdgeCacheService(kDim, p), std::invalid_argument);
  }
}

// A bad key is rejected before the feed is counted.
TEST(EdgeShards, FeedRejectsBadKeyBeforeCounting) {
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  EdgeCacheService svc{kDim, p};
  MetricsRegistry metrics;
  svc.attach_metrics(metrics);
  EXPECT_THROW((void)svc.feed(FeatureVec(kDim + 1, 0.5f), 1, 0.9f, 0),
               std::invalid_argument);
  FeatureVec nan_key = axis(0);
  nan_key[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)svc.feed(nan_key, 1, 0.9f, 0), std::invalid_argument);
  EXPECT_EQ(metrics.counter_value("edge/srv_feed"), 0u);
  EXPECT_EQ(svc.size(), 0u);
}

// A lookup request whose query decodes with a non-finite component (a
// bit-flipped payload) counts as a bad message and is answered with no
// vote; it never reaches a shard's lookup.
TEST(EdgeNetwork, NonFiniteLookupRequestIsBadMessage) {
  EventSimulator sim;
  MediumParams lossless;
  lossless.loss_prob = 0.0;
  WirelessMedium medium{sim, lossless, /*seed=*/3};
  EdgeParams p;
  p.shards = 2;
  p.error_budget = 1.0f;
  EdgeCacheService svc{kDim, p};
  MetricsRegistry metrics;
  svc.attach_metrics(metrics);
  // One registry per shard: shards may be driven from different threads,
  // and a registry is not thread-safe.
  std::vector<MetricsRegistry> shard_metrics(p.shards);
  for (std::size_t s = 0; s < p.shards; ++s) {
    svc.shard(s).attach_metrics(shard_metrics[s]);
  }
  svc.attach_network(sim, medium);
  svc.start();
  ASSERT_TRUE(svc.feed(axis(0), 1, 0.9f, sim.now()));

  std::vector<EdgeLookupResponseMsg> replies;
  const NodeId device = medium.add_node(
      [&replies](NodeId, const std::vector<std::uint8_t>& payload) {
        if (peek_type(payload) == MsgType::kEdgeLookupResponse) {
          replies.push_back(decode_edge_lookup_response(payload));
        }
      });
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    EdgeLookupRequestMsg req;
    req.request_id = replies.size() + 1;
    req.sender = device;
    req.query = axis(0);
    req.query[3] = bad;
    medium.unicast(device, svc.id(), encode(req));
  }
  sim.run_until(sim.now() + kSecond);

  EXPECT_EQ(metrics.counter_value("edge/srv_bad_message"), 2u);
  EXPECT_EQ(metrics.counter_value("edge/srv_lookup"), 0u);
  for (std::size_t s = 0; s < p.shards; ++s) {
    EXPECT_EQ(shard_metrics[s].counter_value("cache/hit"), 0u);
    EXPECT_EQ(shard_metrics[s].counter_value("cache/miss"), 0u);
  }
  ASSERT_EQ(replies.size(), 2u);
  for (const EdgeLookupResponseMsg& r : replies) EXPECT_FALSE(r.has_vote);
  svc.stop();
}

// ---------------------------------------------------------------- admission

/// One admission scenario: a pre-populated neighbourhood around the fed
/// key, a fed label, a budget, and the expected verdict.
struct AdmissionCase {
  const char* name;
  /// (label, count) groups inserted exactly at the fed key before the feed.
  std::vector<std::pair<Label, int>> neighbourhood;
  /// When true the single pre-inserted entry sits far outside max_distance.
  bool neighbour_out_of_range = false;
  Label fed = 7;
  float budget = 0.25f;
  bool expect_admit = true;
};

TEST(EdgeAdmission, ErrorBudgetAcceptRejectTable) {
  const FeatureVec key = axis(0);
  const AdmissionCase cases[] = {
      // Empty neighbourhood: nothing served here yet, error 0 — admitted
      // even by the strictest budget.
      {"empty, budget 0", {}, false, 7, 0.0f, true},
      // Four agreeing entries: the vote already answers `fed` with
      // homogeneity 1, so the residual error is 0.
      {"agreeing homogeneous, budget 0", {{7, 4}}, false, 7, 0.0f, true},
      // Four conflicting entries: admitting splits a neighbourhood that
      // answers label 3 with homogeneity 1 — error 1 busts any budget < 1.
      {"conflicting homogeneous, budget 0.25", {{3, 4}}, false, 7, 0.25f,
       false},
      {"conflicting homogeneous, budget 1", {{3, 4}}, false, 7, 1.0f, true},
      // 2-vs-2 mixture: H-kNN abstains (share 0.5 < threshold 0.8) but the
      // nearest neighbour is in range — contested region, error 0.5.
      {"contested abstain, budget 0.25", {{3, 2}, {5, 2}}, false, 7, 0.25f,
       false},
      // The budget comparison is inclusive: error 0.5 clears budget 0.5.
      {"contested abstain, budget 0.5", {{3, 2}, {5, 2}}, false, 7, 0.5f,
       true},
      // A lone neighbour beyond max_distance: abstain with nothing in
      // range, error 0 — free to admit.
      {"out-of-range neighbour, budget 0", {{3, 1}}, true, 7, 0.0f, true},
  };
  for (const AdmissionCase& c : cases) {
    SCOPED_TRACE(c.name);
    EdgeParams p = exact_params();
    p.error_budget = c.budget;
    EdgeCacheService svc{kDim, p};
    MetricsRegistry metrics;
    svc.attach_metrics(metrics);
    ApproxCache& shard = svc.shard(0);
    const std::size_t before_feed = [&] {
      std::size_t n = 0;
      for (const auto& [label, count] : c.neighbourhood) {
        const FeatureVec where = c.neighbour_out_of_range ? axis(1) : key;
        for (int i = 0; i < count; ++i) {
          shard.insert(where, label, 0.9f, /*now=*/0);
          ++n;
        }
      }
      return n;
    }();
    EXPECT_EQ(svc.feed(key, c.fed, 0.9f, /*now=*/1), c.expect_admit);
    EXPECT_EQ(svc.size(), before_feed + (c.expect_admit ? 1 : 0));
    EXPECT_EQ(metrics.counter_value("edge/srv_admit"),
              c.expect_admit ? 1u : 0u);
    EXPECT_EQ(metrics.counter_value("edge/srv_reject_budget"),
              c.expect_admit ? 0u : 1u);
  }
}

TEST(EdgeAdmission, AdmittedEntriesCarryPeerOriginAndSource) {
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  EdgeCacheService svc{kDim, p};
  ASSERT_TRUE(svc.feed(axis(0), 4, 0.9f, /*now=*/0, /*source_device=*/11));
  svc.shard(0).for_each([](const CacheEntry& e) {
    EXPECT_EQ(e.origin, EntryOrigin::kPeer);
    EXPECT_EQ(e.hop_count, 1u);
    EXPECT_EQ(e.source_device, 11u);
  });
}

// ------------------------------------------------------------ ladder hooks

TEST(EdgeLadder, EdgeHitBecomesTheTemporalKeyframe) {
  // No IMU rung, so the fast path cannot answer the repeated frame first:
  // it reaches the temporal rung, which reuses only from a keyframe.
  EventSimulator sim;
  MediumParams lossless;
  lossless.loss_prob = 0.0;
  WirelessMedium medium{sim, lossless, /*seed=*/5};
  const std::unique_ptr<FeatureExtractor> extractor =
      make_downsample_extractor(8);
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  EdgeCacheService svc{extractor->dim(), p};
  svc.attach_network(sim, medium);
  svc.start();
  EdgeClient client{sim, medium, svc.id(), p};
  client.start();

  SceneGenerator::Config scene;
  scene.num_classes = 4;
  scene.image_size = 24;
  Frame frame;
  frame.true_label = 2;
  frame.image = SceneGenerator{scene}.render(2, ViewParams{});
  ASSERT_TRUE(svc.feed(extractor->extract(frame.image), 2, 0.9f, sim.now()));

  const std::unique_ptr<RecognitionModel> model =
      make_oracle_model(mobilenet_v2_profile(), scene.num_classes);
  ReusePipeline pipeline{sim,      make_ladder_config("temporal,edge,dnn"),
                         *extractor, *model, nullptr, nullptr, nullptr,
                         &client,  /*seed=*/3};
  auto run_one = [&] {
    frame.t = sim.now();
    std::optional<RecognitionResult> out;
    EXPECT_TRUE(pipeline.process(frame, MotionState::kMinor,
                                 [&](const RecognitionResult& r) { out = r; }));
    while (!out.has_value() && sim.step()) {
    }
    EXPECT_TRUE(out.has_value());
    return out.value_or(RecognitionResult{});
  };

  const RecognitionResult first = run_one();
  EXPECT_EQ(first.source, ResultSource::kEdgeCacheHit);
  EXPECT_EQ(first.label, 2);
  const RecognitionResult second = run_one();
  EXPECT_EQ(second.source, ResultSource::kTemporalReuse);
  EXPECT_EQ(second.label, 2);
  client.stop();
  svc.stop();
}

// --------------------------------------------------------------------- TTL

TEST(EdgeTtl, SweepExpiresExactlyAtTheBoundary) {
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  p.ttl = 30 * kSecond;
  EdgeCacheService svc{kDim, p};
  MetricsRegistry metrics;
  svc.attach_metrics(metrics);
  ASSERT_TRUE(svc.feed(axis(0), 1, 0.9f, /*now=*/5));
  // One microsecond before the boundary: kept.
  EXPECT_EQ(svc.sweep(5 + p.ttl - 1), 0u);
  EXPECT_EQ(svc.size(), 1u);
  // Exactly at insert_time + ttl: removed.
  EXPECT_EQ(svc.sweep(5 + p.ttl), 1u);
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_EQ(metrics.counter_value("edge/srv_swept"), 1u);
}

TEST(EdgeTtl, SweepRemovesOnlyExpiredEntries) {
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  p.ttl = 10 * kSecond;
  EdgeCacheService svc{kDim, p};
  ASSERT_TRUE(svc.feed(axis(0), 1, 0.9f, /*now=*/0));
  ASSERT_TRUE(svc.feed(axis(1), 2, 0.9f, /*now=*/4 * kSecond));
  EXPECT_EQ(svc.sweep(10 * kSecond), 1u);  // only the t=0 entry
  EXPECT_EQ(svc.size(), 1u);
  svc.shard(0).for_each(
      [](const CacheEntry& e) { EXPECT_EQ(e.label, 2); });
  EXPECT_EQ(svc.sweep(14 * kSecond), 1u);
  EXPECT_EQ(svc.size(), 0u);
}

TEST(EdgeTtl, PeriodicSweepRunsOnTheSimClock) {
  EventSimulator sim;
  WirelessMedium medium{sim, MediumParams{}, /*seed=*/3};
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  p.ttl = 2 * kSecond;
  p.sweep_interval = 1 * kSecond;
  EdgeCacheService svc{kDim, p};
  svc.attach_network(sim, medium);
  svc.start();
  ASSERT_TRUE(svc.feed(axis(0), 1, 0.9f, sim.now()));
  // The sweep at t=1s and t=2s run off the event loop; the entry expires
  // at exactly t=2s without any query touching it.
  sim.run_until(p.ttl - 1);
  EXPECT_EQ(svc.size(), 1u);
  sim.run_until(p.ttl + p.sweep_interval);
  EXPECT_EQ(svc.size(), 0u);
  svc.stop();
}

TEST(EdgeTtl, StopWipesShardsAndOrphansPendingSweeps) {
  EventSimulator sim;
  WirelessMedium medium{sim, MediumParams{}, /*seed=*/3};
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  EdgeCacheService svc{kDim, p};
  svc.attach_network(sim, medium);
  svc.start();
  ASSERT_TRUE(svc.feed(axis(0), 1, 0.9f, sim.now()));
  EXPECT_EQ(svc.size(), 1u);
  svc.stop();  // crash: shards wiped, traffic ignored
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_FALSE(svc.running());
  // A restart re-warms from feeds; the pre-stop sweep tick chain must not
  // double-fire alongside the restarted one.
  svc.start();
  ASSERT_TRUE(svc.feed(axis(1), 2, 0.9f, sim.now()));
  sim.run_until(sim.now() + 5 * kSecond);
  EXPECT_EQ(svc.size(), 1u);  // default 30s ttl: still alive
  svc.stop();
}

// ---------------------------------------------------------------- capacity

TEST(EdgeCapacity, EvictionIsPerShard) {
  EdgeParams p = exact_params();
  p.error_budget = 1.0f;
  p.capacity = 4;
  EdgeCacheService svc{kDim, p};
  // 16 well-separated keys through one shard: the shard holds at most its
  // own capacity, evicting by utility as it fills.
  for (std::size_t i = 0; i < 16; ++i) {
    svc.feed(axis(i % kDim, i < kDim ? 1.0f : -1.0f), static_cast<Label>(i),
             0.9f, static_cast<SimTime>(i));
  }
  EXPECT_EQ(svc.size(), p.capacity);
  EXPECT_EQ(svc.shard(0).size(), p.capacity);

  // With 4 shards each shard gets its own capacity budget: the same keys
  // spread out and the total can exceed one shard's limit.
  p.shards = 4;
  EdgeCacheService sharded{kDim, p};
  for (std::size_t i = 0; i < 16; ++i) {
    sharded.feed(axis(i % kDim, i < kDim ? 1.0f : -1.0f),
                 static_cast<Label>(i), 0.9f, static_cast<SimTime>(i));
  }
  std::size_t total = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_LE(sharded.shard(s).size(), p.capacity);
    total += sharded.shard(s).size();
  }
  EXPECT_EQ(sharded.size(), total);
  EXPECT_GT(total, p.capacity);  // the split actually spread the keys
}

// ------------------------------------------------------------- determinism

TEST(EdgeMetrics, SameSeedExportsAreByteIdentical) {
  ScenarioConfig cfg = default_scenario();
  cfg.pipeline = make_edge_config();
  cfg.num_devices = 3;
  cfg.duration = 8 * kSecond;
  cfg.scene.num_classes = 16;
  cfg.seed = 7;
  ExperimentRunner a{cfg}, b{cfg};
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().to_json(), b.metrics().to_json());
  EXPECT_EQ(a.edge_cache_size(), b.edge_cache_size());
}

}  // namespace
}  // namespace apx
