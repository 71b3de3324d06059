// Tests for the collaboration extensions: hot-set push on discovery, the
// edge cache server, and their scenario-level integration.

#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/p2p/peer_cache.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

constexpr std::size_t kDim = 8;

FeatureVec unit_at(float angle) {
  FeatureVec v(kDim, 0.0f);
  v[0] = std::cos(angle);
  v[1] = std::sin(angle);
  return v;
}

ApproxCacheConfig cache_config() {
  ApproxCacheConfig cfg;
  cfg.capacity = 64;
  cfg.index = IndexKind::kExact;
  cfg.hknn.max_distance = 0.3f;
  return cfg;
}

MediumParams lossless() {
  MediumParams p;
  p.loss_prob = 0.0;
  p.jitter = 0;
  return p;
}

// ------------------------------------------------------------ Hot-set

struct TwoPeers {
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 7};
  ApproxCache cache_a{kDim, cache_config(), make_lru_policy()};
  ApproxCache cache_b{kDim, cache_config(), make_lru_policy()};
  std::unique_ptr<PeerCacheService> a, b;
  MetricsRegistry metrics_a;  ///< a's registry

  explicit TwoPeers(PeerCacheParams params) {
    params.advert_enabled = false;  // isolate the hot-set path
    a = std::make_unique<PeerCacheService>(sim, medium, cache_a, params, 0);
    b = std::make_unique<PeerCacheService>(sim, medium, cache_b, params, 0);
    a->attach_metrics(metrics_a);
  }
};

TEST(HotSet, PushedToNewlyDiscoveredPeer) {
  PeerCacheParams params;
  params.hotset_push_max = 4;
  TwoPeers peers{params};
  // A has popular entries before B appears.
  for (int i = 0; i < 8; ++i) {
    peers.cache_a.insert(unit_at(0.3f * static_cast<float>(i)), i, 0.9f, 0);
  }
  // Make entries 0..3 the most accessed.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      peers.cache_a.lookup(
          {.features = unit_at(0.3f * static_cast<float>(i)), .now = 1});
    }
  }
  peers.a->start();
  peers.b->start();
  peers.sim.run_until(200 * kMillisecond);
  // B received A's hot set (4 entries, the most-accessed ones).
  EXPECT_EQ(peers.cache_b.size(), 4u);
  EXPECT_GE(peers.metrics_a.counter_value("p2p/hotset_push"), 1u);
  EXPECT_EQ(peers.metrics_a.counter_value("p2p/hotset_entries"), 4u);
  int found_popular = 0;
  peers.cache_b.for_each([&](const CacheEntry& e) {
    if (e.label >= 0 && e.label < 4) ++found_popular;
    EXPECT_EQ(e.origin, EntryOrigin::kPeer);
  });
  EXPECT_EQ(found_popular, 4);
}

TEST(HotSet, DisabledByDefault) {
  TwoPeers peers{PeerCacheParams{}};
  peers.cache_a.insert(unit_at(0.0f), 1, 0.9f, 0);
  peers.a->start();
  peers.b->start();
  peers.sim.run_until(200 * kMillisecond);
  EXPECT_EQ(peers.cache_b.size(), 0u);
  EXPECT_EQ(peers.metrics_a.counter_value("p2p/hotset_push"), 0u);
}

TEST(HotSet, NotRepeatedWhileNeighborStaysLive) {
  PeerCacheParams params;
  params.hotset_push_max = 4;
  TwoPeers peers{params};
  peers.cache_a.insert(unit_at(0.0f), 1, 0.9f, 0);
  peers.a->start();
  peers.b->start();
  // Many beacon rounds: the push must fire only on first contact.
  peers.sim.run_until(5 * kSecond);
  EXPECT_EQ(peers.metrics_a.counter_value("p2p/hotset_push"), 1u);
}

TEST(HotSet, RefiresAfterExpiryAndReturn) {
  PeerCacheParams params;
  params.hotset_push_max = 2;
  TwoPeers peers{params};
  peers.cache_a.insert(unit_at(0.0f), 1, 0.9f, 0);
  peers.a->start();
  peers.b->start();
  peers.sim.run_until(300 * kMillisecond);
  EXPECT_EQ(peers.metrics_a.counter_value("p2p/hotset_push"), 1u);
  // B leaves radio range long enough to expire, then returns.
  peers.medium.set_cell(peers.b->id(), 99);
  peers.sim.run_until(peers.sim.now() + 3 * kSecond);
  peers.medium.set_cell(peers.b->id(), 0);
  peers.sim.run_until(peers.sim.now() + 2 * kSecond);
  EXPECT_GE(peers.metrics_a.counter_value("p2p/hotset_push"), 2u);
}

TEST(HotSet, OnlyLocalEntriesPushed) {
  PeerCacheParams params;
  params.hotset_push_max = 8;
  TwoPeers peers{params};
  peers.cache_a.insert(unit_at(0.0f), 1, 0.9f, 0);
  peers.cache_a.insert(unit_at(1.0f), 2, 0.9f, 0, EntryOrigin::kPeer, 1, 5);
  peers.a->start();
  peers.b->start();
  peers.sim.run_until(300 * kMillisecond);
  EXPECT_EQ(peers.cache_b.size(), 1u);  // only the local-origin entry
  peers.cache_b.for_each(
      [](const CacheEntry& e) { EXPECT_EQ(e.label, 1); });
}

// --------------------------------------------------------------- Edge tier

ScenarioConfig edge_scenario() {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 12 * kSecond;
  cfg.num_devices = 3;
  cfg.pipeline = make_edge_config();
  return cfg;
}

TEST(EdgeTier, AccumulatesDeviceResults) {
  ExperimentRunner runner{edge_scenario()};
  runner.run();
  // Devices feed their DNN-validated results; the edge admits them.
  EXPECT_GT(runner.edge_cache_size(), 0u);
}

TEST(EdgeTier, AbsentWithoutTheRung) {
  ScenarioConfig cfg = edge_scenario();
  cfg.pipeline = make_full_system_config();
  ExperimentRunner runner{cfg};
  runner.run();
  EXPECT_EQ(runner.edge_cache_size(), 0u);
}

TEST(EdgeTier, RunsAreDeterministic) {
  const ScenarioConfig cfg = edge_scenario();
  ExperimentRunner a{cfg}, b{cfg};
  const ExperimentMetrics ma = a.run();
  const ExperimentMetrics mb = b.run();
  EXPECT_DOUBLE_EQ(ma.mean_latency_ms(), mb.mean_latency_ms());
  EXPECT_EQ(a.edge_cache_size(), b.edge_cache_size());
}

TEST(EdgeTier, DoesNotDegradeAccuracy) {
  // Pooled over seeds: a single-seed comparison of two different ladders is
  // dominated by reshuffled timing/medium draws, not by edge-served errors.
  ExperimentMetrics with, without;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ScenarioConfig cfg = edge_scenario();
    cfg.duration = 20 * kSecond;
    cfg.seed = seed;
    cfg.pipeline = make_full_system_config();
    without.merge(run_scenario(cfg));
    cfg.pipeline = make_edge_config();
    with.merge(run_scenario(cfg));
  }
  EXPECT_GT(with.accuracy(), without.accuracy() - 0.03);
}

}  // namespace
}  // namespace apx
