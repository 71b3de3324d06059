// Unit + integration tests for the collaborative cache-sharing protocol.

#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/p2p/peer_cache.hpp"

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

/// Runs every event up to one lookup round trip from now: the lookup
/// timeout plus delivery slack. Discovery beacons re-arm forever, so a
/// cluster's event queue never drains on its own.
void settle(EventSimulator& sim, const PeerCacheParams& params = {}) {
  sim.run_until(sim.now() + params.lookup_timeout + 100 * kMillisecond);
}

/// Two-or-more co-located peers with their caches, over a lossless medium.
struct Cluster {
  EventSimulator sim;
  WirelessMedium medium;
  std::vector<std::unique_ptr<ApproxCache>> caches;
  std::vector<std::unique_ptr<PeerCacheService>> peers;
  /// One registry per peer, attached at construction.
  std::vector<std::unique_ptr<MetricsRegistry>> metrics;

  explicit Cluster(int n, PeerCacheParams params = {},
                   MediumParams medium_params = lossless())
      : medium(sim, medium_params, 77) {
    for (int i = 0; i < n; ++i) {
      caches.push_back(std::make_unique<ApproxCache>(kDim, cache_config(),
                                                     make_lru_policy()));
      peers.push_back(std::make_unique<PeerCacheService>(
          sim, medium, *caches.back(), params, /*cell=*/0));
      metrics.push_back(std::make_unique<MetricsRegistry>());
      peers.back()->attach_metrics(*metrics.back());
    }
    for (auto& p : peers) p->start();
    // Let a beacon round complete so neighbour tables are warm.
    sim.run_until(sim.now() + 100 * kMillisecond);
  }
};

TEST(PeerCache, IdsAreDistinct) {
  Cluster c{3};
  EXPECT_NE(c.peers[0]->id(), c.peers[1]->id());
  EXPECT_NE(c.peers[1]->id(), c.peers[2]->id());
}

TEST(PeerCache, DiscoveryFindsAllPeers) {
  Cluster c{4};
  for (const auto& p : c.peers) {
    EXPECT_EQ(p->discovery().neighbor_count(), 3u);
  }
}

TEST(PeerCache, LookupWithNoNeighborsCompletesEmpty) {
  PeerCacheParams params;
  EventSimulator sim;
  WirelessMedium medium{sim, lossless(), 1};
  ApproxCache cache{kDim, cache_config(), make_lru_policy()};
  PeerCacheService svc{sim, medium, cache, params};
  svc.start();
  bool called = false;
  svc.async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> entries) {
    called = true;
    EXPECT_TRUE(entries.empty());
  });
  settle(sim, params);
  EXPECT_TRUE(called);
}

TEST(PeerCache, RemoteHitReturnsEntries) {
  PeerCacheParams params;
  params.advert_enabled = false;  // isolate the pull path
  Cluster c{2, params};
  c.caches[1]->insert(unit_at(0.0f), 42, 0.9f, c.sim.now());

  std::vector<WireEntry> got;
  bool called = false;
  c.peers[0]->async_lookup(unit_at(0.01f),
                           [&](std::vector<WireEntry> entries) {
                             called = true;
                             got = std::move(entries);
                           });
  settle(c.sim, params);
  ASSERT_TRUE(called);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].label, 42);
  // The entry also merged into the requester's local cache.
  EXPECT_EQ(c.caches[0]->size(), 1u);
  EXPECT_EQ(c.metrics[0]->counter_value("p2p/merged"), 1u);
}

TEST(PeerCache, LookupCompletesEarlyWhenAllRespond) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.lookup_timeout = 10 * kSecond;  // timeout would dominate otherwise
  Cluster c{3, params};
  bool called = false;
  SimTime completion = 0;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry>) {
    called = true;
    completion = c.sim.now();
  });
  settle(c.sim, params);
  ASSERT_TRUE(called);
  // Early completion: two round trips of a few ms, nowhere near 10 s.
  EXPECT_LT(completion, kSecond);
}

TEST(PeerCache, LookupTimesOutUnderTotalLoss) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.lookup_timeout = 50 * kMillisecond;
  MediumParams lossy = lossless();
  Cluster c{2, params};
  // Warm neighbour tables were built; now move the peer out of range so the
  // request is never answered.
  const SimTime start = c.sim.now();
  c.medium.set_cell(c.peers[1]->id(), 99);
  bool called = false;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> e) {
    called = true;
    EXPECT_TRUE(e.empty());
  });
  settle(c.sim, params);
  EXPECT_TRUE(called);
  EXPECT_GE(c.sim.now() - start, params.lookup_timeout);
  (void)lossy;
}

TEST(PeerCache, AdvertPropagatesFreshEntries) {
  PeerCacheParams params;
  params.advert_interval = 200 * kMillisecond;
  Cluster c{3, params};
  c.caches[0]->insert(unit_at(0.5f), 7, 0.9f, c.sim.now());
  c.sim.run_until(c.sim.now() + kSecond);
  // Both other peers hold the advertised entry now.
  EXPECT_GE(c.caches[1]->size(), 1u);
  EXPECT_GE(c.caches[2]->size(), 1u);
  EXPECT_GE(c.metrics[0]->counter_value("p2p/advert_sent"), 1u);
}

TEST(PeerCache, MergedEntriesCarryProvenance) {
  PeerCacheParams params;
  params.advert_interval = 100 * kMillisecond;
  Cluster c{2, params};
  c.caches[0]->insert(unit_at(0.5f), 7, 1.0f, c.sim.now());
  c.sim.run_until(c.sim.now() + kSecond);
  ASSERT_EQ(c.caches[1]->size(), 1u);
  c.caches[1]->for_each([&](const CacheEntry& entry) {
    EXPECT_EQ(entry.origin, EntryOrigin::kPeer);
    EXPECT_EQ(entry.hop_count, 1);
    EXPECT_LT(entry.confidence, 1.0f);  // per-hop decay applied
  });
}

TEST(PeerCache, DedupRadiusPreventsDuplicateMerge) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.dedup_radius = 0.05f;
  Cluster c{2, params};
  // Requester already caches (almost) the same feature.
  c.caches[0]->insert(unit_at(0.0f), 42, 0.9f, c.sim.now());
  c.caches[1]->insert(unit_at(0.001f), 42, 0.9f, c.sim.now());
  bool called = false;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry>) {
    called = true;
  });
  settle(c.sim, params);
  EXPECT_TRUE(called);
  EXPECT_EQ(c.caches[0]->size(), 1u);
  EXPECT_GE(c.metrics[0]->counter_value("p2p/merge_dup"), 1u);
}

TEST(PeerCache, HopLimitStopsPropagation) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.max_hops = 1;
  Cluster c{2, params};
  // Peer 1 holds a remote entry that already travelled max_hops.
  c.caches[1]->insert(unit_at(0.0f), 42, 0.9f, c.sim.now(),
                      EntryOrigin::kPeer, /*hop_count=*/1, /*source=*/9);
  bool called = false;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> e) {
    called = true;
    EXPECT_EQ(e.size(), 1u);  // still returned for this lookup...
  });
  settle(c.sim, params);
  EXPECT_TRUE(called);
  // ...but not merged into the requester's cache.
  EXPECT_EQ(c.caches[0]->size(), 0u);
  EXPECT_GE(c.metrics[0]->counter_value("p2p/merge_hops"), 1u);
}

TEST(PeerCache, ResponseLimitedToKEntries) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.lookup_k = 2;
  Cluster c{2, params};
  for (int i = 0; i < 6; ++i) {
    c.caches[1]->insert(unit_at(0.01f * static_cast<float>(i)), 42, 0.9f,
                        c.sim.now());
  }
  std::size_t got = 0;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> e) {
    got = e.size();
  });
  settle(c.sim, params);
  EXPECT_EQ(got, 2u);
}

TEST(PeerCache, FarEntriesNotReturned) {
  PeerCacheParams params;
  params.advert_enabled = false;
  params.response_max_distance = 0.3f;
  Cluster c{2, params};
  c.caches[1]->insert(unit_at(2.0f), 42, 0.9f, c.sim.now());  // far away
  std::size_t got = 99;
  c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> e) {
    got = e.size();
  });
  settle(c.sim, params);
  EXPECT_EQ(got, 0u);
}

TEST(PeerCache, MalformedMessageCounted) {
  Cluster c{2};
  // Byte 2 is kLookupRequest's type but the body is garbage.
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), {2, 0xFF});
  settle(c.sim);
  EXPECT_GE(c.metrics[0]->counter_value("p2p/bad_message"), 1u);
}

TEST(PeerCache, WrongDimensionEntryRejected) {
  PeerCacheParams params;
  params.advert_enabled = false;
  Cluster c{2, params};
  // Craft a response-like advert with a wrong-dimension feature.
  EntryAdvertMsg msg;
  msg.sender = c.peers[1]->id();
  WireEntry e;
  e.feature = FeatureVec(3, 0.5f);  // dim mismatch (cache dim is 8)
  e.label = 5;
  msg.entries.push_back(e);
  c.medium.unicast(c.peers[1]->id(), c.peers[0]->id(), encode(msg));
  settle(c.sim, params);
  EXPECT_EQ(c.caches[0]->size(), 0u);
  EXPECT_GE(c.metrics[0]->counter_value("p2p/bad_message"), 1u);
}

TEST(PeerCache, CollaborationScalesWithPeers) {
  // More peers holding relevant entries -> more entries collected.
  PeerCacheParams params;
  params.advert_enabled = false;
  params.lookup_k = 8;
  std::size_t collected_2 = 0, collected_5 = 0;
  for (int n : {2, 5}) {
    Cluster c{n, params};
    for (int i = 1; i < n; ++i) {
      c.caches[static_cast<std::size_t>(i)]->insert(
          unit_at(0.01f * static_cast<float>(i)), 42, 0.9f, c.sim.now());
    }
    std::size_t got = 0;
    c.peers[0]->async_lookup(unit_at(0.0f), [&](std::vector<WireEntry> e) {
      got = e.size();
    });
    settle(c.sim, params);
    (n == 2 ? collected_2 : collected_5) = got;
  }
  EXPECT_GT(collected_5, collected_2);
}

}  // namespace
}  // namespace apx
