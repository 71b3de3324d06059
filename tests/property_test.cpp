// Property-based and fuzz tests: randomized inputs against invariants that
// must hold for every input — codec robustness on arbitrary bytes, cache
// invariants under random operation sequences, LSH-vs-exact consistency,
// event ordering, trace/snapshot round trips.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "src/ann/exact_knn.hpp"
#include "src/ann/lsh.hpp"
#include "src/ann/quantize.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/cache/snapshot.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/features/minicnn.hpp"
#include "src/image/image.hpp"
#include "src/net/event_sim.hpp"
#include "src/net/messages.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

FeatureVec random_unit(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

// ---------------------------------------------------------- Codec fuzz

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng{GetParam()};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_u64(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    // Every decoder must either produce a value or throw CodecError —
    // never crash, never loop, never read out of bounds (ASAN would bark).
    try { (void)decode_hello(bytes); } catch (const CodecError&) {}
    try { (void)decode_lookup_request(bytes); } catch (const CodecError&) {}
    try { (void)decode_lookup_response(bytes); } catch (const CodecError&) {}
    try { (void)decode_entry_advert(bytes); } catch (const CodecError&) {}
  }
}

TEST_P(CodecFuzz, TruncationsOfValidMessagesThrowOrParse) {
  Rng rng{GetParam() ^ 0xabcdULL};
  LookupResponseMsg msg;
  msg.request_id = rng.next_u64();
  msg.sender = static_cast<NodeId>(rng.next_u64());
  for (int i = 0; i < 3; ++i) {
    WireEntry e;
    e.feature = random_unit(rng, 16);
    e.label = static_cast<Label>(rng.uniform_u64(100));
    e.quantize_on_wire = rng.chance(0.5);
    msg.entries.push_back(std::move(e));
  }
  const auto full = encode(msg);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> truncated(full.begin(),
                                        full.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)decode_lookup_response(truncated), CodecError)
        << "cut=" << cut;
  }
  // The untruncated message parses.
  EXPECT_EQ(decode_lookup_response(full).entries.size(), 3u);
}

TEST_P(CodecFuzz, MessageRoundTripExact) {
  Rng rng{GetParam() ^ 0x1234ULL};
  EntryAdvertMsg msg;
  msg.sender = static_cast<NodeId>(rng.next_u64());
  const std::size_t n = rng.uniform_u64(6);
  for (std::size_t i = 0; i < n; ++i) {
    WireEntry e;
    e.feature = random_unit(rng, 1 + rng.uniform_u64(32));
    e.label = static_cast<Label>(rng.uniform_u64(1000));
    e.confidence = static_cast<float>(rng.uniform());
    e.hop_count = static_cast<std::uint8_t>(rng.uniform_u64(4));
    e.source_device = static_cast<std::uint32_t>(rng.next_u64());
    e.age = static_cast<SimDuration>(rng.uniform_u64(1'000'000'000));
    msg.entries.push_back(std::move(e));
  }
  const auto decoded = decode_entry_advert(encode(msg));
  ASSERT_EQ(decoded.entries.size(), msg.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(decoded.entries[i].feature, msg.entries[i].feature);
    EXPECT_EQ(decoded.entries[i].label, msg.entries[i].label);
    EXPECT_EQ(decoded.entries[i].age, msg.entries[i].age);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------- Cache fuzz

class CacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheFuzz, InvariantsUnderRandomOperations) {
  Rng rng{GetParam()};
  ApproxCacheConfig cfg;
  cfg.capacity = 16;
  cfg.index = IndexKind::kExact;
  ApproxCache cache{8, cfg, make_lru_policy()};
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);

  std::set<VecId> live;
  std::uint64_t lookups = 0;
  SimTime now = 0;
  for (int op = 0; op < 2000; ++op) {
    now += static_cast<SimTime>(rng.uniform_u64(1000));
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const VecId id = cache.insert(random_unit(rng, 8),
                                    static_cast<Label>(rng.uniform_u64(10)),
                                    static_cast<float>(rng.uniform()), now);
      live.insert(id);
    } else if (dice < 0.7 && !live.empty()) {
      // Remove a random live-or-evicted id: remove() must return whether
      // the entry was actually present, never crash.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform_u64(live.size())));
      const bool present = cache.find(*it) != nullptr;
      EXPECT_EQ(cache.remove(*it), present);
      live.erase(it);
    } else {
      (void)cache.lookup({.features = random_unit(rng, 8), .now = now});
      ++lookups;
    }
    // Invariants after every operation:
    ASSERT_LE(cache.size(), cfg.capacity);
    std::size_t counted = 0;
    cache.for_each([&](const CacheEntry& e) {
      ++counted;
      EXPECT_EQ(e.feature.size(), 8u);
      EXPECT_LE(e.insert_time, now);
    });
    ASSERT_EQ(counted, cache.size());
  }
  // Accounting: every lookup was either a hit or a miss.
  EXPECT_GT(metrics.counter_value("cache/insert"), 0u);
  EXPECT_EQ(metrics.counter_value("cache/hit") +
                metrics.counter_value("cache/miss"),
            lookups);
}

TEST_P(CacheFuzz, SnapshotOfFuzzedCacheRoundTrips) {
  Rng rng{GetParam() ^ 0x5eedULL};
  ApproxCacheConfig cfg;
  cfg.capacity = 64;
  cfg.index = IndexKind::kExact;
  ApproxCache cache{8, cfg, make_utility_policy()};
  SimTime now = 0;
  for (int i = 0; i < 100; ++i) {
    now += 1000;
    cache.insert(random_unit(rng, 8), static_cast<Label>(rng.uniform_u64(10)),
                 static_cast<float>(rng.uniform()), now,
                 rng.chance(0.3) ? EntryOrigin::kPeer : EntryOrigin::kLocal,
                 static_cast<std::uint8_t>(rng.uniform_u64(3)),
                 static_cast<std::uint32_t>(rng.uniform_u64(8)));
  }
  const auto bytes = save_snapshot(cache, now);
  ApproxCache restored{8, cfg, make_utility_policy()};
  EXPECT_EQ(load_snapshot(restored, bytes, now), cache.size());
  EXPECT_EQ(restored.size(), cache.size());
  // Same label multiset.
  std::multiset<Label> a, b;
  cache.for_each([&a](const CacheEntry& e) { a.insert(e.label); });
  restored.for_each([&b](const CacheEntry& e) { b.insert(e.label); });
  EXPECT_EQ(a, b);
}

TEST_P(CacheFuzz, SnapshotBitFlipsNeverCrash) {
  Rng rng{GetParam() ^ 0xf00dULL};
  ApproxCacheConfig cfg;
  cfg.capacity = 16;
  cfg.index = IndexKind::kExact;
  ApproxCache cache{8, cfg, make_lru_policy()};
  for (int i = 0; i < 10; ++i) {
    cache.insert(random_unit(rng, 8), static_cast<Label>(i), 0.9f, i);
  }
  const auto good = save_snapshot(cache, 100);
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = good;
    const std::size_t pos = rng.uniform_u64(bad.size());
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    ApproxCache target{8, cfg, make_lru_policy()};
    try {
      (void)load_snapshot(target, bad, 100);
    } catch (const CodecError&) {
      // fine: malformed input must be rejected, not crash
    }
  }
}

TEST_P(CacheFuzz, EvictionPlusSnapshotPreservesEntriesAndVotes) {
  // 200 randomized insert/evict/lookup schedules; after each, a snapshot
  // save/load round trip must preserve the exact entry set (label +
  // feature) and answer H-kNN probes identically to the original cache.
  Rng rng{GetParam() ^ 0xe51cULL};
  for (int schedule = 0; schedule < 200; ++schedule) {
    ApproxCacheConfig cfg;
    cfg.capacity = 6 + rng.uniform_u64(20);
    cfg.index = IndexKind::kExact;
    ApproxCache cache{8, cfg, rng.chance(0.5)
                                  ? make_lru_policy()
                                  : make_utility_policy()};
    std::vector<VecId> ids;
    SimTime now = 0;
    const int ops = 30 + static_cast<int>(rng.uniform_u64(40));
    for (int op = 0; op < ops; ++op) {
      now += 1 + static_cast<SimTime>(rng.uniform_u64(2000));
      const double dice = rng.uniform();
      if (dice < 0.6) {
        // Inserting past capacity exercises eviction on most schedules.
        ids.push_back(cache.insert(
            random_unit(rng, 8), static_cast<Label>(rng.uniform_u64(12)),
            static_cast<float>(rng.uniform()), now,
            rng.chance(0.3) ? EntryOrigin::kPeer : EntryOrigin::kLocal));
      } else if (dice < 0.75 && !ids.empty()) {
        (void)cache.remove(ids[rng.uniform_u64(ids.size())]);
      } else {
        // Touches voters.
        (void)cache.lookup({.features = random_unit(rng, 8), .now = now});
      }
    }

    const auto bytes = save_snapshot(cache, now);
    ApproxCache restored{8, cfg, make_lru_policy()};
    ASSERT_EQ(load_snapshot(restored, bytes, now), cache.size());
    ASSERT_EQ(restored.size(), cache.size());

    // Identical entry set: same multiset of (label, feature).
    using Key = std::pair<Label, FeatureVec>;
    std::multiset<Key> a, b;
    cache.for_each(
        [&a](const CacheEntry& e) { a.emplace(e.label, e.feature); });
    restored.for_each(
        [&b](const CacheEntry& e) { b.emplace(e.label, e.feature); });
    ASSERT_EQ(a, b) << "schedule " << schedule;

    // Identical H-kNN behaviour on random probes.
    for (int probe = 0; probe < 5; ++probe) {
      const FeatureVec q = random_unit(rng, 8);
      const auto va = cache.peek_vote({.features = q});
      const auto vb = restored.peek_vote({.features = q});
      ASSERT_EQ(va.has_value(), vb.has_value()) << "schedule " << schedule;
      if (va.has_value()) {
        EXPECT_EQ(va->label, vb->label);
        EXPECT_EQ(va->voters, vb->voters);
        EXPECT_FLOAT_EQ(va->nearest_distance, vb->nearest_distance);
      }
    }
  }
}

TEST_P(CacheFuzz, ClearEmptiesCacheAndIndexButKeepsIdsFresh) {
  Rng rng{GetParam() ^ 0xc1eaULL};
  ApproxCacheConfig cfg;
  cfg.capacity = 32;
  cfg.index = IndexKind::kExact;
  ApproxCache cache{8, cfg, make_lru_policy()};
  std::vector<VecId> before;
  for (int i = 0; i < 20; ++i) {
    before.push_back(cache.insert(random_unit(rng, 8),
                                  static_cast<Label>(i % 5), 0.9f, i));
  }
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.nearest_distance(random_unit(rng, 8)).has_value());
  EXPECT_FALSE(cache.lookup({.features = random_unit(rng, 8), .now = 100}).vote.has_value());
  // Ids are never reused after a wipe: stale provenance cannot alias.
  const VecId fresh =
      cache.insert(random_unit(rng, 8), 1, 0.9f, 101);
  for (const VecId old : before) EXPECT_NE(fresh, old);
  EXPECT_GT(fresh, before.back());
}

TEST_P(CacheFuzz, QuantizedSnapshotKeepsCodesCoherentWithFloats) {
  // With the SQ8 scan on, every float row has a code-arena row. Churn the
  // cache, snapshot, restore (restore re-inserts, so codes are re-encoded),
  // and clear: at each step every live entry's SQ8 reconstruction must
  // equal re-encoding its float feature from scratch — no stale code rows.
  Rng rng{GetParam() ^ 0x58aaULL};
  ApproxCacheConfig cfg;
  cfg.capacity = 24;
  cfg.index = IndexKind::kLsh;
  cfg.alsh.lsh.num_tables = 4;
  cfg.alsh.lsh.hashes_per_table = 6;
  cfg.alsh.lsh.bucket_width = 0.6f;
  cfg.alsh.lsh.quantize.enabled = true;
  cfg.alsh.lsh.quantize.rerank_k = 8;

  auto expect_coherent = [](const ApproxCache& c) {
    c.for_each([&c](const CacheEntry& e) {
      const FeatureVec got = c.index().reconstructed(e.id);
      const FeatureVec want = dequantize(quantize(e.feature));
      ASSERT_EQ(got.size(), want.size()) << "id " << e.id;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_FLOAT_EQ(got[i], want[i]) << "id " << e.id << " dim " << i;
      }
    });
  };

  ApproxCache cache{8, cfg, make_lru_policy()};
  ASSERT_TRUE(cache.quantized_scan());
  std::vector<VecId> ids;
  SimTime now = 0;
  for (int op = 0; op < 200; ++op) {
    now += 1 + static_cast<SimTime>(rng.uniform_u64(1000));
    const double dice = rng.uniform();
    if (dice < 0.6) {
      // Past capacity this evicts, freeing slots for reuse.
      ids.push_back(cache.insert(random_unit(rng, 8),
                                 static_cast<Label>(rng.uniform_u64(10)),
                                 static_cast<float>(rng.uniform()), now));
    } else if (dice < 0.75 && !ids.empty()) {
      (void)cache.remove(ids[rng.uniform_u64(ids.size())]);
    } else {
      (void)cache.lookup({.features = random_unit(rng, 8), .now = now});
    }
  }
  expect_coherent(cache);

  const auto bytes = save_snapshot(cache, now);
  ApproxCache restored{8, cfg, make_lru_policy()};
  ASSERT_EQ(load_snapshot(restored, bytes, now), cache.size());
  ASSERT_TRUE(restored.quantized_scan());
  expect_coherent(restored);

  // Crash-recovery wipe: no code row may survive clear().
  restored.clear();
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_TRUE(restored.index().reconstructed(ids.empty() ? 0 : ids[0])
                  .empty());
  const VecId fresh = restored.insert(random_unit(rng, 8), 1, 0.9f, now + 1);
  (void)fresh;
  expect_coherent(restored);
}

TEST_P(CacheFuzz, ConcurrentBatchedReadersSurviveMixedWriterOps) {
  // Randomized schedule of the concurrent API: readers mixing lookup,
  // peek_vote and nearest_distance race a writer running the same
  // insert/remove/lookup mix as the sequential fuzz above. Invariants
  // after the dust settles: capacity respected, hit+miss tallies cover the
  // lookups answered, and the cache still answers queries.
  const std::uint64_t schedule = GetParam();
  ApproxCacheConfig cfg;
  cfg.capacity = 48;
  cfg.index = IndexKind::kLsh;
  cfg.hknn.k = 3;
  ApproxCache cache{8, cfg, make_lru_policy()};
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  Rng seed_rng{schedule};
  for (int i = 0; i < 32; ++i) {
    cache.insert(random_unit(seed_rng, 8), static_cast<Label>(i % 6), 0.9f,
                 static_cast<SimTime>(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&cache, &stop, &answered, schedule, t] {
      Rng rng{schedule ^ (0xbeefULL + static_cast<std::uint64_t>(t))};
      std::uint64_t done = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const FeatureVec v = random_unit(rng, 8);
        const double dice = rng.uniform();
        if (dice < 0.8) {
          (void)cache.lookup({.features = v, .now = 1});
          ++done;
        } else if (dice < 0.9) {
          (void)cache.peek_vote({.features = v});
        } else {
          (void)cache.nearest_distance(v);
        }
      }
      answered.fetch_add(done, std::memory_order_relaxed);
    });
  }

  std::thread writer([&cache, &stop, schedule] {
    Rng rng{schedule ^ 0xf00dULL};
    std::vector<VecId> ids;
    SimTime now = 100;
    for (int op = 0; op < 1500; ++op) {
      now += 1 + static_cast<SimTime>(rng.uniform_u64(100));
      const double dice = rng.uniform();
      if (dice < 0.6 || ids.empty()) {
        ids.push_back(cache.insert(random_unit(rng, 8),
                                   static_cast<Label>(rng.uniform_u64(10)),
                                   static_cast<float>(rng.uniform()), now));
      } else if (dice < 0.75) {
        (void)cache.remove(ids[rng.uniform_u64(ids.size())]);
      } else {
        (void)cache.lookup({.features = random_unit(rng, 8), .now = now});
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& th : readers) th.join();

  EXPECT_LE(cache.size(), cfg.capacity);
  // Writer-side lookups also tally hit/miss, so the readers' lookups are
  // a lower bound on the total.
  EXPECT_GE(metrics.counter_value("cache/hit") +
                metrics.counter_value("cache/miss"),
            answered.load());
  // Still serves queries after the churn.
  const FeatureVec probe = random_unit(seed_rng, 8);
  const CacheResult out = cache.lookup({.features = probe, .now = 9999});
  EXPECT_GE(out.latency, cfg.lookup_base_latency);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz, ::testing::Values(10u, 20u, 30u));

// ---------------------------------------------------------- LSH property

class LshProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LshProperty, ResultsAlwaysValid) {
  Rng rng{GetParam()};
  LshParams params;
  params.probes_per_table = rng.uniform_u64(3);
  PStableLshIndex lsh{8, params};
  ExactKnnIndex exact{8};
  std::set<VecId> stored;
  for (int op = 0; op < 500; ++op) {
    if (rng.chance(0.6) || stored.empty()) {
      const VecId id = static_cast<VecId>(op);
      const FeatureVec v = random_unit(rng, 8);
      lsh.insert(id, v);
      exact.insert(id, v);
      stored.insert(id);
    } else if (rng.chance(0.3)) {
      auto it = stored.begin();
      std::advance(it, static_cast<long>(rng.uniform_u64(stored.size())));
      EXPECT_TRUE(lsh.remove(*it));
      EXPECT_TRUE(exact.remove(*it));
      stored.erase(it);
    } else {
      const FeatureVec q = random_unit(rng, 8);
      const auto approx = lsh.query(q, 4);
      const auto truth = exact.query(q, 4);
      // Every returned id exists; distances ascend; the approximate top-1
      // can never beat the exact top-1.
      for (std::size_t i = 0; i < approx.size(); ++i) {
        EXPECT_TRUE(stored.count(approx[i].id));
        if (i > 0) {
          EXPECT_GE(approx[i].distance, approx[i - 1].distance);
        }
      }
      if (!approx.empty() && !truth.empty()) {
        EXPECT_GE(approx[0].distance, truth[0].distance - 1e-6f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LshProperty,
                         ::testing::Values(100u, 200u, 300u));

// ---------------------------------------------------------- Event order

class EventOrderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderFuzz, FiringOrderIsTimeThenFifo) {
  Rng rng{GetParam()};
  EventSimulator sim;
  struct Fired {
    SimTime t;
    int seq;
  };
  std::vector<Fired> fired;
  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_u64(100));
    sim.schedule_at(t, [&fired, t, i] { fired.push_back({t, i}); });
  }
  sim.run_all();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i].t, fired[i - 1].t);
    if (fired[i].t == fired[i - 1].t) {
      ASSERT_GT(fired[i].seq, fired[i - 1].seq);  // FIFO within a timestamp
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderFuzz,
                         ::testing::Values(7u, 77u, 777u));

// ---------------------------------------------------------- Trace

TEST(Trace, RoundTripAndAnalysisMatchesLiveMetrics) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 8 * kSecond;
  cfg.num_devices = 2;
  cfg.record_trace = true;
  ExperimentRunner runner{cfg};
  const ExperimentMetrics live = runner.run();

  const auto bytes = runner.trace().serialize();
  const auto events = TraceRecorder::parse(bytes);
  EXPECT_EQ(events.size(), live.frames());

  const ExperimentMetrics replayed = analyze_trace(events);
  EXPECT_EQ(replayed.frames(), live.frames());
  EXPECT_DOUBLE_EQ(replayed.accuracy(), live.accuracy());
  // Live metrics merge device samples in sorted order, the trace replays
  // them chronologically; the float sums differ in the last ulp.
  EXPECT_NEAR(replayed.mean_latency_ms(), live.mean_latency_ms(), 1e-9);
  EXPECT_DOUBLE_EQ(replayed.reuse_ratio(), live.reuse_ratio());

  // Per-device slices partition the whole.
  const ExperimentMetrics d0 = analyze_trace_device(events, 0);
  const ExperimentMetrics d1 = analyze_trace_device(events, 1);
  EXPECT_EQ(d0.frames() + d1.frames(), live.frames());
}

TEST(Trace, EmptyTraceSerializes) {
  TraceRecorder recorder;
  const auto events = TraceRecorder::parse(recorder.serialize());
  EXPECT_TRUE(events.empty());
}

TEST(Trace, DisabledByDefault) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 3 * kSecond;
  cfg.num_devices = 1;
  ExperimentRunner runner{cfg};
  runner.run();
  EXPECT_EQ(runner.trace().size(), 0u);
}

TEST(Trace, CorruptBytesThrow) {
  TraceRecorder recorder;
  RecognitionResult result;
  result.source = ResultSource::kTemporalReuse;
  recorder.record(0, result);
  auto bytes = recorder.serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW(TraceRecorder::parse(bytes), CodecError);
  auto truncated = recorder.serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(TraceRecorder::parse(truncated), CodecError);
}

TEST(Trace, DeterministicBytesAcrossIdenticalRuns) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 5 * kSecond;
  cfg.num_devices = 2;
  cfg.record_trace = true;
  ExperimentRunner a{cfg}, b{cfg};
  a.run();
  b.run();
  EXPECT_EQ(a.trace().serialize(), b.trace().serialize());
}

// ---------------------------------------------------------- Edge sweep fuzz

class EdgeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The TTL sweep's contract: for any mix of shard counts, TTLs, insert
// times and sweep times, a sweep removes exactly the expired entries —
// never an unexpired one, and never leaves an expired one behind.
TEST_P(EdgeFuzz, SweepRemovesExactlyTheExpiredEntries) {
  Rng rng{GetParam()};
  constexpr std::size_t kDim = 16;
  for (int trial = 0; trial < 25; ++trial) {
    EdgeParams params;
    params.shards = 1 + rng.uniform_u64(4);
    params.capacity = 512;  // roomy: eviction must not muddy the property
    params.ttl = 1 + static_cast<SimDuration>(rng.uniform_u64(50'000));
    params.error_budget = 1.0f;  // admit everything
    EdgeCacheService svc{kDim, params};

    const std::size_t n = 1 + rng.uniform_u64(64);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(svc.feed(random_unit(rng, kDim),
                           static_cast<Label>(rng.uniform_u64(8)), 0.9f,
                           static_cast<SimTime>(rng.uniform_u64(100'000))));
    }
    // Entry ids are per-shard sequences, so key the bookkeeping by
    // (shard, id) — two shards can both hold an id 1.
    std::map<std::pair<std::size_t, VecId>, SimTime> inserted;
    for (std::size_t s = 0; s < svc.shard_count(); ++s) {
      svc.shard(s).for_each([&inserted, s](const CacheEntry& e) {
        inserted.emplace(std::make_pair(s, e.id), e.insert_time);
      });
    }
    ASSERT_EQ(inserted.size(), n);

    const SimTime now = static_cast<SimTime>(rng.uniform_u64(160'000));
    const std::size_t removed = svc.sweep(now);

    std::set<std::pair<std::size_t, VecId>> alive;
    for (std::size_t s = 0; s < svc.shard_count(); ++s) {
      svc.shard(s).for_each([&alive, s](const CacheEntry& e) {
        alive.insert(std::make_pair(s, e.id));
      });
    }
    for (const auto& [key, at] : inserted) {
      const bool expired = now >= at + params.ttl;
      EXPECT_EQ(alive.count(key) == 0, expired)
          << "shard " << key.first << " id " << key.second << " inserted at "
          << at << ", sweep at " << now << ", ttl " << params.ttl;
    }
    EXPECT_EQ(removed, inserted.size() - alive.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeFuzz, ::testing::Values(11u, 22u, 33u));

// ------------------------------------------------- staged splice fuzz

class SpliceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The region-reuse correctness contract: splicing the cached activations of
// every *unchanged* block back into the staged forward pass never changes
// the embedding — bit-identical to recomputing the whole frame, for any
// keyframe, any legal grid, and any subset of changed blocks.
TEST_P(SpliceFuzz, SplicingUnchangedBlocksNeverChangesTheEmbedding) {
  Rng rng{GetParam()};
  const MiniCnn cnn{48, 7};
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  constexpr int kSide = MiniCnn::kInputSide;
  for (int trial = 0; trial < 20; ++trial) {
    Image keyframe(kSide, kSide, 3);
    for (int y = 0; y < kSide; ++y) {
      for (int x = 0; x < kSide; ++x) {
        for (int c = 0; c < 3; ++c) {
          keyframe.at(x, y, c) = static_cast<float>(rng.uniform());
        }
      }
    }
    const int grids[] = {2, 4, 8};
    const int grid = grids[rng.uniform_u64(3)];
    const int bw = kSide / grid;

    // Flip a random subset of blocks (possibly none, possibly all) and
    // perturb a random sample of each flipped block's pixels.
    Image current = keyframe;
    std::vector<std::uint8_t> input_mask(
        static_cast<std::size_t>(kSide) * kSide, 0);
    for (int by = 0; by < grid; ++by) {
      for (int bx = 0; bx < grid; ++bx) {
        if (rng.uniform() >= 0.4) continue;
        for (int y = by * bw; y < (by + 1) * bw; ++y) {
          for (int x = bx * bw; x < (bx + 1) * bw; ++x) {
            input_mask[static_cast<std::size_t>(y) * kSide + x] = 1;
            if (rng.uniform() < 0.5) {
              current.at(x, y, static_cast<int>(rng.uniform_u64(3))) =
                  static_cast<float>(rng.uniform());
            }
          }
        }
      }
    }

    MiniCnn::ForwardState key_state;
    FeatureVec key_out;
    cnn.embed_into(keyframe, key_state, key_out);

    std::vector<std::uint8_t> stage1_mask(plan.stage1.size() /
                                          plan.stage1.channels);
    std::vector<std::uint8_t> stage2_mask(plan.stage2.size() /
                                          plan.stage2.channels);
    MiniCnn::propagate_dirty(input_mask, plan.input.width, plan.input.height,
                             stage1_mask);
    MiniCnn::propagate_dirty(stage1_mask, plan.stage1.width,
                             plan.stage1.height, stage2_mask);

    MiniCnn::ForwardState state;
    cnn.prepare_input(current, state);
    FeatureVec spliced;
    (void)cnn.forward_spliced(state, key_state.stage1, key_state.stage2,
                              stage1_mask, stage2_mask, spliced);
    ASSERT_EQ(spliced, cnn.embed(current))
        << "trial " << trial << " grid " << grid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpliceFuzz,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace apx
