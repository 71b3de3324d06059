// Tests for the extension features: multiprobe LSH, 8-bit wire
// quantization, cache snapshots, the adaptive threshold controller, and
// radio-range churn in scenarios.

#include <gtest/gtest.h>

#include <cmath>

#include "src/ann/quantize.hpp"
#include "src/cache/snapshot.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/threshold_controller.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

FeatureVec random_unit(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

// ------------------------------------------------------------ Multiprobe

TEST(Multiprobe, ImprovesRecallAtNarrowWidth) {
  // At a width too narrow for plain LSH, probing adjacent buckets must
  // recover a substantial share of the lost neighbours.
  LshParams narrow;
  narrow.num_tables = 4;
  narrow.hashes_per_table = 6;
  narrow.bucket_width = 0.25f;
  LshParams probed = narrow;
  probed.probes_per_table = 4;

  PStableLshIndex plain{16, narrow};
  PStableLshIndex multi{16, probed};
  Rng rng{3};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 200; ++id) {
    base.push_back(random_unit(rng, 16));
    plain.insert(id, base.back());
    multi.insert(id, base.back());
  }
  int plain_found = 0, multi_found = 0;
  for (VecId id = 0; id < 200; ++id) {
    FeatureVec q = base[id];
    for (float& x : q) x += static_cast<float>(rng.normal(0.0, 0.02));
    const auto p = plain.query(q, 1);
    const auto m = multi.query(q, 1);
    if (!p.empty() && p[0].id == id) ++plain_found;
    if (!m.empty() && m[0].id == id) ++multi_found;
  }
  EXPECT_GT(multi_found, plain_found);
}

TEST(Multiprobe, ExactMatchStillFound) {
  LshParams params;
  params.probes_per_table = 2;
  PStableLshIndex index{8, params};
  Rng rng{5};
  const FeatureVec v = random_unit(rng, 8);
  index.insert(1, v);
  const auto result = index.query(v, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1u);
}

TEST(Multiprobe, ProbesBoundedByHashCount) {
  LshParams params;
  params.hashes_per_table = 4;
  params.probes_per_table = 100;  // silently capped at 4 per table
  PStableLshIndex index{8, params};
  Rng rng{5};
  for (VecId id = 0; id < 20; ++id) index.insert(id, random_unit(rng, 8));
  EXPECT_NO_THROW(index.query(random_unit(rng, 8), 4));
}

TEST(Multiprobe, NoProbesMatchesBaseline) {
  LshParams params;
  PStableLshIndex a{8, params};
  params.probes_per_table = 0;
  PStableLshIndex b{8, params};
  Rng rng{7};
  for (VecId id = 0; id < 50; ++id) {
    const FeatureVec v = random_unit(rng, 8);
    a.insert(id, v);
    b.insert(id, v);
  }
  Rng qrng{9};
  for (int i = 0; i < 20; ++i) {
    const FeatureVec q = random_unit(qrng, 8);
    const auto ra = a.query(q, 3);
    const auto rb = b.query(q, 3);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].id, rb[j].id);
    }
  }
}

// ------------------------------------------------------------ Quantize

TEST(Quantize, RoundTripWithinErrorBound) {
  Rng rng{1};
  for (int trial = 0; trial < 20; ++trial) {
    const FeatureVec v = random_unit(rng, 64);
    const FeatureVec back = dequantize(quantize(v));
    ASSERT_EQ(back.size(), v.size());
    const float bound = quantization_error_bound(v) + 1e-6f;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(back[i], v[i], bound);
    }
  }
}

TEST(Quantize, ConstantVectorExact) {
  const FeatureVec v(16, 0.37f);
  const QuantizedVec q = quantize(v);
  EXPECT_EQ(q.scale, 0.0f);
  const FeatureVec back = dequantize(q);
  for (float x : back) EXPECT_FLOAT_EQ(x, 0.37f);
}

TEST(Quantize, EmptyVector) {
  const QuantizedVec q = quantize(FeatureVec{});
  EXPECT_TRUE(dequantize(q).empty());
}

TEST(Quantize, ExtremesMapToExtremeCodes) {
  const FeatureVec v{-1.0f, 1.0f};
  const QuantizedVec q = quantize(v);
  EXPECT_EQ(q.codes[0], 0);
  EXPECT_EQ(q.codes[1], 255);
}

TEST(Quantize, WireRoundTrip) {
  Rng rng{2};
  const FeatureVec v = random_unit(rng, 32);
  Writer w;
  write_quantized(w, quantize(v));
  Reader r{w.bytes()};
  const QuantizedVec q = read_quantized(r);
  EXPECT_EQ(dequantize(q), dequantize(quantize(v)));
  EXPECT_TRUE(r.done());
}

TEST(Quantize, WireTruncationThrows) {
  Writer w;
  write_quantized(w, quantize(FeatureVec(32, 0.5f)));
  auto bytes = w.bytes();
  bytes.resize(bytes.size() - 10);
  Reader r{bytes};
  EXPECT_THROW(read_quantized(r), CodecError);
}

TEST(Quantize, PayloadMuchSmallerThanF32) {
  Rng rng{3};
  const FeatureVec v = random_unit(rng, 64);
  Writer wq, wf;
  write_quantized(wq, quantize(v));
  wf.f32_vec(v);
  EXPECT_LT(wq.size() * 3, wf.size());  // > 3x smaller
}

TEST(Quantize, DistortionSmallerThanClassSeparation) {
  // The L2 distortion of quantization must sit far below unit-norm
  // inter-class distances (~1.4), so reuse decisions are unaffected.
  Rng rng{4};
  OnlineStats distortion;
  for (int i = 0; i < 50; ++i) {
    const FeatureVec v = random_unit(rng, 64);
    distortion.add(l2(v, dequantize(quantize(v))));
  }
  EXPECT_LT(distortion.max(), 0.05);
}

// ------------------------------------------------------------ Snapshot

ApproxCache snapshot_cache() {
  ApproxCacheConfig cfg;
  cfg.capacity = 32;
  cfg.index = IndexKind::kExact;
  return ApproxCache{4, cfg, make_lru_policy()};
}

TEST(Snapshot, RoundTripPreservesEntries) {
  ApproxCache original = snapshot_cache();
  original.insert({1, 0, 0, 0}, 7, 0.9f, 100, EntryOrigin::kLocal, 0, 0);
  original.insert({0, 1, 0, 0}, 8, 0.5f, 200, EntryOrigin::kPeer, 2, 9);
  const auto bytes = save_snapshot(original, 1000);

  ApproxCache restored = snapshot_cache();
  EXPECT_EQ(load_snapshot(restored, bytes, 5000), 2u);
  EXPECT_EQ(restored.size(), 2u);
  // Lookup still works and labels survive.
  const auto hit =
      restored.lookup({.features = FeatureVec{1, 0, 0, 0}, .now = 5000});
  ASSERT_TRUE(hit.vote.has_value());
  EXPECT_EQ(hit.vote->label, 7);
  // Provenance survives: find the peer entry.
  bool found_peer = false;
  restored.for_each([&](const CacheEntry& e) {
    if (e.label == 8) {
      found_peer = true;
      EXPECT_EQ(e.origin, EntryOrigin::kPeer);
      EXPECT_EQ(e.hop_count, 2);
      EXPECT_EQ(e.source_device, 9u);
      // Age preserved: inserted at 200 when saved at 1000 -> age 800,
      // restored at 5000 -> insert_time 4200.
      EXPECT_EQ(e.insert_time, 4200);
    }
  });
  EXPECT_TRUE(found_peer);
}

TEST(Snapshot, EmptyCacheRoundTrip) {
  ApproxCache cache = snapshot_cache();
  const auto bytes = save_snapshot(cache, 0);
  ApproxCache restored = snapshot_cache();
  EXPECT_EQ(load_snapshot(restored, bytes, 0), 0u);
}

TEST(Snapshot, BadMagicThrows) {
  ApproxCache cache = snapshot_cache();
  auto bytes = save_snapshot(cache, 0);
  bytes[0] ^= 0xff;
  EXPECT_THROW(load_snapshot(cache, bytes, 0), CodecError);
}

TEST(Snapshot, DimensionMismatchThrows) {
  ApproxCache cache = snapshot_cache();
  cache.insert({1, 0, 0, 0}, 1, 0.9f, 0);
  const auto bytes = save_snapshot(cache, 0);
  ApproxCacheConfig cfg;
  cfg.capacity = 8;
  cfg.index = IndexKind::kExact;
  ApproxCache other{8, cfg, make_lru_policy()};
  EXPECT_THROW(load_snapshot(other, bytes, 0), CodecError);
}

TEST(Snapshot, TruncatedThrows) {
  ApproxCache cache = snapshot_cache();
  cache.insert({1, 0, 0, 0}, 1, 0.9f, 0);
  auto bytes = save_snapshot(cache, 0);
  bytes.resize(bytes.size() - 4);
  ApproxCache restored = snapshot_cache();
  EXPECT_THROW(load_snapshot(restored, bytes, 0), CodecError);
}

TEST(Snapshot, DeterministicBytes) {
  ApproxCache a = snapshot_cache();
  a.insert({1, 0, 0, 0}, 1, 0.9f, 10);
  a.insert({0, 1, 0, 0}, 2, 0.8f, 20);
  EXPECT_EQ(save_snapshot(a, 100), save_snapshot(a, 100));
}

// ----------------------------------------------------- ThresholdController

TEST(Threshold, StartsNeutral) {
  const ThresholdController c;
  EXPECT_FLOAT_EQ(c.scale(), 1.0f);
}

TEST(Threshold, AgreementLoosens) {
  ThresholdController c;
  c.observe(true);
  EXPECT_GT(c.scale(), 1.0f);
  EXPECT_EQ(c.agreements(), 1u);
}

TEST(Threshold, ConflictTightensSharply) {
  ThresholdController c;
  for (int i = 0; i < 5; ++i) c.observe(true);
  const float loosened = c.scale();
  c.observe(false);
  EXPECT_LT(c.scale(), loosened * 0.9f);
  EXPECT_EQ(c.conflicts(), 1u);
}

TEST(Threshold, ClampedToRange) {
  ThresholdControllerParams params;
  params.min_scale = 0.5f;
  params.max_scale = 2.0f;
  ThresholdController c{params};
  for (int i = 0; i < 500; ++i) c.observe(true);
  EXPECT_FLOAT_EQ(c.scale(), 2.0f);
  for (int i = 0; i < 500; ++i) c.observe(false);
  EXPECT_FLOAT_EQ(c.scale(), 0.5f);
}

TEST(Threshold, EquilibriumBoundsWrongReuse) {
  // AIMD equilibrium: with conflict probability p, increases ~ (1-p)*step
  // balance decreases; for small p the scale floats high, for large p it
  // pins low. Check the direction on both ends.
  ThresholdControllerParams params;
  ThresholdController mostly_right{params}, mostly_wrong{params};
  Rng rng{11};
  for (int i = 0; i < 2000; ++i) {
    mostly_right.observe(!rng.chance(0.02));
    mostly_wrong.observe(!rng.chance(0.6));
  }
  EXPECT_GT(mostly_right.scale(), 1.2f);
  EXPECT_LT(mostly_wrong.scale(), 0.8f);
}

TEST(Threshold, PeekVoteHasNoSideEffects) {
  ApproxCache cache = snapshot_cache();
  MetricsRegistry metrics;
  cache.attach_metrics(metrics);
  cache.insert({1, 0, 0, 0}, 7, 0.9f, 0);
  const auto before_hits = metrics.counter_value("cache/hit");
  const auto vote = cache.peek_vote(
      {.features = FeatureVec{1, 0, 0, 0}, .threshold_scale = 1.0f});
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 7);
  EXPECT_EQ(metrics.counter_value("cache/hit"), before_hits);
  const CacheEntry* entry = nullptr;
  cache.for_each([&](const CacheEntry& e) { entry = &e; });
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->access_count, 0u);
}

TEST(Threshold, AdaptiveScenarioRunsAndKeepsAccuracy) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 15 * kSecond;
  cfg.num_devices = 2;
  cfg.scene.class_confusion = 0.3f;
  cfg.pipeline = make_adaptive_config();
  const ExperimentMetrics adaptive = run_scenario(cfg);
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_scenario(cfg);
  EXPECT_GT(adaptive.reuse_ratio(), 0.3);
  EXPECT_GT(adaptive.accuracy(), baseline.accuracy() - 0.08);
}

// ------------------------------------------------------------ Churn

TEST(Churn, ScenarioRunsWithChurn) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 15 * kSecond;
  cfg.num_devices = 4;
  cfg.churn_period = 4 * kSecond;
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics m = run_scenario(cfg);
  EXPECT_GT(m.frames(), 400u);
  EXPECT_GT(m.reuse_ratio(), 0.2);
}

TEST(Churn, DeterministicUnderChurn) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 10 * kSecond;
  cfg.churn_period = 2 * kSecond;
  const ExperimentMetrics a = run_scenario(cfg);
  const ExperimentMetrics b = run_scenario(cfg);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms(), b.mean_latency_ms());
  EXPECT_EQ(a.frames(), b.frames());
}

// --------------------------------------------------- Quantized protocol

TEST(WireQuantization, EntriesSurviveQuantizedTransport) {
  LookupResponseMsg msg;
  msg.request_id = 1;
  msg.sender = 2;
  Rng rng{13};
  WireEntry e;
  e.feature = random_unit(rng, 64);
  e.label = 9;
  e.confidence = 0.8f;
  e.quantize_on_wire = true;
  msg.entries.push_back(e);
  const auto decoded = decode_lookup_response(encode(msg));
  ASSERT_EQ(decoded.entries.size(), 1u);
  EXPECT_EQ(decoded.entries[0].label, 9);
  EXPECT_LT(l2(decoded.entries[0].feature, e.feature), 0.05f);
}

TEST(WireQuantization, QuantizedAdvertSmaller) {
  EntryAdvertMsg fat, slim;
  Rng rng{14};
  for (int i = 0; i < 8; ++i) {
    WireEntry e;
    e.feature = random_unit(rng, 64);
    e.label = i;
    fat.entries.push_back(e);
    e.quantize_on_wire = true;
    slim.entries.push_back(e);
  }
  EXPECT_LT(encode(slim).size() * 2, encode(fat).size());
}

TEST(WireQuantization, ScenarioWithQuantizationWorks) {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 15 * kSecond;
  cfg.peer.quantize_wire_features = true;
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics quantized = run_scenario(cfg);
  cfg.peer.quantize_wire_features = false;
  const ExperimentMetrics plain = run_scenario(cfg);
  // Same order of reuse; quantization must not break collaboration.
  EXPECT_GT(quantized.reuse_ratio(), plain.reuse_ratio() - 0.1);
  EXPECT_GT(quantized.accuracy(), plain.accuracy() - 0.05);
}

}  // namespace
}  // namespace apx
