// Unit tests for the ReusePipeline: rung ordering, gating semantics, cost
// accounting, and fallback behaviour.

#include <gtest/gtest.h>

#include <optional>

#include "src/core/pipeline.hpp"
#include "src/dnn/oracle.hpp"
#include "src/dnn/zoo.hpp"
#include "src/obs/report.hpp"

namespace apx {
namespace {

constexpr int kClasses = 8;

/// Single-device pipeline harness with controllable frames.
struct Harness {
  EventSimulator sim;
  SceneGenerator scenes;
  std::unique_ptr<FeatureExtractor> extractor;
  std::unique_ptr<RecognitionModel> model;
  std::unique_ptr<ApproxCache> cache;
  std::unique_ptr<ExactCache> exact_cache;
  std::unique_ptr<WirelessMedium> medium;
  std::unique_ptr<ApproxCache> peer_cache;
  std::unique_ptr<PeerCacheService> peer_service;   // the remote peer
  std::unique_ptr<PeerCacheService> local_service;  // this device's endpoint
  std::unique_ptr<ReusePipeline> pipeline;
  MetricsRegistry metrics;  ///< the pipeline's registry
  PipelineConfig config;

  explicit Harness(PipelineConfig cfg, bool with_peer = false)
      : scenes([] {
          SceneGenerator::Config sc;
          sc.num_classes = kClasses;
          sc.image_size = 24;
          sc.seed = 7;
          return sc;
        }()),
        extractor(make_downsample_extractor(8)),
        config(cfg) {
    ModelProfile profile = mobilenet_v2_profile();
    profile.top1_accuracy = 1.0;  // deterministic truth for rung tests
    model = make_oracle_model(profile, kClasses);
    if (cfg.enable_local_cache) {
      cfg.cache.index = IndexKind::kExact;
      cache = std::make_unique<ApproxCache>(extractor->dim(), cfg.cache,
                                            make_lru_policy());
    } else if (cfg.enable_exact_cache) {
      exact_cache = std::make_unique<ExactCache>(cfg.cache.capacity);
    }
    if (with_peer) {
      MediumParams mp;
      mp.loss_prob = 0.0;
      mp.jitter = 0;
      medium = std::make_unique<WirelessMedium>(sim, mp, 5);
      PeerCacheParams pp;
      pp.advert_enabled = false;
      local_service = std::make_unique<PeerCacheService>(sim, *medium, *cache,
                                                         pp, /*cell=*/0);
      ApproxCacheConfig peer_cfg = cfg.cache;
      peer_cfg.index = IndexKind::kExact;
      peer_cache = std::make_unique<ApproxCache>(
          extractor->dim(), peer_cfg, make_lru_policy());
      peer_service = std::make_unique<PeerCacheService>(
          sim, *medium, *peer_cache, pp, /*cell=*/0);
      local_service->start();
      peer_service->start();
      sim.run_until(sim.now() + 100 * kMillisecond);  // warm discovery
    }
    pipeline = std::make_unique<ReusePipeline>(
        sim, config, *extractor, *model, cache.get(), exact_cache.get(),
        local_service.get(), /*seed=*/11);
    pipeline->attach_metrics(metrics);
  }

  Frame frame(int class_id, float dx = 0.0f) {
    Frame f;
    f.t = sim.now();
    f.true_label = class_id;
    ViewParams view;
    view.dx = dx;
    f.image = scenes.render(class_id, view);
    return f;
  }

  /// Processes one frame synchronously; returns the result. Runs the event
  /// loop only until completion so simulated time does not leap ahead
  /// (which would age out the IMU fast path between frames).
  RecognitionResult run_one(const Frame& f,
                            MotionState motion = MotionState::kMinor) {
    std::optional<RecognitionResult> out;
    EXPECT_TRUE(pipeline->process(
        f, motion, [&](const RecognitionResult& r) { out = r; }));
    while (!out.has_value() && sim.step()) {
    }
    EXPECT_TRUE(out.has_value());
    return out.value_or(RecognitionResult{});
  }
};

PipelineConfig approx_base() {
  PipelineConfig cfg = make_approx_local_config();
  cfg.cache.hknn.max_distance = 0.3f;
  return cfg;
}

// --------------------------------------------------------------- basics

TEST(Pipeline, ApproxModeRequiresCache) {
  EventSimulator sim;
  auto extractor = make_downsample_extractor(8);
  auto model = make_oracle_model(mobilenet_v2_profile(), kClasses);
  EXPECT_THROW(ReusePipeline(sim, make_approx_local_config(), *extractor,
                             *model, nullptr, nullptr, nullptr, 1),
               std::invalid_argument);
}

TEST(Pipeline, NoCacheAlwaysInfers) {
  Harness h{make_nocache_config()};
  for (int i = 0; i < 5; ++i) {
    const RecognitionResult r = h.run_one(h.frame(i % kClasses));
    EXPECT_EQ(r.source, ResultSource::kFullInference);
    EXPECT_TRUE(r.correct);
  }
  EXPECT_EQ(h.metrics.counter_value("pipeline/source/inference"), 5u);
}

TEST(Pipeline, InferenceLatencyMatchesModelMagnitude) {
  Harness h{make_nocache_config()};
  const RecognitionResult r = h.run_one(h.frame(0));
  const auto mean = mobilenet_v2_profile().mean_latency;
  EXPECT_GE(r.latency, static_cast<SimDuration>(0.8 * mean));
  EXPECT_LE(r.latency, static_cast<SimDuration>(1.6 * mean));
}

TEST(Pipeline, BusyPipelineDropsFrames) {
  Harness h{make_nocache_config()};
  int completions = 0;
  ASSERT_TRUE(h.pipeline->process(h.frame(0), MotionState::kMinor,
                                  [&](const RecognitionResult&) {
                                    ++completions;
                                  }));
  EXPECT_TRUE(h.pipeline->busy());
  EXPECT_FALSE(h.pipeline->process(h.frame(1), MotionState::kMinor,
                                   [&](const RecognitionResult&) {
                                     ++completions;
                                   }));
  h.sim.run_until(h.sim.now() + 5 * kSecond);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(h.metrics.counter_value("pipeline/dropped"), 1u);
  EXPECT_FALSE(h.pipeline->busy());
}

TEST(Pipeline, CallbackFiresExactlyOnce) {
  Harness h{make_full_system_config()};
  int calls = 0;
  ASSERT_TRUE(h.pipeline->process(h.frame(0), MotionState::kMinor,
                                  [&](const RecognitionResult&) { ++calls; }));
  h.sim.run_until(h.sim.now() + 10 * kSecond);
  EXPECT_EQ(calls, 1);
}

// --------------------------------------------------------------- cache

TEST(Pipeline, SecondSimilarFrameHitsLocalCache) {
  Harness h{approx_base()};
  const RecognitionResult first = h.run_one(h.frame(3));
  EXPECT_EQ(first.source, ResultSource::kFullInference);
  const RecognitionResult second = h.run_one(h.frame(3, /*dx=*/0.01f));
  EXPECT_EQ(second.source, ResultSource::kLocalCacheHit);
  EXPECT_TRUE(second.correct);
  EXPECT_LT(second.latency, first.latency);
}

TEST(Pipeline, DifferentObjectMissesAndInfers) {
  Harness h{approx_base()};
  h.run_one(h.frame(3));
  const RecognitionResult r = h.run_one(h.frame(5));
  EXPECT_EQ(r.source, ResultSource::kFullInference);
}

TEST(Pipeline, CacheHitMuchCheaperEnergy) {
  Harness h{approx_base()};
  const RecognitionResult infer = h.run_one(h.frame(3));
  const RecognitionResult hit = h.run_one(h.frame(3, 0.01f));
  EXPECT_LT(hit.compute_energy_mj, infer.compute_energy_mj / 4.0);
}

TEST(Pipeline, ExactCacheHitsOnIdenticalFrame) {
  PipelineConfig cfg = make_exactcache_config();
  Harness h{cfg};
  h.run_one(h.frame(3));
  const RecognitionResult r = h.run_one(h.frame(3));  // bit-identical frame
  EXPECT_EQ(r.source, ResultSource::kLocalCacheHit);
}

TEST(Pipeline, ExactCacheMissesOnPerturbedFrame) {
  PipelineConfig cfg = make_exactcache_config();
  Harness h{cfg};
  h.run_one(h.frame(3));
  const RecognitionResult r = h.run_one(h.frame(3, /*dx=*/0.05f));
  EXPECT_EQ(r.source, ResultSource::kFullInference);
}

// --------------------------------------------------------------- IMU

PipelineConfig imu_only() {
  PipelineConfig cfg = approx_base();
  cfg.enable_imu_gate = true;
  cfg.enable_imu_fastpath = true;
  return cfg;
}

TEST(Pipeline, StationaryFastPathAfterFreshResult) {
  Harness h{imu_only()};
  h.run_one(h.frame(2), MotionState::kStationary);
  const RecognitionResult r = h.run_one(h.frame(2), MotionState::kStationary);
  EXPECT_EQ(r.source, ResultSource::kImuFastPath);
  EXPECT_LE(r.latency, 1 * kMillisecond);
  EXPECT_TRUE(r.correct);
}

TEST(Pipeline, FastPathRequiresStationary) {
  Harness h{imu_only()};
  h.run_one(h.frame(2), MotionState::kStationary);
  const RecognitionResult r = h.run_one(h.frame(2, 0.01f), MotionState::kMinor);
  EXPECT_NE(r.source, ResultSource::kImuFastPath);
}

TEST(Pipeline, FastPathExpiresWithAge) {
  PipelineConfig cfg = imu_only();
  cfg.imu_fastpath_max_age = 500 * kMillisecond;
  Harness h{cfg};
  h.run_one(h.frame(2), MotionState::kStationary);
  h.sim.run_until(h.sim.now() + kSecond);  // let the result go stale
  const RecognitionResult r = h.run_one(h.frame(2), MotionState::kStationary);
  EXPECT_NE(r.source, ResultSource::kImuFastPath);
}

TEST(Pipeline, FastPathDisabledConfigSkipsIt) {
  PipelineConfig cfg = imu_only();
  cfg.enable_imu_fastpath = false;
  Harness h{cfg};
  h.run_one(h.frame(2), MotionState::kStationary);
  const RecognitionResult r = h.run_one(h.frame(2), MotionState::kStationary);
  EXPECT_NE(r.source, ResultSource::kImuFastPath);
}

TEST(Pipeline, GateRelaxesThresholdWhenStationary) {
  // A borderline match — just past max_distance but within the stationary
  // gate's relaxed threshold — hits only when the gate relaxes. The
  // threshold is derived from the measured feature distance so the test is
  // robust to extractor details.
  PipelineConfig cfg = approx_base();
  cfg.enable_imu_gate = true;
  cfg.enable_imu_fastpath = false;  // isolate the threshold effect

  {
    // Measure the distance between the two probe frames.
    Harness probe{cfg};
    const float d = l2(probe.extractor->extract(probe.frame(2).image),
                       probe.extractor->extract(probe.frame(2, 0.08f).image));
    ASSERT_GT(d, 0.0f);
    cfg.cache.hknn.max_distance = d / 1.1f;  // strict threshold just misses
  }

  Harness strict{[&] {
    PipelineConfig c = cfg;
    c.enable_imu_gate = false;
    return c;
  }()};
  strict.run_one(strict.frame(2));
  const RecognitionResult miss =
      strict.run_one(strict.frame(2, /*dx=*/0.08f));
  EXPECT_EQ(miss.source, ResultSource::kFullInference);

  // Stationary gate scales the threshold by 1.25: d/1.1*1.25 > d -> hit.
  Harness relaxed{cfg};
  relaxed.run_one(relaxed.frame(2), MotionState::kMinor);
  const RecognitionResult hit =
      relaxed.run_one(relaxed.frame(2, /*dx=*/0.08f),
                      MotionState::kStationary);
  EXPECT_EQ(hit.source, ResultSource::kLocalCacheHit);
}

// --------------------------------------------------------------- video

PipelineConfig video_only() {
  PipelineConfig cfg = approx_base();
  cfg.enable_temporal = true;
  return cfg;
}

TEST(Pipeline, IdenticalFrameTemporallyReused) {
  Harness h{video_only()};
  h.run_one(h.frame(4));
  const RecognitionResult r = h.run_one(h.frame(4));
  EXPECT_EQ(r.source, ResultSource::kTemporalReuse);
  EXPECT_TRUE(r.correct);
  EXPECT_LE(r.latency, 2 * kMillisecond);
}

TEST(Pipeline, MajorMotionBlocksTemporalReuse) {
  PipelineConfig cfg = video_only();
  cfg.enable_imu_gate = true;
  cfg.enable_imu_fastpath = false;
  Harness h{cfg};
  h.run_one(h.frame(4), MotionState::kMinor);
  const RecognitionResult r = h.run_one(h.frame(4), MotionState::kMajor);
  EXPECT_NE(r.source, ResultSource::kTemporalReuse);
}

TEST(Pipeline, SceneChangeDefeatsTemporalReuse) {
  Harness h{video_only()};
  h.run_one(h.frame(4));
  const RecognitionResult r = h.run_one(h.frame(7));
  EXPECT_NE(r.source, ResultSource::kTemporalReuse);
}

TEST(Pipeline, TemporalChainBounded) {
  PipelineConfig cfg = video_only();
  cfg.temporal.max_chain = 2;
  Harness h{cfg};
  h.run_one(h.frame(4));
  EXPECT_EQ(h.run_one(h.frame(4)).source, ResultSource::kTemporalReuse);
  EXPECT_EQ(h.run_one(h.frame(4)).source, ResultSource::kTemporalReuse);
  // Chain exhausted; but the frame still matches the approximate cache.
  const RecognitionResult r = h.run_one(h.frame(4));
  EXPECT_NE(r.source, ResultSource::kTemporalReuse);
}

// --------------------------------------------------------------- P2P

TEST(Pipeline, PeerEntryEnablesPeerCacheHit) {
  PipelineConfig cfg = approx_base();
  cfg.enable_p2p = true;
  Harness h{cfg, /*with_peer=*/true};
  // The remote peer already recognized this object.
  const Frame f = h.frame(6);
  h.peer_cache->insert(h.extractor->extract(f.image), 6, 0.95f, h.sim.now());
  const RecognitionResult r = h.run_one(f);
  EXPECT_EQ(r.source, ResultSource::kPeerCacheHit);
  EXPECT_TRUE(r.correct);
  // Latency includes the network round trip but not a DNN run.
  EXPECT_LT(r.latency, 40 * kMillisecond);
  // The entry now lives locally: the next lookup hits without the network.
  const RecognitionResult again = h.run_one(h.frame(6, 0.005f));
  EXPECT_EQ(again.source, ResultSource::kLocalCacheHit);
}

TEST(Pipeline, EmptyPeerRespondsThenInfers) {
  PipelineConfig cfg = approx_base();
  cfg.enable_p2p = true;
  Harness h{cfg, /*with_peer=*/true};
  const RecognitionResult r = h.run_one(h.frame(6));
  EXPECT_EQ(r.source, ResultSource::kFullInference);
  // Latency ~= p2p wait + inference.
  EXPECT_GT(r.latency, mobilenet_v2_profile().mean_latency / 2);
}

TEST(Pipeline, P2pDisabledSkipsNetwork) {
  PipelineConfig cfg = approx_base();
  cfg.enable_p2p = false;
  Harness h{cfg, /*with_peer=*/true};
  const Frame f = h.frame(6);
  h.peer_cache->insert(h.extractor->extract(f.image), 6, 0.95f, h.sim.now());
  const RecognitionResult r = h.run_one(f);
  EXPECT_EQ(r.source, ResultSource::kFullInference);
}

// --------------------------------------------------------------- misc

TEST(Pipeline, ResultRecordsTruthAndCorrectness) {
  Harness h{approx_base()};
  const RecognitionResult r = h.run_one(h.frame(5));
  EXPECT_EQ(r.true_label, 5);
  EXPECT_EQ(r.label, 5);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.completion_time, r.frame_time + r.latency);
}

TEST(Pipeline, SourceNamesStable) {
  EXPECT_STREQ(to_string(ResultSource::kImuFastPath), "imu-fastpath");
  EXPECT_STREQ(to_string(ResultSource::kTemporalReuse), "temporal");
  EXPECT_STREQ(to_string(ResultSource::kLocalCacheHit), "local-cache");
  EXPECT_STREQ(to_string(ResultSource::kPeerCacheHit), "peer-cache");
  EXPECT_STREQ(to_string(ResultSource::kFullInference), "inference");
}

TEST(Pipeline, CountersSumToProcessedFrames) {
  Harness h{make_full_system_config()};
  for (int i = 0; i < 10; ++i) h.run_one(h.frame(i % 3));
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kResultSourceCount; ++s) {
    total += h.metrics.counter_value(
        source_metric(to_string(static_cast<ResultSource>(s))));
  }
  EXPECT_EQ(total, 10u);
}

}  // namespace
}  // namespace apx
