// Tests for metrics aggregation and the experiment runner, plus end-to-end
// integration properties of whole scenarios (the claims the evaluation
// rests on: reuse reduces latency, accuracy stays close, determinism).

#include <gtest/gtest.h>

#include "src/sim/runner.hpp"

namespace apx {
namespace {

RecognitionResult result_with(SimDuration latency, ResultSource source,
                              bool correct, double energy = 1.0) {
  RecognitionResult r;
  r.latency = latency;
  r.source = source;
  r.correct = correct;
  r.compute_energy_mj = energy;
  return r;
}

// --------------------------------------------------------------- Metrics

TEST(Metrics, EmptyIsZero) {
  ExperimentMetrics m;
  EXPECT_EQ(m.frames(), 0u);
  EXPECT_EQ(m.accuracy(), 0.0);
  EXPECT_EQ(m.mean_latency_ms(), 0.0);
  EXPECT_EQ(m.reuse_ratio(), 0.0);
}

TEST(Metrics, RecordsAccuracyAndLatency) {
  ExperimentMetrics m;
  m.record(result_with(10 * kMillisecond, ResultSource::kLocalCacheHit, true));
  m.record(result_with(30 * kMillisecond, ResultSource::kFullInference, false));
  EXPECT_EQ(m.frames(), 2u);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(m.mean_latency_ms(), 20.0);
  EXPECT_DOUBLE_EQ(m.reuse_ratio(), 0.5);
}

TEST(Metrics, SourceFractions) {
  ExperimentMetrics m;
  m.record(result_with(1, ResultSource::kTemporalReuse, true));
  m.record(result_with(1, ResultSource::kTemporalReuse, true));
  m.record(result_with(1, ResultSource::kFullInference, true));
  EXPECT_NEAR(m.source_fraction(ResultSource::kTemporalReuse), 2.0 / 3, 1e-12);
  EXPECT_NEAR(m.source_fraction(ResultSource::kImuFastPath), 0.0, 1e-12);
}

TEST(Metrics, EnergyAveragesIncludeRadio) {
  ExperimentMetrics m;
  m.record(result_with(1, ResultSource::kFullInference, true, 100.0));
  m.record(result_with(1, ResultSource::kLocalCacheHit, true, 10.0));
  EXPECT_DOUBLE_EQ(m.mean_compute_energy_mj(), 55.0);
  m.add_radio_energy_mj(20.0);
  EXPECT_DOUBLE_EQ(m.mean_total_energy_mj(), 65.0);
}

TEST(Metrics, ReductionVsBaseline) {
  ExperimentMetrics m;
  m.record(result_with(10 * kMillisecond, ResultSource::kLocalCacheHit, true));
  EXPECT_NEAR(m.reduction_vs_percent(100.0), 90.0, 1e-9);
  EXPECT_EQ(m.reduction_vs_percent(0.0), 0.0);
}

TEST(Metrics, QuantilesFromSamples) {
  ExperimentMetrics m;
  for (int i = 1; i <= 100; ++i) {
    m.record(result_with(i * kMillisecond, ResultSource::kFullInference, true));
  }
  EXPECT_NEAR(m.latency_quantile_ms(0.5), 50.5, 0.01);
  EXPECT_NEAR(m.latency_quantile_ms(0.99), 99.01, 0.01);
}

TEST(Metrics, AccuracyBySourceAttributesCorrectness) {
  ExperimentMetrics m;
  m.record(result_with(1, ResultSource::kTemporalReuse, true));
  m.record(result_with(1, ResultSource::kTemporalReuse, false));
  m.record(result_with(1, ResultSource::kFullInference, true));
  EXPECT_DOUBLE_EQ(m.accuracy_by_source(ResultSource::kTemporalReuse), 0.5);
  EXPECT_DOUBLE_EQ(m.accuracy_by_source(ResultSource::kFullInference), 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy_by_source(ResultSource::kPeerCacheHit), 0.0);
}

TEST(Metrics, AccuracyBySourceSurvivesMerge) {
  ExperimentMetrics a, b;
  a.record(result_with(1, ResultSource::kLocalCacheHit, true));
  b.record(result_with(1, ResultSource::kLocalCacheHit, false));
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.accuracy_by_source(ResultSource::kLocalCacheHit), 0.5);
}

TEST(Metrics, MergePoolsEverything) {
  ExperimentMetrics a, b;
  a.record(result_with(10 * kMillisecond, ResultSource::kFullInference, true));
  a.record_dropped();
  b.record(result_with(20 * kMillisecond, ResultSource::kTemporalReuse, false));
  b.add_radio_energy_mj(5.0);
  a.merge(b);
  EXPECT_EQ(a.frames(), 2u);
  EXPECT_EQ(a.dropped(), 1u);
  EXPECT_DOUBLE_EQ(a.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms(), 15.0);
  EXPECT_DOUBLE_EQ(a.radio_energy_mj(), 5.0);
}

// --------------------------------------------------------------- Runner

ScenarioConfig quick_scenario() {
  ScenarioConfig cfg = default_scenario();
  cfg.duration = 10 * kSecond;
  cfg.num_devices = 2;
  cfg.scene.num_classes = 16;
  return cfg;
}

TEST(Runner, RejectsBadConfig) {
  ScenarioConfig cfg = quick_scenario();
  cfg.num_devices = 0;
  EXPECT_THROW(ExperimentRunner{cfg}, std::invalid_argument);
}

TEST(Runner, RejectsMoreThanOneThread) {
  // Every device lives in one event world; num_threads must be 1.
  ScenarioConfig cfg = quick_scenario();
  cfg.num_threads = 4;
  EXPECT_THROW(ExperimentRunner{cfg}, std::invalid_argument);
}

TEST(Runner, RunTwiceThrows) {
  ExperimentRunner runner{quick_scenario()};
  runner.run();
  EXPECT_THROW(runner.run(), std::logic_error);
}

TEST(Runner, ProcessesExpectedFrameCount) {
  ScenarioConfig cfg = quick_scenario();
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics m = run_scenario(cfg);
  // 2 devices x 10 s x 10 fps = 200 frames, minus drops.
  EXPECT_GT(m.frames() + m.dropped(), 190u);
  EXPECT_LE(m.frames() + m.dropped(), 200u);
}

TEST(Runner, DeterministicAcrossRuns) {
  const ScenarioConfig cfg = quick_scenario();
  const ExperimentMetrics a = run_scenario(cfg);
  const ExperimentMetrics b = run_scenario(cfg);
  EXPECT_EQ(a.frames(), b.frames());
  EXPECT_DOUBLE_EQ(a.mean_latency_ms(), b.mean_latency_ms());
  EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy());
  for (const auto& [key, count] : a.sources().items()) {
    EXPECT_EQ(b.sources().get(key), count) << key;
  }
}

TEST(Runner, SeedChangesOutcome) {
  ScenarioConfig cfg = quick_scenario();
  const ExperimentMetrics a = run_scenario(cfg);
  cfg.seed = 999;
  const ExperimentMetrics b = run_scenario(cfg);
  EXPECT_NE(a.mean_latency_ms(), b.mean_latency_ms());
}

TEST(Runner, DeviceMetricsSumToPooled) {
  ExperimentRunner runner{quick_scenario()};
  const ExperimentMetrics pooled = runner.run();
  std::size_t frames = 0;
  for (const auto& m : runner.device_metrics()) frames += m.frames();
  EXPECT_EQ(frames, pooled.frames());
  EXPECT_EQ(runner.device_metrics().size(), 2u);
}

TEST(Runner, CacheCountersExposed) {
  ExperimentRunner runner{quick_scenario()};
  runner.run();
  EXPECT_GT(runner.metrics().counter_value("cache/insert"), 0u);
}

TEST(Runner, P2pCountersExposedWhenEnabled) {
  ExperimentRunner runner{quick_scenario()};
  runner.run();
  std::uint64_t total = 0;
  for (const char* name :
       {"p2p/lookup_sent", "p2p/response_sent", "p2p/response_recv",
        "p2p/merged", "p2p/merge_dup", "p2p/merge_hops", "p2p/advert_sent",
        "p2p/advert_entries", "p2p/hotset_push", "p2p/hotset_entries",
        "p2p/bad_message", "p2p/degraded", "p2p/backoff_skip"}) {
    total += runner.metrics().counter_value(name);
  }
  EXPECT_GT(total, 0u);
}

// ----------------------------------------------------------- Integration

TEST(Integration, FullSystemBeatsNoCacheOnLatency) {
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 20 * kSecond;
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_scenario(cfg);
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics full = run_scenario(cfg);
  EXPECT_LT(full.mean_latency_ms(), baseline.mean_latency_ms() * 0.6);
  EXPECT_GT(full.reuse_ratio(), 0.3);
}

TEST(Integration, AccuracyLossIsMinimal) {
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 30 * kSecond;
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_scenario(cfg);
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics full = run_scenario(cfg);
  EXPECT_GT(full.accuracy(), baseline.accuracy() - 0.06);
}

TEST(Integration, EveryAdditionalSignalHelpsOrIsNeutral) {
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 20 * kSecond;
  auto mean_for = [&](PipelineConfig p) {
    cfg.pipeline = p;
    return run_scenario(cfg).mean_latency_ms();
  };
  const double nocache = mean_for(make_nocache_config());
  const double local = mean_for(make_approx_local_config());
  const double with_video = mean_for(make_approx_video_config());
  EXPECT_LT(local, nocache);
  EXPECT_LT(with_video, local * 1.15);  // video never badly hurts
}

TEST(Integration, IsolatedDevicesGetNoPeerHits) {
  ScenarioConfig cfg = quick_scenario();
  cfg.co_located = false;
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics m = run_scenario(cfg);
  EXPECT_EQ(m.source_fraction(ResultSource::kPeerCacheHit), 0.0);
}

TEST(Integration, ExactCacheBarelyHelpsOnLiveVideo) {
  // The poster's motivation: conventional exact-match caching is nearly
  // useless on noisy camera input.
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 20 * kSecond;
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_scenario(cfg);
  cfg.pipeline = make_exactcache_config();
  const ExperimentMetrics exact = run_scenario(cfg);
  EXPECT_LT(exact.reuse_ratio(), 0.10);
  EXPECT_GT(exact.mean_latency_ms(), baseline.mean_latency_ms() * 0.85);
}

TEST(Integration, RealClassifierScenarioRuns) {
  // A real (non-oracle) classifier end to end. Reuse paths inherit whatever
  // the classifier says per object, so accuracy converges to its per-object
  // accuracy only across many object changes — hence the longer window.
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 25 * kSecond;
  cfg.num_devices = 1;
  cfg.scene.num_classes = 8;
  cfg.use_real_classifier = true;
  cfg.pipeline = make_approx_video_config();
  const ExperimentMetrics m = run_scenario(cfg);
  EXPECT_GT(m.frames(), 150u);
  EXPECT_GT(m.accuracy(), 0.4);
}

TEST(Integration, StationaryWorkloadNearsHeadlineReduction) {
  // The abstract's "up to 94%": a mostly-stationary, high-locality stream.
  ScenarioConfig cfg = quick_scenario();
  cfg.duration = 30 * kSecond;
  cfg.num_devices = 4;
  cfg.p_stationary = 0.85;
  cfg.p_minor = 0.15;
  cfg.p_major = 0.0;
  cfg.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_scenario(cfg);
  cfg.pipeline = make_full_system_config();
  const ExperimentMetrics full = run_scenario(cfg);
  EXPECT_GT(full.reduction_vs_percent(baseline.mean_latency_ms()), 80.0);
}

}  // namespace
}  // namespace apx
