// Tests for the observability subsystem: histogram bucketing and merge
// semantics, deterministic JSON export across runner thread counts, and the
// per-frame trace emitted by an instrumented pipeline.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "src/core/pipeline.hpp"
#include "src/dnn/oracle.hpp"
#include "src/dnn/zoo.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/edge/edge_client.hpp"
#include "src/obs/frame_trace.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

// ------------------------------------------------------------- histograms

TEST(Metrics, HistogramBucketsFollowLeConvention) {
  MetricsRegistry reg;
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  const auto h = reg.histogram("h", bounds);
  reg.record(h, 0.5);    // <= 1       -> bucket 0
  reg.record(h, 1.0);    // == bound   -> bucket 0 (le convention)
  reg.record(h, 5.0);    // <= 10      -> bucket 1
  reg.record(h, 100.0);  // == last    -> bucket 2
  reg.record(h, 1e6);    // overflow   -> bucket 3
  const auto* hist = reg.find_histogram("h");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 4u);
  EXPECT_EQ(hist->buckets[0], 2u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[2], 1u);
  EXPECT_EQ(hist->buckets[3], 1u);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_DOUBLE_EQ(hist->min, 0.5);
  EXPECT_DOUBLE_EQ(hist->max, 1e6);
}

TEST(Metrics, HistogramQuantileIsClampedAndMonotone) {
  MetricsRegistry reg;
  const std::array<double, 4> bounds{10.0, 20.0, 40.0, 80.0};
  const auto h = reg.histogram("h", bounds);
  for (int i = 0; i < 100; ++i) reg.record(h, 15.0);
  const auto* hist = reg.find_histogram("h");
  ASSERT_NE(hist, nullptr);
  // All mass in one bucket: every quantile collapses to the sample range.
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 15.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 15.0);
  EXPECT_DOUBLE_EQ(hist->mean(), 15.0);
}

TEST(Metrics, CounterHandlesAreStablePerName) {
  MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.counter("x"), a);  // re-registration returns the same slot
  reg.inc(a, 2);
  reg.inc(reg.counter("x"), 3);
  EXPECT_EQ(reg.counter_value("x"), 5u);
  EXPECT_EQ(reg.counter_value("never-registered"), 0u);
}

TEST(Metrics, MergeMatchesSingleRegistryRecording) {
  // Recording split across two registries then merged must equal recording
  // everything into one — the property the parallel runner relies on.
  MetricsRegistry one, a, b;
  const std::array<double, 2> bounds{1.0, 2.0};
  const auto ho = one.histogram("h", bounds);
  const auto ha = a.histogram("h", bounds);
  const auto hb = b.histogram("h", bounds);
  const auto co = one.counter("c");
  const auto ca = a.counter("c");
  for (int i = 0; i < 10; ++i) {
    const double v = 0.3 * i;
    one.record(ho, v);
    if (i < 6) {
      a.record(ha, v);
    } else {
      b.record(hb, v);
    }
  }
  one.inc(co, 7);
  a.inc(ca, 7);
  // "b" never saw counter "c": merge must still line up by name.
  a.merge(b);
  EXPECT_EQ(a.to_json(), one.to_json());
}

TEST(Metrics, JsonExportIsSchemaShapedAndSorted) {
  MetricsRegistry reg;
  reg.inc(reg.counter("z/second"));
  reg.inc(reg.counter("a/first"), 3);
  reg.record(reg.histogram("lat", latency_us_bounds()), 123.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Sorted by name: "a/first" must precede "z/second".
  EXPECT_LT(json.find("a/first"), json.find("z/second"));
}

// ------------------------------------------------- runner export determinism

TEST(Metrics, RunnerExportIsBitIdenticalAcrossThreadCounts) {
  // Two same-seed runs of the full system (P2P couples the devices) export
  // byte-identical registries.
  ScenarioConfig cfg = default_scenario();
  cfg.num_devices = 4;
  cfg.duration = 8 * kSecond;
  cfg.seed = 4321;
  ASSERT_TRUE(cfg.pipeline.enable_p2p);

  ExperimentRunner first{cfg};
  (void)first.run();
  ExperimentRunner second{cfg};
  (void)second.run();

  const std::string json = first.metrics().to_json();
  EXPECT_FALSE(json.empty());
  EXPECT_EQ(json, second.metrics().to_json());
  // The run actually recorded pipeline activity, not an empty registry.
  EXPECT_GT(first.metrics().counter_value(
                source_metric(to_string(ResultSource::kFullInference))),
            0u);
  EXPECT_GT(first.metrics().counter_value("p2p/lookup_sent"), 0u);
}

// ------------------------------------------- attach-time counter registration

/// The "counters" block of `metrics`' JSON export, by name.
std::map<std::string, std::uint64_t> exported_counters(
    const MetricsRegistry& metrics) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream json{metrics.to_json()};
  std::string line;
  bool inside = false;
  while (std::getline(json, line)) {
    if (line.find("\"counters\": {") != std::string::npos) {
      inside = line.back() == '{';  // "{}," when there are none
      continue;
    }
    if (!inside) continue;
    if (line.rfind("  }", 0) == 0) break;
    const std::size_t open = line.find('"');
    const std::size_t close = line.find('"', open + 1);
    out.emplace(line.substr(open + 1, close - open - 1),
                std::stoull(line.substr(close + 3)));
  }
  return out;
}

/// Names in `counters` that start with `prefix`.
std::set<std::string> names_with_prefix(
    const std::map<std::string, std::uint64_t>& counters,
    std::string_view prefix) {
  std::set<std::string> out;
  for (const auto& [name, value] : counters) {
    if (name.rfind(prefix, 0) == 0) out.insert(name);
  }
  return out;
}

/// Every component the runner attaches to a device or edge registry, built
/// standalone on one medium. Nothing is attached by construction.
struct Components {
  static constexpr std::size_t kDim = 8;
  EventSimulator sim;
  WirelessMedium medium{sim, MediumParams{}, /*seed=*/5};
  ApproxCache cache{kDim,
                    [] {
                      ApproxCacheConfig c;
                      c.capacity = 2;
                      c.index = IndexKind::kExact;
                      return c;
                    }(),
                    make_lru_policy()};
  PeerCacheService peers{sim, medium, cache, PeerCacheParams{}};
  EdgeCacheService service{kDim, EdgeParams{}};
  std::unique_ptr<EdgeClient> client;
  SceneGenerator scenes{[] {
    SceneGenerator::Config sc;
    sc.num_classes = 8;
    sc.image_size = 24;
    return sc;
  }()};
  std::unique_ptr<FeatureExtractor> extractor = make_downsample_extractor(8);
  std::unique_ptr<RecognitionModel> model =
      make_oracle_model(mobilenet_v2_profile(), 8);
  std::unique_ptr<ReusePipeline> pipeline;

  Components() {
    service.attach_network(sim, medium);
    client = std::make_unique<EdgeClient>(sim, medium, service.id(),
                                          service.params());
    pipeline = std::make_unique<ReusePipeline>(
        sim, make_nocache_config(), *extractor, *model, nullptr, nullptr,
        nullptr, /*seed=*/3);
  }

  /// Drives each component's main counting paths once.
  void exercise() {
    const FeatureVec key(kDim, 0.5f);
    for (int i = 0; i < 3; ++i) {  // the third insert evicts
      cache.insert(FeatureVec(kDim, 0.1f * static_cast<float>(i)), i, 0.9f,
                   sim.now());
    }
    (void)cache.lookup({.features = key, .now = sim.now()});
    cache.clear();
    peers.start();
    peers.async_lookup(key, [](std::vector<WireEntry>) {});
    service.start();
    client->start();
    client->async_lookup(key, 1.0f, [](std::optional<HknnVote>) {});
    client->feed(key, 1, 0.9f);
    (void)service.feed(key, 2, 0.9f, sim.now());
    (void)service.query(key, sim.now());
    (void)service.sweep(sim.now() + service.params().ttl);
    Frame frame;
    frame.t = sim.now();
    frame.image = scenes.render(1, ViewParams{});
    ASSERT_TRUE(pipeline->process(frame, MotionState::kMinor,
                                  [](const RecognitionResult&) {}));
    // A second frame while the first is in flight is dropped.
    ASSERT_FALSE(pipeline->process(frame, MotionState::kMinor,
                                   [](const RecognitionResult&) {}));
    sim.run_until(sim.now() + kSecond);
  }
};

/// What each component registers at attach, keyed by its registry prefix.
struct ExpectedSet {
  const char* prefix;
  std::set<std::string> names;
};

std::vector<ExpectedSet> expected_counter_sets() {
  std::set<std::string> pipeline{"pipeline/dropped"};
  for (const char* rung : schema_rung_names()) {
    pipeline.insert(rung_outcome_metric(rung, RungOutcome::kHit));
    pipeline.insert(rung_outcome_metric(rung, RungOutcome::kMiss));
  }
  for (const char* source : schema_source_names()) {
    pipeline.insert(source_metric(source));
  }
  return {
      {"cache/",
       {"cache/hit", "cache/miss", "cache/insert", "cache/evict",
        "cache/clear"}},
      {"p2p/",
       {"p2p/lookup_sent", "p2p/response_sent", "p2p/response_recv",
        "p2p/merged", "p2p/merge_dup", "p2p/merge_hops", "p2p/advert_sent",
        "p2p/advert_entries", "p2p/hotset_push", "p2p/hotset_entries",
        "p2p/bad_message", "p2p/degraded", "p2p/backoff_skip"}},
      {"edge/",
       {"edge/lookup_sent", "edge/response_recv", "edge/feed_sent",
        "edge/degraded", "edge/backoff_skip", "edge/bad_message"}},
      {"edge/srv_",
       {"edge/srv_lookup", "edge/srv_feed", "edge/srv_admit",
        "edge/srv_reject_budget", "edge/srv_swept", "edge/srv_bad_message"}},
      {"pipeline/", pipeline},
  };
}

/// Attaches each component to its own registry, in expected_counter_sets()
/// order.
void attach_each(Components& c, std::array<MetricsRegistry, 5>& registries) {
  c.cache.attach_metrics(registries[0]);
  c.peers.attach_metrics(registries[1]);
  c.client->attach_metrics(registries[2]);
  c.service.attach_metrics(registries[3]);
  c.pipeline->attach_metrics(registries[4]);
}

void expect_full_sets_of_zeros(
    const std::array<MetricsRegistry, 5>& registries) {
  const std::vector<ExpectedSet> expected = expected_counter_sets();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].prefix);
    const auto counters = exported_counters(registries[i]);
    EXPECT_EQ(names_with_prefix(counters, expected[i].prefix),
              expected[i].names);
    for (const auto& [name, value] : counters) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
}

TEST(Metrics, ComponentsCountOnlyIntoTheRegistryAttachedToThem) {
  {
    SCOPED_TRACE("attached, idle: the full counter set, as zeros");
    std::array<MetricsRegistry, 5> registries;  // outlive the components
    Components c;
    attach_each(c, registries);
    expect_full_sets_of_zeros(registries);
  }
  {
    SCOPED_TRACE("unattached: records nothing and does not crash");
    std::array<MetricsRegistry, 5> registries;
    Components c;
    c.exercise();
    // Nothing counted before the attach surfaces after it.
    attach_each(c, registries);
    expect_full_sets_of_zeros(registries);
  }
  {
    // The same exercise with registries attached does count, so the zeros
    // above are not an exercise that never reached the counters.
    SCOPED_TRACE("attached, exercised");
    std::array<MetricsRegistry, 5> registries;
    Components c;
    attach_each(c, registries);
    c.exercise();
    EXPECT_EQ(registries[0].counter_value("cache/insert"), 3u);
    EXPECT_EQ(registries[0].counter_value("cache/evict"), 1u);
    EXPECT_EQ(registries[0].counter_value("cache/clear"), 1u);
    EXPECT_EQ(registries[0].counter_value("cache/hit") +
                  registries[0].counter_value("cache/miss"),
              1u);
    EXPECT_GT(registries[2].counter_value("edge/lookup_sent"), 0u);
    EXPECT_GT(registries[2].counter_value("edge/feed_sent"), 0u);
    EXPECT_GT(registries[3].counter_value("edge/srv_feed"), 0u);
    EXPECT_GT(registries[3].counter_value("edge/srv_lookup"), 0u);
    EXPECT_EQ(registries[4].counter_value("pipeline/dropped"), 1u);
    EXPECT_EQ(registries[4].counter_value(
                  source_metric(to_string(ResultSource::kFullInference))),
              1u);
  }
}

// ----------------------------------------------------------- frame traces

constexpr int kClasses = 8;

/// Single-device pipeline harness (mirrors core_test.cpp's).
struct Harness {
  EventSimulator sim;
  SceneGenerator scenes;
  std::unique_ptr<FeatureExtractor> extractor;
  std::unique_ptr<RecognitionModel> model;
  std::unique_ptr<ApproxCache> cache;
  std::unique_ptr<ReusePipeline> pipeline;
  MetricsRegistry registry;
  PipelineConfig config;

  explicit Harness(PipelineConfig cfg)
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
    profile.top1_accuracy = 1.0;
    model = make_oracle_model(profile, kClasses);
    cfg.cache.index = IndexKind::kExact;
    cache = std::make_unique<ApproxCache>(extractor->dim(), cfg.cache,
                                          make_lru_policy());
    cache->attach_metrics(registry);
    pipeline = std::make_unique<ReusePipeline>(sim, cfg, *extractor, *model,
                                               cache.get(), nullptr, nullptr,
                                               /*seed=*/11);
    pipeline->attach_metrics(registry);
  }

  Frame frame(int class_id) {
    Frame f;
    f.t = sim.now();
    f.true_label = class_id;
    f.image = scenes.render(class_id, ViewParams{});
    return f;
  }

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

Rung answering_rung(ResultSource source) {
  switch (source) {
    case ResultSource::kImuFastPath: return Rung::kImuGate;
    case ResultSource::kTemporalReuse: return Rung::kTemporal;
    case ResultSource::kLocalCacheHit: return Rung::kLocalCache;
    case ResultSource::kPeerCacheHit: return Rung::kP2p;
    case ResultSource::kFullInference: return Rung::kDnn;
    case ResultSource::kWarmCacheHit: return Rung::kWarm;
    case ResultSource::kEdgeCacheHit: return Rung::kEdge;
  }
  return Rung::kDnn;
}

/// The trace invariant: spans closed, in ladder order, every rung before
/// the answering one a miss, and the last span a hit on the rung implied by
/// the frame's ResultSource.
void expect_trace_matches(const FrameTrace& trace,
                          const RecognitionResult& result) {
  ASSERT_GT(trace.size(), 0u);
  ASSERT_FALSE(trace.has_open_span());
  EXPECT_EQ(trace.frame_time(), result.frame_time);
  const auto spans = trace.spans();
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_LT(static_cast<int>(spans[i].rung),
              static_cast<int>(spans[i + 1].rung))
        << "ladder order violated at span " << i;
    EXPECT_EQ(spans[i].outcome, RungOutcome::kMiss)
        << "non-final span " << i << " must be a miss";
    EXPECT_LE(spans[i].start, spans[i].end);
  }
  const TraceSpan& last = spans.back();
  EXPECT_EQ(last.rung, answering_rung(result.source));
  EXPECT_EQ(last.outcome, RungOutcome::kHit);
}

TEST(FrameTraceTest, ColdCacheFrameEndsAtDnn) {
  Harness h{approx_base()};
  const RecognitionResult r = h.run_one(h.frame(3));
  ASSERT_EQ(r.source, ResultSource::kFullInference);
  expect_trace_matches(h.pipeline->last_trace(), r);
  // The local-cache rung was visited (and missed) on the way down.
  bool saw_cache_miss = false;
  for (const TraceSpan& s : h.pipeline->last_trace().spans()) {
    if (s.rung == Rung::kLocalCache) {
      saw_cache_miss = (s.outcome == RungOutcome::kMiss);
    }
  }
  EXPECT_TRUE(saw_cache_miss);
}

TEST(FrameTraceTest, WarmCacheFrameEndsAtLocalCacheWithAnnotations) {
  Harness h{approx_base()};
  (void)h.run_one(h.frame(3), MotionState::kMajor);  // cold: DNN + insert
  // Major motion keeps the temporal keyframe invalid, forcing the cache.
  const RecognitionResult r = h.run_one(h.frame(3), MotionState::kMajor);
  ASSERT_EQ(r.source, ResultSource::kLocalCacheHit);
  const FrameTrace& trace = h.pipeline->last_trace();
  expect_trace_matches(trace, r);
  const TraceSpan& last = trace.spans().back();
  EXPECT_GT(last.candidates, 0u);         // the lookup annotated its span
  EXPECT_GE(last.nearest_distance, 0.0f);
}

TEST(FrameTraceTest, RegistryCountsAgreeWithSources) {
  Harness h{approx_base()};
  Counter sources;
  for (int i = 0; i < 20; ++i) {
    const RecognitionResult r = h.run_one(h.frame(i % 4));
    expect_trace_matches(h.pipeline->last_trace(), r);
    sources.inc(to_string(r.source));
  }
  // Per-source counters in the registry match the results' sources, and
  // each source's count shows up as hits on its answering rung.
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kResultSourceCount; ++s) {
    const auto source = static_cast<ResultSource>(s);
    const std::uint64_t n =
        h.registry.counter_value(source_metric(to_string(source)));
    EXPECT_EQ(n, sources.get(to_string(source))) << to_string(source);
    EXPECT_GE(h.registry.counter_value(
                  rung_outcome_metric(answering_rung(source), RungOutcome::kHit)),
              n)
        << to_string(source);
    total += n;
  }
  EXPECT_EQ(total, 20u);
  // Rung latency histograms saw every local-cache visit.
  const auto* cache_hist =
      h.registry.find_histogram(rung_latency_metric(Rung::kLocalCache));
  ASSERT_NE(cache_hist, nullptr);
  EXPECT_GT(cache_hist->count, 0u);
  // And the per-rung human summary renders non-trivially.
  EXPECT_NE(per_rung_summary(h.registry).find("local-cache"),
            std::string::npos);
}

TEST(FrameTraceTest, TraceResetsPerFrame) {
  Harness h{approx_base()};
  (void)h.run_one(h.frame(1));
  const std::size_t first = h.pipeline->last_trace().size();
  (void)h.run_one(h.frame(2), MotionState::kMajor);
  // A fresh frame starts a fresh trace, not an append.
  EXPECT_LE(h.pipeline->last_trace().size(), first + 1);
  EXPECT_FALSE(h.pipeline->last_trace().has_open_span());
}

}  // namespace
}  // namespace apx
