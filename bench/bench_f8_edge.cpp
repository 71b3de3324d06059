// F8 (Figure 8) — infrastructure-less P2P vs the region edge aggregation
// tier (src/edge), on the collaboration-friendly workload. The edge is a
// sharded region cache with error-controlled admission that devices query
// after a local/P2P miss and feed on DNN validation. Expected shape: in a
// stable group P2P recovers most of the edge benefit without
// infrastructure; under range churn the edge pulls ahead, because a device
// that walked away from its peers still reaches the region service.
// The second half sweeps EdgeParams::error_budget on a direct-API
// admission stress: a feed stream with a controlled wrong-label rate
// hammering one service. The full-sim path cannot exercise the gate
// densely — a device only feeds after a miss everywhere, and a miss
// usually means the neighbourhood is empty, where admission is free at any
// budget — so the stress isolates what the gate actually trades.
//
// Writes the committed exhibit BENCH_edge.json.

#include <cmath>
#include <cstdint>

#include "bench/common.hpp"
#include "src/obs/report.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace apx;
  using namespace apx::bench;

  banner("F8", "infrastructure-less P2P vs region edge tier",
         "P2P recovers most of the edge benefit in a stable group; the edge "
         "wins under churn and its admission budget trades hits for error");

  // --smoke: shrunk run for CI legs; same structure, same JSON schema.
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::string out_path =
      argc > 2 ? argv[2] : (smoke ? "BENCH_edge_smoke.json" : "BENCH_edge.json");

  auto workload = [&](bool churn) {
    // The static-image photo app of F1 and F6: reuse comes only from
    // recognition history, own or nearby devices'.
    ScenarioConfig cfg = photo_app_scenario();
    cfg.zipf_s = 1.0;
    cfg.duration = (smoke ? 30 : 120) * kSecond;
    cfg.p_stationary = 0.2;
    cfg.p_minor = 0.6;
    cfg.p_major = 0.2;
    cfg.num_devices = 6;
    cfg.model = resnet50_profile();  // collaboration pays when inference is dear
    cfg.seed = 5000;
    if (churn) cfg.churn_period = 5 * kSecond;
    return cfg;
  };

  struct Outcome {
    double mean_ms = 0.0;
    double reuse = 0.0;
    double accuracy = 0.0;
    double edge_hit_rate = 0.0;  ///< frames answered by the edge tier
    std::size_t edge_entries = 0;
  };
  auto measure = [](const ScenarioConfig& cfg) {
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    Outcome o;
    o.mean_ms = m.mean_latency_ms();
    o.reuse = m.reuse_ratio();
    o.accuracy = m.accuracy();
    o.edge_hit_rate = static_cast<double>(m.sources().get("edge-cache")) /
                      static_cast<double>(m.frames());
    o.edge_entries = runner.edge_cache_size();
    return o;
  };

  struct Variant {
    const char* name;
    const char* ladder;
    std::size_t hotset;
  };
  const Variant variants[] = {
      {"solo (no sharing)", "imu,temporal,local,dnn", 0},
      {"p2p", "imu,temporal,local,p2p,dnn", 0},
      {"p2p + hot-set push", "imu,temporal,local,p2p,dnn", 24},
      {"edge only", "imu,temporal,local,edge,dnn", 0},
      {"p2p + edge", "imu,temporal,local,p2p,edge,dnn", 0},
  };

  const std::size_t dim = make_extractor(ExtractorKind::kCnn)->dim();
  BenchJson json("f8_edge", dim, EdgeParams{}.capacity);

  for (const bool churn : {false, true}) {
    const char* regime = churn ? "churn" : "stable";
    std::printf("--- %s ---\n", churn ? "with range churn (5 s period)"
                                      : "stable group");
    TextTable table;
    table.header({"deployment", "mean ms", "reuse", "edge hits", "entries"});
    Outcome p2p_only, p2p_edge;
    for (const Variant& v : variants) {
      ScenarioConfig cfg = workload(churn);
      cfg.pipeline = make_ladder_config(v.ladder);
      cfg.peer.hotset_push_max = v.hotset;
      const Outcome o = measure(cfg);
      table.row({v.name, TextTable::num(o.mean_ms),
                 TextTable::num(o.reuse, 3), TextTable::num(o.edge_hit_rate, 3),
                 std::to_string(o.edge_entries)});
      if (std::string(v.name) == "p2p") p2p_only = o;
      if (std::string(v.name) == "p2p + edge") p2p_edge = o;
    }
    std::printf("%s\n", table.render().c_str());
    // base = P2P-only, new = P2P+edge: "speedup" is the latency ratio the
    // edge tier buys on this regime.
    json.metric(std::string(regime) + "_mean_latency_ms", p2p_only.mean_ms,
                p2p_edge.mean_ms);
    json.extra(std::string(regime) + "_p2p_reuse", p2p_only.reuse);
    json.extra(std::string(regime) + "_edge_reuse", p2p_edge.reuse);
    json.extra(std::string(regime) + "_edge_hit_rate", p2p_edge.edge_hit_rate);
    json.extra(std::string(regime) + "_edge_entries",
               static_cast<double>(p2p_edge.edge_entries));
  }

  // Error-budget sweep: the admission gate's accuracy/hit-rate trade-off,
  // on a direct-API stress where 15% of fed labels are wrong (a noisy
  // model, or a stale device echoing the region). Expected shape: a tight
  // budget rejects conflicting feeds, so incumbent neighbourhoods stay
  // homogeneous and keep ANSWERING — high hit rate, but contested regions
  // keep serving whichever label arrived first. The open budget=1 ablation
  // admits every conflict; H-kNN homogeneity collapses and the edge
  // abstains on a third of queries — the surviving votes are pristine, but
  // coverage is gone. The budget walks that curve.
  std::printf("--- admission error-budget sweep "
              "(direct stress, 15%% wrong-label feeds) ---\n");
  const std::size_t kDim = 64, kClasses = 48;
  const int kEvents = smoke ? 1500 : 6000;
  const float kWrongRate = 0.15f;
  // Class centroids: random unit vectors from a fixed seed; views jitter
  // around them tightly (~0.11 apart) so same-class views match under
  // max_distance while distinct classes (~sqrt(2) apart) never do.
  Rng world{99};
  std::vector<float> centroids(kClasses * kDim);
  for (std::size_t c = 0; c < kClasses; ++c) {
    float norm = 0.0f;
    for (std::size_t i = 0; i < kDim; ++i) {
      const float x = static_cast<float>(world.normal());
      centroids[c * kDim + i] = x;
      norm += x * x;
    }
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < kDim; ++i) centroids[c * kDim + i] /= norm;
  }
  auto view_of = [&](std::size_t c, Rng& rng) {
    FeatureVec v(kDim);
    float norm = 0.0f;
    for (std::size_t i = 0; i < kDim; ++i) {
      v[i] = centroids[c * kDim + i] + 0.01f * static_cast<float>(rng.normal());
      norm += v[i] * v[i];
    }
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < kDim; ++i) v[i] /= norm;
    return v;
  };

  TextTable sweep;
  sweep.header({"error budget", "hit rate", "served accuracy", "admitted",
                "rejected"});
  const char* budgets[] = {"0", "0.1", "0.25", "0.5", "1"};
  for (const char* b : budgets) {
    EdgeParams params;
    params.shards = 4;
    params.capacity = 2048;
    params.ttl = 60 * kSecond;  // longer than the stress: expiry stays out
    params.error_budget = static_cast<float>(std::atof(b));
    params.cache.hknn.max_distance = 0.3f;
    params.cache.hknn.k = 8;
    EdgeCacheService edge{kDim, params};
    MetricsRegistry edge_metrics;
    edge.attach_metrics(edge_metrics);

    Rng rng{7};
    std::size_t queries = 0, hits = 0, correct_hits = 0;
    for (int e = 0; e < kEvents; ++e) {
      const auto c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kClasses) - 1));
      const SimTime now = static_cast<SimTime>(e) * kMillisecond;
      const FeatureVec key = view_of(c, rng);
      if (rng.uniform() < 0.5) {
        ++queries;
        const CacheResult res = edge.query(key, now);
        if (res.vote.has_value()) {
          ++hits;
          if (res.vote->label == static_cast<Label>(c)) ++correct_hits;
        }
      } else {
        Label label = static_cast<Label>(c);
        if (rng.uniform() < kWrongRate) {
          label = static_cast<Label>(
              (c + 1 +
               static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(kClasses) - 2))) %
              kClasses);
        }
        edge.feed(key, label, 0.9f, now);
      }
    }
    const double hit_rate =
        static_cast<double>(hits) / static_cast<double>(queries);
    const double served_acc =
        hits > 0 ? static_cast<double>(correct_hits) /
                       static_cast<double>(hits)
                 : 0.0;
    sweep.row({b, TextTable::num(hit_rate, 3), TextTable::num(served_acc, 4),
               std::to_string(edge_metrics.counter_value("edge/srv_admit")),
               std::to_string(
                   edge_metrics.counter_value("edge/srv_reject_budget"))});
    json.extra(std::string("budget_") + b + "_hit_rate", hit_rate);
    json.extra(std::string("budget_") + b + "_served_accuracy", served_acc);
  }
  std::printf("%s\n", sweep.render().c_str());

  if (!json.write(out_path)) return 1;
  std::printf("exhibit -> %s\n", out_path.c_str());
  return 0;
}
