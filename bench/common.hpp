#pragma once
// Shared helpers for the exhibit-regeneration benches (see DESIGN.md §3 for
// the experiment index and EXPERIMENTS.md for paper-vs-measured results).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/ann/exact_knn.hpp"
#include "src/ann/index.hpp"
#include "src/sim/runner.hpp"
#include "src/util/table.hpp"

namespace apx::bench {

/// Exact answer key for a recall measurement: the true top-k of every query,
/// computed once from an ExactKnnIndex and shared across all backends under
/// comparison, so each is judged against the same ground truth.
struct GroundTruth {
  std::size_t k = 0;
  std::vector<std::vector<Neighbor>> exact;  ///< per query, closest first
};

inline GroundTruth exact_ground_truth(const ExactKnnIndex& truth,
                                      const std::vector<FeatureVec>& queries,
                                      std::size_t k) {
  GroundTruth gt;
  gt.k = k;
  gt.exact.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    truth.query_into(queries[i], k, gt.exact[i]);
  }
  return gt;
}

/// Distance-threshold recall@k: a returned neighbour counts as recalled
/// when its distance is within epsilon of the exact k-th distance, so ties
/// (distinct ids at equal distance) are not penalized. Queries with no
/// exact answer (empty index) are skipped.
inline double recall_at_k(const std::vector<std::vector<Neighbor>>& results,
                          const GroundTruth& truth) {
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::vector<Neighbor>& exact = truth.exact[i];
    if (exact.empty()) continue;
    ++counted;
    const float kth = exact.back().distance + 1e-6f;
    std::size_t matched = 0;
    for (const Neighbor& nb : results[i]) {
      if (nb.distance <= kth) ++matched;
    }
    total += static_cast<double>(std::min(matched, exact.size())) /
             static_cast<double>(exact.size());
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

/// Interpolated percentile (p in [0, 100]); sorts `samples` in place.
inline double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

/// Writer for the committed BENCH_*.json exhibits. One schema for every
/// bench so the perf trajectory is machine-diffable across PRs:
///
///   {"bench": ..., "dim": N, "entries": N,
///    "metrics": {name: {"base_ns_op": x, "new_ns_op": y, "speedup": x/y}},
///    "extras":  {name: value}}
///
/// "base" is the comparison baseline (old implementation, float path, ...),
/// "new" the measured path under test; extras carry scalar context
/// (candidate counts, parity percentages, bytes per entry).
class BenchJson {
 public:
  BenchJson(std::string bench, std::size_t dim, std::size_t entries)
      : bench_(std::move(bench)), dim_(dim), entries_(entries) {}

  void metric(const std::string& name, double base_ns_op, double new_ns_op) {
    metrics_.push_back({name, base_ns_op, new_ns_op});
  }

  void extra(const std::string& name, double value) {
    extras_.push_back({name, value});
  }

  /// Writes the exhibit; returns false (and prints to stderr) on I/O error.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    std::fprintf(f, "  \"dim\": %zu,\n  \"entries\": %zu,\n", dim_, entries_);
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "%s\n    \"%s\": {\"base_ns_op\": %.2f, "
                   "\"new_ns_op\": %.2f, \"speedup\": %.2f}",
                   i == 0 ? "" : ",", m.name.c_str(), m.base_ns_op,
                   m.new_ns_op,
                   m.new_ns_op > 0.0 ? m.base_ns_op / m.new_ns_op : 0.0);
    }
    std::fprintf(f, "\n  },\n  \"extras\": {");
    for (std::size_t i = 0; i < extras_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.2f", i == 0 ? "" : ",",
                   extras_[i].first.c_str(), extras_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double base_ns_op = 0.0;
    double new_ns_op = 0.0;
  };

  std::string bench_;
  std::size_t dim_ = 0;
  std::size_t entries_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> extras_;
};

/// The evaluation's canonical workload: a co-located group of four devices
/// watching a shared 64-class world, mixed mobility, 10 fps video.
inline ScenarioConfig evaluation_scenario() {
  ScenarioConfig cfg = default_scenario();
  cfg.num_devices = 4;
  cfg.duration = 45 * kSecond;
  cfg.scene.num_classes = 64;
  cfg.zipf_s = 0.9;
  return cfg;
}

/// High-locality variant behind the abstract's "up to 94%": users mostly
/// dwelling on objects (kiosk / museum / shelf-scanning behaviour).
inline ScenarioConfig high_locality_scenario() {
  ScenarioConfig cfg = evaluation_scenario();
  cfg.p_stationary = 0.80;
  cfg.p_minor = 0.17;
  cfg.p_major = 0.03;
  cfg.zipf_s = 1.1;
  return cfg;
}

/// Static-image photo app (the abstract's other headline case): a fresh
/// object in every photo, one photo per 2 s, so no temporal locality exists
/// and reuse must come from recognition history — own or nearby devices'.
/// Co-located people see an object from similar vantage points; without
/// that view overlap no feature scheme could match another device's entry.
/// Callers set popularity skew, duration, model, mobility mix and fleet.
inline ScenarioConfig photo_app_scenario() {
  ScenarioConfig cfg = evaluation_scenario();
  cfg.scene.num_classes = 192;
  cfg.video.fps = 0.5;
  cfg.video.change_rate_stationary = 2.0;
  cfg.video.change_rate_minor = 2.0;
  cfg.video.change_rate_major = 2.0;
  cfg.video.view_pan_sigma = 0.15f;
  cfg.video.view_zoom_min = 0.95f;
  cfg.video.view_zoom_max = 1.15f;
  return cfg;
}

/// Runs `cfg` under `seeds` different seeds and pools the metrics.
inline ExperimentMetrics run_seeds(ScenarioConfig cfg, int seeds = 3) {
  ExperimentMetrics pooled;
  for (int s = 0; s < seeds; ++s) {
    cfg.seed = 1000 + static_cast<std::uint64_t>(s) * 7919;
    pooled.merge(run_scenario(cfg));
  }
  return pooled;
}

/// The named pipeline configurations every per-configuration exhibit sweeps.
struct NamedConfig {
  std::string name;
  PipelineConfig config;
};

inline std::vector<NamedConfig> configuration_ladder() {
  return {
      {"no-cache", make_nocache_config()},
      {"exact-cache", make_exactcache_config()},
      {"approx-local", make_approx_local_config()},
      {"approx+imu", make_approx_imu_config()},
      {"approx+imu+video", make_approx_video_config()},
      {"full-system(+p2p)", make_full_system_config()},
  };
}

/// Standard exhibit banner.
inline void banner(const char* id, const char* title, const char* claim) {
  std::printf("=== %s: %s ===\n", id, title);
  std::printf("expected shape: %s\n\n", claim);
}

}  // namespace apx::bench
