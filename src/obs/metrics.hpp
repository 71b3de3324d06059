#pragma once
// Observability metrics: a registry of named counters and fixed-bucket
// histograms shared by every layer of the stack (ann -> cache -> pipeline
// -> p2p -> sim). Design constraints, in order:
//
//  1. Zero allocations on the hot path. Instruments register by name ONCE
//     (at attach time) and receive an integer handle; inc()/record() are
//     array index + arithmetic. Bucket bounds are fixed at registration.
//  2. Deterministic merging. Each simulated device owns a registry; the
//     runner merges them in device order, so same-seed runs produce
//     bit-identical state (see sim/runner.cpp).
//  3. Two export formats: JSON (machine, schema-checked by tools/check.sh)
//     and an aligned text table (human).

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace apx {

/// Registry of named counters and fixed-bucket histograms.
///
/// Not thread-safe: one registry per simulated device, merged after the run
/// (the same ownership discipline as every other per-device object in this
/// codebase).
class MetricsRegistry {
 public:
  using CounterId = std::uint32_t;
  using HistogramId = std::uint32_t;

  /// One histogram: `buckets[i]` counts samples with value <= bounds[i]
  /// (Prometheus "le" convention); the final bucket is the overflow.
  struct Histogram {
    std::string name;
    std::vector<double> bounds;          ///< ascending upper bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 slots
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const noexcept;
    /// Approximate quantile by linear interpolation within the bucket that
    /// crosses rank q*count; exact at bucket boundaries. q in [0, 1].
    double quantile(double q) const noexcept;
  };

  /// Finds or creates the counter `name`; stable handle for this registry.
  CounterId counter(const std::string& name);

  /// Finds or creates the histogram `name` with the given bucket bounds
  /// (ascending). Re-registering must pass identical bounds.
  HistogramId histogram(const std::string& name,
                        std::span<const double> bounds);

  void inc(CounterId id, std::uint64_t by = 1) noexcept {
    counters_[id].value += by;
  }

  /// Overwrites a counter with an absolute value — gauge semantics (e.g.
  /// resident cache bytes). Merging still sums gauges across registries,
  /// the same fleet-total convention as cache/bytes_float.
  void set(CounterId id, std::uint64_t value) noexcept {
    counters_[id].value = value;
  }

  void record(HistogramId id, double value) noexcept;

  /// Current value of a registered counter (handle variant of
  /// counter_value(); no name lookup).
  std::uint64_t value(CounterId id) const noexcept {
    return counters_[id].value;
  }

  /// Value of counter `name`; 0 when never registered.
  std::uint64_t counter_value(const std::string& name) const noexcept;

  /// Histogram by name; nullptr when never registered.
  const Histogram* find_histogram(const std::string& name) const noexcept;

  std::size_t counter_count() const noexcept { return counters_.size(); }
  std::size_t histogram_count() const noexcept { return histograms_.size(); }

  /// Adds `other`'s counters and histograms into this registry, matching by
  /// name (creating anything absent). Histograms must agree on bounds.
  /// Merging registries in a fixed order is deterministic regardless of the
  /// thread that filled each one.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON export: keys sorted by name, fixed number
  /// formatting. Top-level: {"schema", "counters", "histograms"}.
  std::string to_json() const;

  /// Human-readable summary (counters + histogram mean/p50/p95/max table).
  std::string summary() const;

 private:
  struct NamedCounter {
    std::string name;
    std::uint64_t value = 0;
  };

  std::vector<NamedCounter> counters_;
  std::vector<Histogram> histograms_;
  std::map<std::string, CounterId> counter_ids_;
  std::map<std::string, HistogramId> histogram_ids_;
};

/// inc() for components that count into the registry they are attached
/// to: a no-op while `metrics` is null (nothing attached yet).
inline void inc_if_attached(MetricsRegistry* metrics,
                            MetricsRegistry::CounterId id,
                            std::uint64_t by = 1) noexcept {
  if (metrics != nullptr) metrics->inc(id, by);
}

/// Shared bucket boundary sets so the same quantity is comparable across
/// instruments (and across devices, where merge requires identical
/// bounds). Spans point at static storage.
std::span<const double> latency_us_bounds() noexcept;  ///< 10 us .. 5 s
std::span<const double> distance_bounds() noexcept;    ///< 0.025 .. 2.0
std::span<const double> count_bounds() noexcept;       ///< 1 .. 4096

}  // namespace apx
