#pragma once
// Adaptive LSH (A-LSH) [lineage: FoggyCache, MobiCom'18]. Standard p-stable
// LSH has a fixed bucket width `w`: too narrow and nearby vectors stop
// colliding (recall collapses), too wide and every query scans huge
// candidate sets (lookup latency grows with cache density). A-LSH closes
// the loop: it tracks a moving estimate of the k-th-neighbour distance seen
// by real queries and periodically rebuilds the tables so that
// w ~= width_factor * d_k, keeping both recall and candidate counts stable
// as the cache fills up. The estimate is fed only through observe_queries()
// — the query path itself is plain p-stable LSH.

#include "src/ann/lsh.hpp"

namespace apx {

/// A-LSH tuning knobs.
struct AdaptiveLshParams {
  LshParams lsh;                 ///< initial LSH configuration
  /// Target w = width_factor * EMA(d_k). With k concatenated hashes per
  /// table the per-table collision probability is roughly p(d/w)^k, so the
  /// factor must be generous: at w = 8 d the per-hash collision probability
  /// is ~0.9, giving ~0.95 recall with 8 hashes x 4 tables.
  float width_factor = 8.0f;
  double ema_alpha = 0.1;        ///< smoothing of the d_k estimate
  double rebuild_tolerance = 0.5;///< rebuild when |w - target| / w exceeds
  std::size_t min_queries_between_rebuilds = 32;
  std::size_t min_size_to_adapt = 16;  ///< don't adapt a near-empty index
};

/// Self-tuning LSH index (see file comment). Queries run against the
/// current tables and feed nothing; the width controller learns only
/// through observe_queries(), which may rebuild the tables.
class AdaptiveLshIndex final : public NnIndex {
 public:
  AdaptiveLshIndex(std::size_t dim, const AdaptiveLshParams& params);

  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;

  /// The controller feed: records the base index's instruments, applies
  /// each query's farthest returned distance to the d_k EMA in order,
  /// advances the query counter by stats.size(), then runs the rebuild
  /// check once. A cache lookup feeds one query, so the index adapts after
  /// every lookup.
  void observe_queries(std::span<const QueryStats> stats) override;
  std::size_t size() const noexcept override { return base_.size(); }
  std::size_t dim() const noexcept override { return base_.dim(); }

  FeatureVec reconstructed(VecId id) const override {
    return base_.reconstructed(id);
  }

  /// Registers the base index's instruments plus the "ann/rebuilds" counter.
  void attach_metrics(MetricsRegistry& metrics) override;

  /// Current bucket width (changes over time; exposed for tests/benches).
  float current_width() const noexcept {
    return base_.params().bucket_width;
  }

  /// Rebuilds performed so far.
  std::size_t rebuild_count() const noexcept { return rebuilds_; }

 protected:
  /// Queries the current tables (the base index's).
  void query_impl(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats) const override {
    base_.query_into(q, k, out, stats);
  }

 private:
  void maybe_adapt();

  AdaptiveLshParams params_;
  PStableLshIndex base_;
  double dk_ema_ = 0.0;
  bool has_ema_ = false;
  std::size_t queries_since_rebuild_ = 0;
  std::size_t rebuilds_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t rebuilds_counter_ = 0;
};

}  // namespace apx
