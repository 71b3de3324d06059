#include "src/ann/adaptive_lsh.hpp"

#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"

namespace apx {

AdaptiveLshIndex::AdaptiveLshIndex(std::size_t dim,
                                   const AdaptiveLshParams& params)
    : params_(params), base_(dim, params.lsh) {
  if (params.width_factor <= 0.0f || params.ema_alpha <= 0.0 ||
      params.ema_alpha > 1.0 || params.rebuild_tolerance <= 0.0) {
    throw std::invalid_argument("AdaptiveLshIndex: bad parameters");
  }
}

void AdaptiveLshIndex::insert(VecId id, const FeatureVec& v) {
  base_.insert(id, v);
}

bool AdaptiveLshIndex::remove(VecId id) { return base_.remove(id); }

void AdaptiveLshIndex::observe_queries(std::span<const QueryStats> stats) {
  base_.observe_queries(stats);
  for (const QueryStats& st : stats) {
    const double dk = static_cast<double>(st.farthest);
    if (dk <= 0.0) continue;
    if (has_ema_) {
      dk_ema_ += params_.ema_alpha * (dk - dk_ema_);
    } else {
      dk_ema_ = dk;
      has_ema_ = true;
    }
  }
  queries_since_rebuild_ += stats.size();
  maybe_adapt();
}

void AdaptiveLshIndex::attach_metrics(MetricsRegistry& metrics) {
  base_.attach_metrics(metrics);
  metrics_ = &metrics;
  rebuilds_counter_ = metrics.counter("ann/rebuilds");
}

void AdaptiveLshIndex::maybe_adapt() {
  if (!has_ema_ || base_.size() < params_.min_size_to_adapt ||
      queries_since_rebuild_ < params_.min_queries_between_rebuilds) {
    return;
  }
  const double target =
      static_cast<double>(params_.width_factor) * dk_ema_;
  if (target <= 0.0) return;
  const double current = static_cast<double>(base_.params().bucket_width);
  const double drift = std::abs(current - target) / current;
  if (drift > params_.rebuild_tolerance) {
    base_.rebuild_with_width(static_cast<float>(target));
    ++rebuilds_;
    queries_since_rebuild_ = 0;
    if (metrics_ != nullptr) metrics_->inc(rebuilds_counter_);
  }
}

}  // namespace apx
