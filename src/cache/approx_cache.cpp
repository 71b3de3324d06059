#include "src/cache/approx_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/frame_trace.hpp"
#include "src/obs/metrics.hpp"

namespace apx {

bool valid_key(std::span<const float> key, std::size_t dim) noexcept {
  return key.size() == dim && std::all_of(key.begin(), key.end(), [](float x) {
           return std::isfinite(x);
         });
}

ApproxCache::ApproxCache(std::size_t dim, const ApproxCacheConfig& config,
                         std::unique_ptr<EvictionPolicy> eviction)
    : dim_(dim),
      config_(config),
      quantized_scan_(config.index == IndexKind::kQalsh
                          ? config.qalsh.quantize.enabled
                          : (config.alsh.lsh.quantize.enabled &&
                             config.index != IndexKind::kExact)),
      eviction_(std::move(eviction)),
      index_(make_index(config.index, dim, config.alsh, config.qalsh)),
      label_of_([this](VecId id) { return entries_.at(id).label; }) {
  if (dim == 0 || config.capacity == 0 || eviction_ == nullptr) {
    throw std::invalid_argument("ApproxCache: bad configuration");
  }
}

void ApproxCache::check_key(std::span<const float> key,
                            const char* where) const {
  if (!valid_key(key, dim_)) {
    throw std::invalid_argument(std::string(where) +
                                ": key is not dim() finite values");
  }
}

SimDuration ApproxCache::simulated_latency(
    std::size_t candidates, std::size_t survivors) const noexcept {
  // Fixed overhead + one distance per candidate. The quantized scan pays a
  // quarter of the per-candidate cost (uint8 rows quarter the memory
  // traffic) plus the full cost for each exactly re-ranked survivor.
  if (quantized_scan_) {
    return config_.lookup_base_latency +
           static_cast<SimDuration>(candidates) *
               config_.per_candidate_latency / 4 +
           static_cast<SimDuration>(survivors) *
               config_.per_candidate_latency;
  }
  return config_.lookup_base_latency +
         static_cast<SimDuration>(candidates) *
             config_.per_candidate_latency;
}

HknnParams ApproxCache::effective_params(
    float threshold_scale) const noexcept {
  HknnParams params = config_.hknn;
  params.max_distance *= threshold_scale;
  return params;
}

CacheResult ApproxCache::lookup(const CacheQuery& q) {
  check_key(q.features, "ApproxCache::lookup");
  std::lock_guard lock(mu_);
  const HknnParams params = effective_params(q.threshold_scale);
  index_->query_into(q.features, params.k, neighbors_, &stats_);
  CacheResult result;
  result.candidates = stats_.candidates;
  result.latency =
      simulated_latency(stats_.candidates, stats_.rerank_survivors);
  result.vote = hknn_vote(neighbors_, label_of_, params);
  if (q.trace != nullptr) {
    q.trace->annotate_lookup(
        static_cast<std::uint32_t>(stats_.candidates),
        neighbors_.empty() ? -1.0f : neighbors_.front().distance);
    if (quantized_scan_) {
      q.trace->annotate_rerank(
          static_cast<std::uint32_t>(stats_.rerank_survivors));
    }
    if (stats_.rounds > 0) {
      q.trace->annotate_rounds(static_cast<std::uint32_t>(stats_.rounds));
    }
  }
  if (metrics_ != nullptr) {
    metrics_->record(lookup_us_hist_, static_cast<double>(result.latency));
    if (!neighbors_.empty()) {
      metrics_->record(nearest_distance_hist_,
                       static_cast<double>(neighbors_.front().distance));
    }
  }
  // The fold: touch the voters (the nearest `voters` neighbours), tally
  // the outcome, feed the index hook.
  if (result.vote.has_value()) {
    const std::size_t voters =
        std::min(result.vote->voters, neighbors_.size());
    for (std::size_t i = 0; i < voters; ++i) {
      auto it = entries_.find(neighbors_[i].id);
      if (it != entries_.end()) {
        it->second.last_access = q.now;
        ++it->second.access_count;
      }
    }
    inc_if_attached(metrics_, hit_);
  } else {
    inc_if_attached(metrics_, miss_);
  }
  index_->observe_queries({&stats_, 1});
  return result;
}

const std::vector<Neighbor>& ApproxCache::probe(std::span<const float> q,
                                                std::size_t k) const {
  index_->query_into(q, k, neighbors_, &stats_);
  index_->observe_queries({&stats_, 1});
  return neighbors_;
}

VecId ApproxCache::insert(FeatureVec feature, Label label, float confidence,
                          SimTime now, EntryOrigin origin,
                          std::uint8_t hop_count,
                          std::uint32_t source_device) {
  check_key(feature, "ApproxCache::insert");
  std::lock_guard lock(mu_);
  while (entries_.size() >= config_.capacity) {
    evict_one(now);
  }
  const VecId id = next_id_++;
  CacheEntry entry;
  entry.id = id;
  entry.feature = std::move(feature);
  entry.label = label;
  entry.confidence = confidence;
  entry.insert_time = now;
  entry.last_access = now;
  entry.origin = origin;
  entry.hop_count = hop_count;
  entry.source_device = source_device;
  index_->insert(id, entry.feature);
  entries_.emplace(id, std::move(entry));
  inc_if_attached(metrics_, insert_);
  update_memory_gauges();
  return id;
}

bool ApproxCache::remove(VecId id) {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  index_->remove(id);
  entries_.erase(it);
  update_memory_gauges();
  return true;
}

void ApproxCache::clear() {
  std::lock_guard lock(mu_);
  for (const auto& [id, _] : entries_) index_->remove(id);
  entries_.clear();
  inc_if_attached(metrics_, clear_);
  update_memory_gauges();
}

const CacheEntry* ApproxCache::find(VecId id) const {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<float> ApproxCache::nearest_distance(
    std::span<const float> q) const {
  check_key(q, "ApproxCache::nearest_distance");
  std::lock_guard lock(mu_);
  const std::vector<Neighbor>& nearest = probe(q, 1);
  if (nearest.empty()) return std::nullopt;
  return nearest.front().distance;
}

std::optional<HknnVote> ApproxCache::peek_vote(const CacheQuery& q) const {
  check_key(q.features, "ApproxCache::peek_vote");
  std::lock_guard lock(mu_);
  return hknn_vote(probe(q.features, config_.hknn.k), label_of_,
                   effective_params(q.threshold_scale));
}

void ApproxCache::for_each(
    const std::function<void(const CacheEntry&)>& fn) const {
  std::lock_guard lock(mu_);
  for (const auto& [_, entry] : entries_) fn(entry);
}

std::vector<CacheEntry> ApproxCache::entries_since(SimTime since) const {
  std::lock_guard lock(mu_);
  std::vector<CacheEntry> out;
  for (const auto& [_, entry] : entries_) {
    if (entry.insert_time >= since) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.insert_time < b.insert_time ||
                     (a.insert_time == b.insert_time && a.id < b.id);
            });
  return out;
}

std::size_t ApproxCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void ApproxCache::attach_metrics(MetricsRegistry& metrics) {
  std::lock_guard lock(mu_);
  metrics_ = &metrics;
  lookup_us_hist_ = metrics.histogram("cache/lookup_us", latency_us_bounds());
  nearest_distance_hist_ =
      metrics.histogram("cache/nearest_distance", distance_bounds());
  hit_ = metrics.counter("cache/hit");
  miss_ = metrics.counter("cache/miss");
  insert_ = metrics.counter("cache/insert");
  evict_ = metrics.counter("cache/evict");
  clear_ = metrics.counter("cache/clear");
  if (quantized_scan_) {
    // Registered only with the quantized scan, so the "quantized" schema
    // subsystem exports whole (all-or-nothing) or not at all.
    bytes_float_ = metrics.counter("cache/bytes_float");
    bytes_codes_ = metrics.counter("cache/bytes_codes");
    update_memory_gauges();
  }
  index_->attach_metrics(metrics);
}

void ApproxCache::update_memory_gauges() {
  if (!quantized_scan_ || metrics_ == nullptr) return;
  // Per entry: dim float32s in the float arena vs dim uint8 codes plus
  // three float32 ADC terms (offset, scale, |recon|^2) in the sidecar.
  const std::uint64_t n = entries_.size();
  metrics_->set(bytes_float_, n * dim_ * sizeof(float));
  metrics_->set(bytes_codes_, n * (dim_ + 3 * sizeof(float)));
}

VecId ApproxCache::evict_one(SimTime now) {
  assert(!entries_.empty());
  VecId victim = 0;
  double worst = std::numeric_limits<double>::max();
  for (const auto& [id, entry] : entries_) {
    const double s = eviction_->score(entry, now);
    if (s < worst || (s == worst && id < victim)) {
      worst = s;
      victim = id;
    }
  }
  index_->remove(victim);
  entries_.erase(victim);
  inc_if_attached(metrics_, evict_);
  return victim;
}

}  // namespace apx
