#include "src/cache/approx_cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "src/obs/frame_trace.hpp"
#include "src/obs/metrics.hpp"

namespace apx {

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
  scratch_.index_scratch_ = index_->make_scratch();
  scratch_.results_.resize(1);
  scratch_.stats_.resize(1);
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
  if (q.count != 1) {
    throw std::invalid_argument(
        "ApproxCache::lookup: single-frame path (use lookup_batch)");
  }
  if (q.features.size() != dim_) {
    throw std::invalid_argument("ApproxCache::lookup: bad feature size");
  }
  std::unique_lock lock(mu_);
  CacheResult result;
  answer(q, {&result, 1}, scratch_);
  if (metrics_ != nullptr) {
    metrics_->record(lookup_us_hist_, static_cast<double>(result.latency));
    const std::vector<Neighbor>& neighbors = scratch_.results_[0];
    if (!neighbors.empty()) {
      metrics_->record(nearest_distance_hist_,
                       static_cast<double>(neighbors.front().distance));
    }
  }
  fold(scratch_);
  return result;
}

void ApproxCache::lookup_batch(const CacheQuery& q,
                               std::span<CacheResult> results,
                               CacheQueryScratch& scratch) const {
  if (q.count == 0) return;
  if (q.features.size() != q.count * dim_ || results.size() < q.count) {
    throw std::invalid_argument("ApproxCache::lookup_batch: bad sizes");
  }
  std::shared_lock lock(mu_);
  answer(q, results, scratch);
}

void ApproxCache::answer(const CacheQuery& q, std::span<CacheResult> results,
                         CacheQueryScratch& scratch) const {
  const HknnParams params = effective_params(q.threshold_scale);
  if (scratch.results_.size() < q.count) scratch.results_.resize(q.count);
  if (scratch.stats_.size() < q.count) scratch.stats_.resize(q.count);
  index_->query_batch_into(q.features, q.count, params.k,
                           scratch.index_scratch_.get(),
                           {scratch.results_.data(), q.count},
                           scratch.stats_.data());

  for (std::size_t b = 0; b < q.count; ++b) {
    const std::vector<Neighbor>& neighbors = scratch.results_[b];
    const QueryStats& st = scratch.stats_[b];
    CacheResult r;
    r.candidates = st.candidates;
    r.latency = simulated_latency(st.candidates, st.rerank_survivors);
    r.vote = hknn_vote(neighbors, label_of_, params);
    if (q.trace != nullptr && q.count == 1) {
      q.trace->annotate_lookup(
          static_cast<std::uint32_t>(st.candidates),
          neighbors.empty() ? -1.0f : neighbors.front().distance);
      if (quantized_scan_) {
        q.trace->annotate_rerank(
            static_cast<std::uint32_t>(st.rerank_survivors));
      }
      if (st.rounds > 0) {
        q.trace->annotate_rounds(static_cast<std::uint32_t>(st.rounds));
      }
    }
    ++scratch.lookups_;
    if (r.vote.has_value()) {
      ++scratch.hits_;
      // Defer voter touches to the next fold (bounded buffer: overflow is
      // dropped — recency is an eviction heuristic, not correctness).
      std::size_t touched = 0;
      for (const Neighbor& n : neighbors) {
        if (touched >= r.vote->voters) break;
        if (scratch.touches_.size() < CacheQueryScratch::kMaxTouches) {
          scratch.touches_.push_back({n.id, q.now});
        }
        ++touched;
      }
    } else {
      ++scratch.misses_;
    }
    if (scratch.query_stats_.size() < CacheQueryScratch::kMaxQueryStats) {
      scratch.query_stats_.push_back(st);
    }
    results[b] = std::move(r);
  }
}

CacheQueryScratch ApproxCache::make_scratch() const {
  CacheQueryScratch scratch;
  std::shared_lock lock(mu_);
  scratch.index_scratch_ = index_->make_scratch();
  return scratch;
}

void ApproxCache::fold_scratch(CacheQueryScratch& scratch) {
  std::unique_lock lock(mu_);
  fold(scratch);
}

void ApproxCache::fold(CacheQueryScratch& scratch) {
  for (const CacheQueryScratch::Touch& t : scratch.touches_) {
    auto it = entries_.find(t.id);
    if (it != entries_.end()) {
      it->second.last_access = t.now;
      ++it->second.access_count;
    }
  }
  if (scratch.hits_ > 0) counters_.inc("hit", scratch.hits_);
  if (scratch.misses_ > 0) counters_.inc("miss", scratch.misses_);
  index_->observe_queries(scratch.query_stats_);
  scratch.touches_.clear();
  scratch.query_stats_.clear();
  scratch.lookups_ = 0;
  scratch.hits_ = 0;
  scratch.misses_ = 0;
}

const std::vector<Neighbor>& ApproxCache::probe(std::span<const float> q,
                                                std::size_t k) const {
  index_->query_batch_into(q, 1, k, scratch_.index_scratch_.get(),
                           {scratch_.results_.data(), 1},
                           scratch_.stats_.data());
  index_->observe_queries({scratch_.stats_.data(), 1});
  return scratch_.results_[0];
}

VecId ApproxCache::insert(FeatureVec feature, Label label, float confidence,
                          SimTime now, EntryOrigin origin,
                          std::uint8_t hop_count,
                          std::uint32_t source_device) {
  if (feature.size() != dim_) {
    throw std::invalid_argument("ApproxCache::insert: bad feature size");
  }
  std::unique_lock lock(mu_);
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
  counters_.inc("insert");
  update_memory_gauges();
  return id;
}

bool ApproxCache::remove(VecId id) {
  std::unique_lock lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  index_->remove(id);
  entries_.erase(it);
  update_memory_gauges();
  return true;
}

void ApproxCache::clear() {
  std::unique_lock lock(mu_);
  for (const auto& [id, _] : entries_) index_->remove(id);
  entries_.clear();
  counters_.inc("clear");
  update_memory_gauges();
}

const CacheEntry* ApproxCache::find(VecId id) const {
  std::shared_lock lock(mu_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<float> ApproxCache::nearest_distance(
    std::span<const float> q) const {
  if (q.size() != dim_) {
    throw std::invalid_argument(
        "ApproxCache::nearest_distance: bad feature size");
  }
  std::unique_lock lock(mu_);
  const std::vector<Neighbor>& nearest = probe(q, 1);
  if (nearest.empty()) return std::nullopt;
  return nearest.front().distance;
}

std::optional<HknnVote> ApproxCache::peek_vote(const CacheQuery& q) const {
  if (q.count != 1) {
    throw std::invalid_argument(
        "ApproxCache::peek_vote: single-frame path");
  }
  if (q.features.size() != dim_) {
    throw std::invalid_argument("ApproxCache::peek_vote: bad feature size");
  }
  std::unique_lock lock(mu_);
  return hknn_vote(probe(q.features, config_.hknn.k), label_of_,
                   effective_params(q.threshold_scale));
}

void ApproxCache::for_each(
    const std::function<void(const CacheEntry&)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [_, entry] : entries_) fn(entry);
}

std::vector<CacheEntry> ApproxCache::entries_since(SimTime since) const {
  std::shared_lock lock(mu_);
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
  std::shared_lock lock(mu_);
  return entries_.size();
}

void ApproxCache::attach_metrics(MetricsRegistry& metrics) {
  std::unique_lock lock(mu_);
  metrics_ = &metrics;
  lookup_us_hist_ = metrics.histogram("cache/lookup_us", latency_us_bounds());
  nearest_distance_hist_ =
      metrics.histogram("cache/nearest_distance", distance_bounds());
  // Pre-register the counters the runner later copies from the legacy
  // Counter map, so exports carry them (as zeros) even in empty runs and
  // the JSON schema stays stable.
  metrics.counter("cache/hit");
  metrics.counter("cache/miss");
  metrics.counter("cache/insert");
  metrics.counter("cache/evict");
  if (quantized_scan_) {
    // Pre-register the feature-memory gauges so the "quantized" schema
    // subsystem exports whole (all-or-nothing) even before any insert.
    metrics.counter("cache/bytes_float");
    metrics.counter("cache/bytes_codes");
  }
  index_->attach_metrics(metrics);
}

void ApproxCache::update_memory_gauges() {
  if (!quantized_scan_) return;
  // Per entry: dim float32s in the float arena vs dim uint8 codes plus
  // three float32 ADC terms (offset, scale, |recon|^2) in the sidecar.
  const std::uint64_t n = entries_.size();
  counters_.set("bytes_float", n * dim_ * sizeof(float));
  counters_.set("bytes_codes", n * (dim_ + 3 * sizeof(float)));
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
  counters_.inc("evict");
  return victim;
}

}  // namespace apx
