#include "src/edge/edge_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

/// Smallest number of sign bits covering `shards` buckets.
std::size_t planes_for(std::size_t shards) {
  std::size_t planes = 0;
  while ((std::size_t{1} << planes) < shards) ++planes;
  return planes;
}

}  // namespace

EdgeCacheService::EdgeCacheService(std::size_t dim, const EdgeParams& params)
    : dim_(dim), params_(params) {
  if (dim_ == 0) throw std::invalid_argument("edge: dim must be positive");
  if (params_.shards == 0) {
    throw std::invalid_argument("edge: shards must be positive");
  }
  if (params_.capacity == 0) {
    throw std::invalid_argument("edge: capacity must be positive");
  }
  if (params_.ttl <= 0) throw std::invalid_argument("edge: ttl must be > 0");
  if (!(params_.error_budget >= 0.0f && params_.error_budget <= 1.0f)) {
    throw std::invalid_argument("edge: error_budget must be in [0, 1]");
  }
  // Routing hyperplanes from a constant seed mixed with (dim, shards): a
  // pure function of the configuration, never the experiment's RNG streams.
  plane_count_ = planes_for(params_.shards);
  if (plane_count_ > 0) {
    Rng rng{0xed6ecac4e5eedULL ^ (static_cast<std::uint64_t>(dim_) << 16) ^
            static_cast<std::uint64_t>(params_.shards)};
    planes_.resize(plane_count_ * dim_);
    for (float& x : planes_) x = static_cast<float>(rng.normal());
  }
  ApproxCacheConfig shard_cfg = params_.cache;
  shard_cfg.capacity = params_.capacity;
  shards_.reserve(params_.shards);
  for (std::size_t s = 0; s < params_.shards; ++s) {
    shards_.push_back(
        std::make_unique<ApproxCache>(dim_, shard_cfg, make_utility_policy()));
  }
}

std::size_t EdgeCacheService::shard_of(std::span<const float> features) const {
  if (shards_.size() == 1) return 0;
  // SimHash routing: the sign pattern of a few random projections. Nearby
  // keys share signs with high probability, so ANN neighbourhoods tend to
  // co-locate in one shard and recall survives the split.
  std::size_t h = 0;
  for (std::size_t p = 0; p < plane_count_; ++p) {
    const float* row = planes_.data() + p * dim_;
    float dot = 0.0f;
    const std::size_t n = std::min(features.size(), dim_);
    for (std::size_t i = 0; i < n; ++i) dot += row[i] * features[i];
    h = (h << 1) | static_cast<std::size_t>(dot >= 0.0f);
  }
  return h % shards_.size();
}

CacheResult EdgeCacheService::query(std::span<const float> features,
                                    SimTime now, float threshold_scale) {
  ApproxCache& shard = *shards_[shard_of(features)];
  const CacheResult res = shard.lookup({.features = features,
                                        .now = now,
                                        .threshold_scale = threshold_scale});
  std::lock_guard<std::mutex> lock{counters_mu_};
  if (metrics_ != nullptr) {
    metrics_->inc(lookup_);
    metrics_->record(lookup_us_hist_, static_cast<double>(res.latency));
  }
  return res;
}

bool EdgeCacheService::feed(const FeatureVec& features, Label label,
                            float confidence, SimTime now,
                            std::uint32_t source_device) {
  // Validate before counting: a rejected key is not a feed.
  if (!valid_key(features, dim_)) {
    throw std::invalid_argument("EdgeCacheService::feed: bad key");
  }
  {
    std::lock_guard<std::mutex> lock{counters_mu_};
    inc_if_attached(metrics_, feed_);
  }
  ApproxCache& shard = *shards_[shard_of(features)];
  // Estimated serving-error increase of admitting (features -> label),
  // derived from the shard's own current answer for this key:
  //   * vote agrees      -> the neighbourhood already serves this label;
  //                         the residual risk is its heterogeneity.
  //   * vote conflicts   -> admitting splits a neighbourhood that today
  //                         answers confidently: cost = its homogeneity.
  //   * abstains, but a neighbour is in range -> contested region, coin-
  //                         flip risk (0.5).
  //   * empty neighbourhood -> free: nothing served here yet.
  float error = 0.0f;
  const auto vote = shard.peek_vote({.features = features, .now = now});
  if (vote.has_value()) {
    error = vote->label == label ? 1.0f - vote->homogeneity
                                 : vote->homogeneity;
  } else {
    const auto nearest = shard.nearest_distance(features);
    if (nearest.has_value() &&
        *nearest <= params_.cache.hknn.max_distance) {
      error = 0.5f;
    }
  }
  if (error > params_.error_budget) {
    std::lock_guard<std::mutex> lock{counters_mu_};
    inc_if_attached(metrics_, reject_budget_);
    return false;
  }
  shard.insert(features, label, confidence, now, EntryOrigin::kPeer,
               /*hop_count=*/1, source_device);
  std::lock_guard<std::mutex> lock{counters_mu_};
  inc_if_attached(metrics_, admit_);
  return true;
}

std::size_t EdgeCacheService::sweep(SimTime now) {
  std::size_t removed = 0;
  std::vector<VecId> expired;
  for (const auto& shard : shards_) {
    expired.clear();
    shard->for_each([&](const CacheEntry& entry) {
      if (now >= entry.insert_time + params_.ttl) expired.push_back(entry.id);
    });
    // for_each holds the shard's lock; mutate only after it returns. Sorted
    // ids keep the removal order independent of hash-map iteration.
    std::sort(expired.begin(), expired.end());
    for (const VecId id : expired) {
      if (shard->remove(id)) ++removed;
    }
  }
  std::lock_guard<std::mutex> lock{counters_mu_};
  inc_if_attached(metrics_, swept_, removed);
  return removed;
}

void EdgeCacheService::clear() {
  for (const auto& shard : shards_) shard->clear();
}

std::size_t EdgeCacheService::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

void EdgeCacheService::attach_network(EventSimulator& sim,
                                      WirelessMedium& medium, int cell) {
  sim_ = &sim;
  medium_ = &medium;
  self_ = medium.add_node(
      [this](NodeId from, const std::vector<std::uint8_t>& payload) {
        on_message(from, payload);
      },
      cell);
}

void EdgeCacheService::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  if (sim_ != nullptr && params_.sweep_interval > 0) {
    sim_->schedule_after(params_.sweep_interval,
                         [this, g = generation_] { sweep_tick(g); });
  }
}

void EdgeCacheService::stop() {
  if (!running_) return;
  running_ = false;
  // A crash loses the in-memory shards; a restarted service starts cold
  // and is re-warmed by device feeds.
  clear();
}

void EdgeCacheService::sweep_tick(std::uint64_t generation) {
  // Generation stamp: a tick scheduled before stop() must not revive (or
  // duplicate) the chain after a restart re-arms its own tick.
  if (!running_ || generation != generation_) return;
  sweep(sim_->now());
  sim_->schedule_after(params_.sweep_interval,
                       [this, generation] { sweep_tick(generation); });
}

void EdgeCacheService::on_message(NodeId from,
                                  const std::vector<std::uint8_t>& payload) {
  if (!running_) return;  // a crashed service's radio hears nothing
  try {
    switch (peek_type(payload)) {
      case MsgType::kEdgeLookupRequest:
        handle_lookup(decode_edge_lookup_request(payload));
        break;
      case MsgType::kEdgeFeed:
        handle_feed(decode_edge_feed(payload));
        break;
      default:
        // Shared-medium chatter (P2P beacons, adverts) reaching this node's
        // radio — not ours, not an error.
        break;
    }
  } catch (const CodecError&) {
    std::lock_guard<std::mutex> lock{counters_mu_};
    inc_if_attached(metrics_, bad_message_);
  }
  (void)from;
}

void EdgeCacheService::handle_lookup(const EdgeLookupRequestMsg& msg) {
  EdgeLookupResponseMsg resp;
  resp.request_id = msg.request_id;
  resp.sender = self_;
  SimDuration latency = 0;
  // A corrupted request can decode into a wrong-size or non-finite query;
  // reject it here (the shard would throw) and still reply, with no vote.
  if (valid_key(msg.query, dim_)) {
    const CacheResult res = query(msg.query, sim_->now(), msg.threshold_scale);
    latency = res.latency;
    if (res.vote.has_value()) {
      resp.has_vote = true;
      resp.label = res.vote->label;
      resp.homogeneity = res.vote->homogeneity;
      resp.nearest_distance = res.vote->nearest_distance;
      resp.voters = static_cast<std::uint32_t>(res.vote->voters);
    }
  } else {
    std::lock_guard<std::mutex> lock{counters_mu_};
    inc_if_attached(metrics_, bad_message_);
  }
  // The reply leaves after the shard lookup's simulated latency.
  sim_->schedule_after(latency, [this, resp, to = msg.sender] {
    if (running_) medium_->unicast(self_, to, encode(resp));
  });
}

void EdgeCacheService::handle_feed(const EdgeFeedMsg& msg) {
  const WireEntry& entry = msg.entry;
  // Corruption can decode into garbage floats; NaN keys would poison every
  // distance comparison in the shard. Reject them up front.
  if (!valid_key(entry.feature, dim_) || entry.label == kNoLabel ||
      !std::isfinite(entry.confidence)) {
    std::lock_guard<std::mutex> lock{counters_mu_};
    inc_if_attached(metrics_, bad_message_);
    return;
  }
  feed(entry.feature, entry.label, entry.confidence, sim_->now(),
       entry.source_device);
}

void EdgeCacheService::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  lookup_us_hist_ =
      metrics.histogram("edge/srv_lookup_us", latency_us_bounds());
  lookup_ = metrics.counter("edge/srv_lookup");
  feed_ = metrics.counter("edge/srv_feed");
  admit_ = metrics.counter("edge/srv_admit");
  reject_budget_ = metrics.counter("edge/srv_reject_budget");
  swept_ = metrics.counter("edge/srv_swept");
  bad_message_ = metrics.counter("edge/srv_bad_message");
}

}  // namespace apx
