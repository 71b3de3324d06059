#include "src/p2p/peer_cache.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"

namespace apx {

PeerCacheService::PeerCacheService(EventSimulator& sim, WirelessMedium& medium,
                                   ApproxCache& cache,
                                   const PeerCacheParams& params, int cell)
    : sim_(&sim),
      medium_(&medium),
      cache_(&cache),
      params_(params),
      self_(medium.add_node(
          [this](NodeId from, const std::vector<std::uint8_t>& payload) {
            on_message(from, payload);
          },
          cell)),
      discovery_(
          sim, self_, params.discovery,
          [this](std::vector<std::uint8_t> payload) {
            medium_->broadcast(self_, std::move(payload));
          },
          [this] { return static_cast<std::uint32_t>(cache_->size()); }) {}

void PeerCacheService::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  last_advert_scan_ = sim_->now();
  // A restart begins a fresh protocol life: no backoff debt carries over.
  degraded_streak_ = 0;
  backoff_level_ = 0;
  suppressed_until_ = 0;
  discovery_.start();
  if (params_.advert_enabled) {
    sim_->schedule_after(params_.advert_interval,
                         [this, g = generation_] { advert_tick(g); });
  }
}

void PeerCacheService::stop() {
  if (!running_) return;
  running_ = false;
  discovery_.stop();
  discovery_.forget_all();
  // Fail pending lookups in request order (deterministic regardless of the
  // hash map's iteration order). Callbacks may re-enter the service.
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, _] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) complete_lookup(id);
}

void PeerCacheService::on_message(NodeId from,
                                  const std::vector<std::uint8_t>& payload) {
  if (!running_) return;  // a crashed endpoint's radio hears nothing
  try {
    switch (peek_type(payload)) {
      case MsgType::kHello: {
        const HelloMsg hello = decode_hello(payload);
        const bool is_new = discovery_.on_hello(hello);
        if (is_new && params_.hotset_push_max > 0) {
          push_hotset(hello.sender);
        }
        break;
      }
      case MsgType::kLookupRequest:
        handle_lookup_request(decode_lookup_request(payload));
        break;
      case MsgType::kLookupResponse:
        handle_lookup_response(decode_lookup_response(payload));
        break;
      case MsgType::kEntryAdvert:
        handle_advert(decode_entry_advert(payload));
        break;
      default:
        inc_if_attached(metrics_, bad_message_);
        break;
    }
  } catch (const CodecError&) {
    inc_if_attached(metrics_, bad_message_);
  }
  (void)from;
}

void PeerCacheService::async_lookup(const FeatureVec& query,
                                    LookupCallback cb) {
  const auto neighbors = discovery_.neighbors();
  const std::uint64_t request_id = next_request_id_++;
  if (neighbors.empty()) {
    // Complete through the event loop so callers see uniform asynchrony.
    sim_->schedule_after(0, [cb = std::move(cb)] { cb({}); });
    return;
  }
  PendingLookup pending;
  pending.cb = std::move(cb);
  pending.expected = neighbors.size();
  pending.start = sim_->now();
  pending_.emplace(request_id, std::move(pending));

  LookupRequestMsg msg;
  msg.request_id = request_id;
  msg.sender = self_;
  msg.query = query;
  msg.k = params_.lookup_k;
  medium_->broadcast(self_, encode(msg));
  inc_if_attached(metrics_, lookup_sent_);

  sim_->schedule_after(params_.lookup_timeout,
                       [this, request_id] { complete_lookup(request_id); });
}

void PeerCacheService::complete_lookup(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // already completed
  // Move out before erase: the callback may start another lookup.
  PendingLookup pending = std::move(it->second);
  pending_.erase(it);
  const SimDuration round = sim_->now() - pending.start;
  // A round that ends with answers still missing was bounded by the
  // timeout (or cut short by a crash): the degraded signal that feeds both
  // the p2p_degraded observability and the rung backoff.
  note_round_outcome(pending.received < pending.expected, sim_->now());
  if (metrics_ != nullptr) {
    metrics_->record(round_us_hist_, static_cast<double>(round));
    if (pending.received < pending.expected) {
      metrics_->record(degraded_round_us_hist_, static_cast<double>(round));
    }
  }
  pending.cb(std::move(pending.collected));
}

void PeerCacheService::note_round_outcome(bool degraded, SimTime now) {
  if (!degraded) {
    degraded_streak_ = 0;
    backoff_level_ = 0;
    suppressed_until_ = 0;
    return;
  }
  inc_if_attached(metrics_, degraded_);
  if (params_.backoff_after == 0) return;
  ++degraded_streak_;
  if (degraded_streak_ < params_.backoff_after) return;
  // Exponential growth, capped; each further degraded round after the
  // threshold extends the suppression at the next level.
  SimDuration window = params_.backoff_base;
  for (std::uint32_t i = 0; i < backoff_level_ && window < params_.backoff_max;
       ++i) {
    window *= 2;
  }
  window = std::min(window, params_.backoff_max);
  ++backoff_level_;
  suppressed_until_ = now + window;
}

bool PeerCacheService::should_attempt(SimTime now) {
  if (now >= suppressed_until_) return true;
  inc_if_attached(metrics_, backoff_skip_);
  return false;
}

void PeerCacheService::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  round_us_hist_ = metrics.histogram("p2p/round_us", latency_us_bounds());
  degraded_round_us_hist_ =
      metrics.histogram("p2p/degraded_round_us", latency_us_bounds());
  lookup_sent_ = metrics.counter("p2p/lookup_sent");
  response_sent_ = metrics.counter("p2p/response_sent");
  response_recv_ = metrics.counter("p2p/response_recv");
  merged_ = metrics.counter("p2p/merged");
  merge_dup_ = metrics.counter("p2p/merge_dup");
  merge_hops_ = metrics.counter("p2p/merge_hops");
  advert_sent_ = metrics.counter("p2p/advert_sent");
  advert_entries_ = metrics.counter("p2p/advert_entries");
  hotset_push_ = metrics.counter("p2p/hotset_push");
  hotset_entries_ = metrics.counter("p2p/hotset_entries");
  bad_message_ = metrics.counter("p2p/bad_message");
  degraded_ = metrics.counter("p2p/degraded");
  backoff_skip_ = metrics.counter("p2p/backoff_skip");
}

void PeerCacheService::push_hotset(NodeId newcomer) {
  // The most-accessed local entries are the best predictors of what the
  // newcomer will ask about; ship them proactively so it starts warm.
  std::vector<const CacheEntry*> hot;
  cache_->for_each([&hot](const CacheEntry& entry) {
    if (entry.origin == EntryOrigin::kLocal) hot.push_back(&entry);
  });
  if (hot.empty()) return;
  std::sort(hot.begin(), hot.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->access_count > b->access_count ||
                     (a->access_count == b->access_count && a->id < b->id);
            });
  if (hot.size() > params_.hotset_push_max) {
    hot.resize(params_.hotset_push_max);
  }
  EntryAdvertMsg msg;
  msg.sender = self_;
  for (const CacheEntry* entry : hot) {
    msg.entries.push_back(to_wire(*entry));
  }
  medium_->unicast(self_, newcomer, encode(msg));
  inc_if_attached(metrics_, hotset_push_);
  inc_if_attached(metrics_, hotset_entries_, msg.entries.size());
}

void PeerCacheService::handle_lookup_request(const LookupRequestMsg& msg) {
  LookupResponseMsg resp;
  resp.request_id = msg.request_id;
  resp.sender = self_;
  if (!msg.query.empty() && msg.query.size() == cache_->dim()) {
    // Answer from the raw entry set: share the neighbours themselves and
    // let the requester run its own H-kNN over the merged pool.
    std::vector<std::pair<float, const CacheEntry*>> close;
    cache_->for_each([&](const CacheEntry& entry) {
      const float d = l2(msg.query, entry.feature);
      if (d <= params_.response_max_distance) close.emplace_back(d, &entry);
    });
    std::sort(close.begin(), close.end(),
              [](const auto& a, const auto& b) {
                return a.first < b.first ||
                       (a.first == b.first && a.second->id < b.second->id);
              });
    const std::size_t take =
        std::min<std::size_t>(msg.k, close.size());
    for (std::size_t i = 0; i < take; ++i) {
      resp.entries.push_back(to_wire(*close[i].second));
    }
  }
  medium_->unicast(self_, msg.sender, encode(resp));
  inc_if_attached(metrics_, response_sent_);
}

void PeerCacheService::handle_lookup_response(const LookupResponseMsg& msg) {
  inc_if_attached(metrics_, response_recv_);
  const auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) return;  // late response after timeout
  auto& pending = it->second;
  for (const auto& entry : msg.entries) {
    pending.collected.push_back(entry);
    merge_entry(entry);
  }
  ++pending.received;
  if (pending.received >= pending.expected) {
    complete_lookup(msg.request_id);
  }
}

void PeerCacheService::handle_advert(const EntryAdvertMsg& msg) {
  for (const auto& entry : msg.entries) merge_entry(entry);
}

WireEntry PeerCacheService::to_wire(const CacheEntry& entry) const {
  WireEntry wire;
  wire.feature = entry.feature;
  wire.label = entry.label;
  wire.confidence = entry.confidence;
  wire.hop_count = entry.hop_count;
  wire.source_device = entry.source_device;
  wire.age = std::max<SimDuration>(0, sim_->now() - entry.insert_time);
  wire.quantize_on_wire = params_.quantize_wire_features;
  return wire;
}

bool PeerCacheService::merge_entry(const WireEntry& entry) {
  // A corrupted payload can decode "successfully" into garbage floats; a
  // NaN feature would defeat every distance comparison downstream and sit
  // in the cache poisoning votes forever. Reject non-finite values here.
  if (!valid_key(entry.feature, cache_->dim()) || entry.label == kNoLabel ||
      !std::isfinite(entry.confidence)) {
    inc_if_attached(metrics_, bad_message_);
    return false;
  }
  if (entry.hop_count >= params_.max_hops) {
    inc_if_attached(metrics_, merge_hops_);
    return false;
  }
  const auto nearest = cache_->nearest_distance(entry.feature);
  if (nearest.has_value() && *nearest <= params_.dedup_radius) {
    inc_if_attached(metrics_, merge_dup_);
    return false;
  }
  const auto hops = static_cast<std::uint8_t>(entry.hop_count + 1);
  const auto confidence = static_cast<float>(
      entry.confidence *
      std::pow(params_.merge_confidence_decay, static_cast<double>(hops)));
  const SimTime insert_time =
      std::max<SimTime>(0, sim_->now() - std::max<SimDuration>(0, entry.age));
  // Insert with provenance; back-date last_access via insert_time so stale
  // remote entries do not outlive fresh local ones under utility eviction.
  cache_->insert(entry.feature, entry.label, confidence, insert_time,
                 EntryOrigin::kPeer, hops, entry.source_device);
  inc_if_attached(metrics_, merged_);
  return true;
}

void PeerCacheService::advert_tick(std::uint64_t generation) {
  // Generation stamp: a tick scheduled before stop() must not revive (or
  // duplicate) the chain after a restart re-arms its own tick.
  if (!running_ || generation != generation_) return;
  const SimTime since = last_advert_scan_;
  last_advert_scan_ = sim_->now();
  // Gossip only locally computed results; re-advertising merged entries
  // would amplify traffic quadratically (hop limits bound it regardless).
  std::vector<CacheEntry> fresh;
  for (CacheEntry& entry : cache_->entries_since(since)) {
    if (entry.origin == EntryOrigin::kLocal) {
      fresh.push_back(std::move(entry));
    }
  }
  if (!fresh.empty() && !discovery_.neighbors().empty()) {
    EntryAdvertMsg msg;
    msg.sender = self_;
    const std::size_t start =
        fresh.size() > params_.advert_batch_max
            ? fresh.size() - params_.advert_batch_max
            : 0;
    for (std::size_t i = start; i < fresh.size(); ++i) {
      msg.entries.push_back(to_wire(fresh[i]));
    }
    medium_->broadcast(self_, encode(msg));
    inc_if_attached(metrics_, advert_sent_);
    inc_if_attached(metrics_, advert_entries_, msg.entries.size());
  }
  sim_->schedule_after(params_.advert_interval,
                       [this, generation] { advert_tick(generation); });
}

}  // namespace apx
