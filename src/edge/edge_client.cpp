#include "src/edge/edge_client.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"

namespace apx {

EdgeClient::EdgeClient(EventSimulator& sim, WirelessMedium& medium,
                       NodeId server, const EdgeParams& params, int cell)
    : sim_(&sim),
      medium_(&medium),
      server_(server),
      params_(params),
      self_(medium.add_node(
          [this](NodeId from, const std::vector<std::uint8_t>& payload) {
            on_message(from, payload);
          },
          cell)) {}

void EdgeClient::start() {
  if (running_) return;
  running_ = true;
  // A restart begins a fresh protocol life: no backoff debt carries over.
  degraded_streak_ = 0;
  backoff_level_ = 0;
  suppressed_until_ = 0;
}

void EdgeClient::stop() {
  if (!running_) return;
  running_ = false;
  // Fail pending lookups in request order (deterministic regardless of the
  // hash map's iteration order). Callbacks may re-enter the client.
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, _] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    complete(id, std::nullopt, /*degraded=*/true);
  }
}

void EdgeClient::async_lookup(const FeatureVec& query, float threshold_scale,
                              LookupCallback cb) {
  if (!running_) {
    // Complete through the event loop so callers see uniform asynchrony.
    sim_->schedule_after(0, [cb = std::move(cb)] { cb(std::nullopt); });
    return;
  }
  const std::uint64_t request_id = next_request_id_++;
  PendingLookup pending;
  pending.cb = std::move(cb);
  pending.start = sim_->now();
  pending_.emplace(request_id, std::move(pending));

  EdgeLookupRequestMsg msg;
  msg.request_id = request_id;
  msg.sender = self_;
  msg.threshold_scale = threshold_scale;
  msg.query = query;
  medium_->unicast(self_, server_, encode(msg));
  inc_if_attached(metrics_, lookup_sent_);

  sim_->schedule_after(params_.lookup_timeout, [this, request_id] {
    complete(request_id, std::nullopt, /*degraded=*/true);
  });
}

void EdgeClient::complete(std::uint64_t request_id,
                          std::optional<HknnVote> vote, bool degraded) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // already completed
  // Move out before erase: the callback may start another lookup.
  PendingLookup pending = std::move(it->second);
  pending_.erase(it);
  note_round_outcome(degraded, sim_->now());
  if (metrics_ != nullptr) {
    metrics_->record(round_us_hist_,
                     static_cast<double>(sim_->now() - pending.start));
  }
  pending.cb(vote);
}

void EdgeClient::note_round_outcome(bool degraded, SimTime now) {
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
  // Exponential growth, capped; same shape as the P2P rung's backoff.
  SimDuration window = params_.backoff_base;
  for (std::uint32_t i = 0; i < backoff_level_ && window < params_.backoff_max;
       ++i) {
    window *= 2;
  }
  window = std::min(window, params_.backoff_max);
  ++backoff_level_;
  suppressed_until_ = now + window;
}

bool EdgeClient::should_attempt(SimTime now) {
  if (now >= suppressed_until_) return true;
  inc_if_attached(metrics_, backoff_skip_);
  return false;
}

void EdgeClient::feed(const FeatureVec& features, Label label,
                      float confidence) {
  if (!running_) return;
  EdgeFeedMsg msg;
  msg.sender = self_;
  msg.entry.feature = features;
  msg.entry.label = label;
  msg.entry.confidence = confidence;
  msg.entry.hop_count = 0;
  msg.entry.source_device = self_;
  msg.entry.age = 0;
  msg.entry.quantize_on_wire = params_.quantize_wire_features;
  medium_->unicast(self_, server_, encode(msg));
  inc_if_attached(metrics_, feed_sent_);
}

void EdgeClient::on_message(NodeId from,
                            const std::vector<std::uint8_t>& payload) {
  if (!running_) return;  // a crashed endpoint's radio hears nothing
  try {
    switch (peek_type(payload)) {
      case MsgType::kEdgeLookupResponse:
        handle_response(decode_edge_lookup_response(payload));
        break;
      default:
        // Shared-medium chatter (P2P beacons, adverts) reaching this node's
        // radio — not ours, not an error.
        break;
    }
  } catch (const CodecError&) {
    inc_if_attached(metrics_, bad_message_);
  }
  (void)from;
}

void EdgeClient::handle_response(const EdgeLookupResponseMsg& msg) {
  inc_if_attached(metrics_, response_recv_);
  std::optional<HknnVote> vote;
  if (msg.has_vote) {
    HknnVote v;
    v.label = msg.label;
    v.homogeneity = msg.homogeneity;
    v.nearest_distance = msg.nearest_distance;
    v.voters = msg.voters;
    vote = v;
  }
  // An answered round — hit or miss — is healthy; only losses/timeouts
  // count toward backoff.
  complete(msg.request_id, vote, /*degraded=*/false);
}

void EdgeClient::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  round_us_hist_ = metrics.histogram("edge/round_us", latency_us_bounds());
  lookup_sent_ = metrics.counter("edge/lookup_sent");
  response_recv_ = metrics.counter("edge/response_recv");
  feed_sent_ = metrics.counter("edge/feed_sent");
  degraded_ = metrics.counter("edge/degraded");
  backoff_skip_ = metrics.counter("edge/backoff_skip");
  bad_message_ = metrics.counter("edge/bad_message");
}

}  // namespace apx
