#pragma once
// Device-side endpoint of the edge tier: one EdgeClient per device, holding
// a unicast conversation with the region's EdgeCacheService over the
// shared medium. Mirrors the P2P service's discipline — pending-lookup map
// with a timeout, deterministic failure order on stop(), and the same
// exponential backoff so a device cut off from the edge converges back to
// P2P/local latency instead of paying the timeout every frame.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "src/ann/hknn.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/net/medium.hpp"

namespace apx {

class MetricsRegistry;

/// One device's connection to the region edge cache.
class EdgeClient {
 public:
  using LookupCallback = std::function<void(std::optional<HknnVote>)>;

  /// Registers a node on `medium` in `cell`. `server` is the
  /// EdgeCacheService's node id — infrastructure, not discovered.
  EdgeClient(EventSimulator& sim, WirelessMedium& medium, NodeId server,
             const EdgeParams& params, int cell = 0);

  /// Callable again after stop() (device restart); backoff debt resets.
  void start();

  /// Simulates a crash of this endpoint: fails every pending lookup
  /// (callbacks fire with nullopt, in request order) and ignores incoming
  /// traffic until the next start().
  void stop();

  bool running() const noexcept { return running_; }

  /// Sends one lookup to the edge; `cb` fires exactly once — with the
  /// edge's vote, or nullopt on a miss, a lost/timed-out round, or when
  /// the client is stopped.
  void async_lookup(const FeatureVec& query, float threshold_scale,
                    LookupCallback cb);

  /// Backoff gate for the pipeline's edge rung: false while lookups are
  /// suppressed after `backoff_after` consecutive timed-out rounds (counts
  /// the skip). A completed round — hit or miss — resets the backoff.
  bool should_attempt(SimTime now);

  /// Fire-and-forget upload of a DNN-validated result; the edge decides
  /// admission against its error budget.
  void feed(const FeatureVec& features, Label label, float confidence);

  NodeId id() const noexcept { return self_; }
  const EdgeParams& params() const noexcept { return params_; }

  /// Registers the client's instruments on `metrics` and counts into them
  /// from then on; until then it records nothing. The registry must
  /// outlive the client. Histogram: "edge/round_us" (lookup round trip).
  /// Counters: "edge/lookup_sent", "edge/response_recv", "edge/feed_sent",
  /// "edge/degraded", "edge/backoff_skip", "edge/bad_message".
  void attach_metrics(MetricsRegistry& metrics);

 private:
  void on_message(NodeId from, const std::vector<std::uint8_t>& payload);
  void handle_response(const EdgeLookupResponseMsg& msg);
  void complete(std::uint64_t request_id, std::optional<HknnVote> vote,
                bool degraded);
  void note_round_outcome(bool degraded, SimTime now);

  struct PendingLookup {
    LookupCallback cb;
    SimTime start = 0;  ///< when the request was sent
  };

  EventSimulator* sim_;
  WirelessMedium* medium_;
  NodeId server_;
  EdgeParams params_;
  NodeId self_;
  std::unordered_map<std::uint64_t, PendingLookup> pending_;
  std::uint64_t next_request_id_ = 1;
  bool running_ = false;
  // Backoff state: consecutive timed-out rounds and the suppression window.
  std::uint32_t degraded_streak_ = 0;
  std::uint32_t backoff_level_ = 0;
  SimTime suppressed_until_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t round_us_hist_ = 0;
  std::uint32_t lookup_sent_ = 0;
  std::uint32_t response_recv_ = 0;
  std::uint32_t feed_sent_ = 0;
  std::uint32_t degraded_ = 0;
  std::uint32_t backoff_skip_ = 0;
  std::uint32_t bad_message_ = 0;
};

}  // namespace apx
