#pragma once
// Collaborative cache sharing over the broadcast medium — the poster's
// "information from nearby, peer-to-peer devices". One PeerCacheService per
// device wires its ApproxCache to the network:
//
//   * discovery: periodic HELLO beacons maintain a neighbour table;
//   * pull: async_lookup() broadcasts a feature vector and collects
//     neighbours' matching entries (completes early once every live
//     neighbour answered, or at the timeout);
//   * push: freshly computed local results are gossiped in batched
//     EntryAdvert messages;
//   * merge: received entries join the local cache with hop count + age
//     provenance, unless a near-duplicate is already cached or the entry
//     travelled too many hops.

#include <functional>
#include <unordered_map>

#include "src/cache/approx_cache.hpp"
#include "src/net/discovery.hpp"
#include "src/net/medium.hpp"

namespace apx {

class MetricsRegistry;

/// Protocol parameters.
struct PeerCacheParams {
  DiscoveryParams discovery;
  /// Upper bound on the wait for neighbour answers; ~2x the medium's RTT.
  /// Lookups complete early once every live neighbour responded, so this
  /// binds only when a response is lost.
  SimDuration lookup_timeout = 15 * kMillisecond;
  std::uint32_t lookup_k = 4;
  /// A node answers a remote lookup only with entries this close to the
  /// query (no point shipping far-away vectors).
  float response_max_distance = 0.6f;
  std::uint8_t max_hops = 2;         ///< drop entries that travelled further
  float dedup_radius = 0.05f;        ///< skip merge when this close to cached
  double merge_confidence_decay = 0.95;  ///< per-hop confidence discount
  bool advert_enabled = true;
  SimDuration advert_interval = 1 * kSecond;
  std::size_t advert_batch_max = 16; ///< newest-first cap per advert
  /// Ship features 8-bit quantized (~3.7x smaller payloads, slight lossy
  /// distortion; see ann/quantize.hpp).
  bool quantize_wire_features = false;
  /// When a peer is first discovered (or re-appears after expiry), push it
  /// the `hotset_push_max` most-accessed local entries so it starts warm —
  /// valuable under range churn. 0 disables.
  std::size_t hotset_push_max = 0;
  /// After this many consecutive degraded lookup rounds (rounds that hit
  /// the timeout with answers missing), the P2P rung backs off: lookups are
  /// suppressed for an exponentially growing window, so a partitioned or
  /// loss-swamped device converges to standalone latency instead of paying
  /// the timeout on every frame. Any completed (non-degraded) round resets
  /// the backoff. 0 disables.
  std::uint32_t backoff_after = 3;
  SimDuration backoff_base = 2 * kSecond;  ///< first suppression window
  SimDuration backoff_max = 30 * kSecond;  ///< window growth cap
};

/// P2P collaboration endpoint for one device.
class PeerCacheService {
 public:
  using LookupCallback = std::function<void(std::vector<WireEntry>)>;

  /// Registers a node on `medium` in `cell`; `cache` must outlive this.
  PeerCacheService(EventSimulator& sim, WirelessMedium& medium,
                   ApproxCache& cache, const PeerCacheParams& params,
                   int cell = 0);

  /// Starts beaconing and (if enabled) the advertisement timer. Callable
  /// again after stop() (peer restart): timers re-arm exactly once — stale
  /// scheduled ticks from before the stop are generation-stamped no-ops.
  void start();

  /// Simulates a crash of this endpoint: stops beaconing and adverts, wipes
  /// the neighbour table, fails every pending lookup (callbacks fire with
  /// no entries, in request order) and ignores incoming traffic until the
  /// next start(). The local cache is NOT touched — the owner decides
  /// whether the crash wiped it.
  void stop();

  bool running() const noexcept { return running_; }

  /// Broadcasts a lookup for `query`; `cb` fires exactly once, with every
  /// entry collected by completion (possibly none). With no live
  /// neighbours, `cb` fires via the event loop immediately.
  void async_lookup(const FeatureVec& query, LookupCallback cb);

  /// Backoff gate for the pipeline's P2P rung: false while lookups are
  /// suppressed after `backoff_after` consecutive degraded rounds (counts
  /// the skip). True (and cheap) when backoff is disabled or healthy.
  bool should_attempt(SimTime now);

  NodeId id() const noexcept { return self_; }
  DiscoveryService& discovery() noexcept { return discovery_; }
  const PeerCacheParams& params() const noexcept { return params_; }

  /// Registers the service's instruments on `metrics` and counts into
  /// them from then on; until then it records nothing. The registry must
  /// outlive the service. Histograms: "p2p/round_us" (lookup round trip)
  /// and "p2p/degraded_round_us" (rounds that hit the timeout with answers
  /// missing). Counters: "p2p/lookup_sent", "p2p/response_sent",
  /// "p2p/response_recv", "p2p/merged", "p2p/merge_dup", "p2p/merge_hops",
  /// "p2p/advert_sent", "p2p/advert_entries", "p2p/hotset_push",
  /// "p2p/hotset_entries", "p2p/bad_message", "p2p/degraded",
  /// "p2p/backoff_skip".
  void attach_metrics(MetricsRegistry& metrics);

 private:
  void on_message(NodeId from, const std::vector<std::uint8_t>& payload);
  void push_hotset(NodeId newcomer);
  void handle_lookup_request(const LookupRequestMsg& msg);
  void handle_lookup_response(const LookupResponseMsg& msg);
  void handle_advert(const EntryAdvertMsg& msg);
  /// The wire form of a local entry, aged to now.
  WireEntry to_wire(const CacheEntry& entry) const;
  /// Merges one wire entry into the local cache; returns whether it joined.
  bool merge_entry(const WireEntry& entry);
  void advert_tick(std::uint64_t generation);
  void complete_lookup(std::uint64_t request_id);
  void note_round_outcome(bool degraded, SimTime now);

  struct PendingLookup {
    LookupCallback cb;
    std::vector<WireEntry> collected;
    std::size_t expected = 0;
    std::size_t received = 0;
    SimTime start = 0;  ///< when the request was broadcast
  };

  EventSimulator* sim_;
  WirelessMedium* medium_;
  ApproxCache* cache_;
  PeerCacheParams params_;
  NodeId self_;
  DiscoveryService discovery_;
  std::unordered_map<std::uint64_t, PendingLookup> pending_;
  std::uint64_t next_request_id_ = 1;
  SimTime last_advert_scan_ = 0;
  bool running_ = false;
  /// Bumped by every start(); orphans advert ticks scheduled pre-stop().
  std::uint64_t generation_ = 0;
  // Backoff state: consecutive degraded rounds and the suppression window.
  std::uint32_t degraded_streak_ = 0;
  std::uint32_t backoff_level_ = 0;
  SimTime suppressed_until_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t round_us_hist_ = 0;
  std::uint32_t degraded_round_us_hist_ = 0;
  std::uint32_t lookup_sent_ = 0;
  std::uint32_t response_sent_ = 0;
  std::uint32_t response_recv_ = 0;
  std::uint32_t merged_ = 0;
  std::uint32_t merge_dup_ = 0;
  std::uint32_t merge_hops_ = 0;
  std::uint32_t advert_sent_ = 0;
  std::uint32_t advert_entries_ = 0;
  std::uint32_t hotset_push_ = 0;
  std::uint32_t hotset_entries_ = 0;
  std::uint32_t bad_message_ = 0;
  std::uint32_t degraded_ = 0;
  std::uint32_t backoff_skip_ = 0;
};

}  // namespace apx
