#pragma once
// Region-scale edge aggregation tier — the reuse rung above device-to-device
// sharing. One EdgeCacheService serves a whole proximity region: devices
// query it after a local/P2P miss and feed it DNN-validated results, so
// recognition history aggregates across every device in range (the
// GAN-assisted edge caches of Souza et al., minus the GAN).
//
// Three mechanisms distinguish the edge tier from one big ApproxCache:
//
//  * sharding — the key space is split across N concurrent ApproxCache
//    shards by a feature hash (sign random projections, so near-identical
//    keys land in the same shard and ANN recall survives the split). Each
//    shard is an internally serialized cache (DESIGN.md §9) with its own
//    capacity and lock, so callers on different shards never contend.
//  * error-controlled admission — following Finamore et al., an entry joins
//    only when the estimated extra serving error it introduces clears
//    EdgeParams::error_budget. The estimate comes from the shard's own
//    H-kNN vote over the new key: an agreeing, homogeneous neighbourhood is
//    cheap to extend; a conflicting one is expensive.
//  * TTL staleness sweep — entries expire `ttl` after insertion and are
//    removed by a deterministic periodic sweep on the sim clock (never
//    lazily during queries, so same-seed runs stay byte-identical).
//
// The service is usable standalone (direct query/feed/sweep calls — the
// bench backend) or attached to a WirelessMedium, where it answers
// EdgeLookupRequest/EdgeFeed messages so partitions, burst loss and
// crash/restart faults apply to the edge link for free.
//
// Thread-safety: query/feed/sweep/clear/size may be called concurrently
// from many threads — each shard serializes its own mutations internally
// (DESIGN.md §9) and the service-level counters and histogram sit behind a
// mutex. Two caveats: a concurrent feed's admission estimate and insert
// are not one atomic step (a racing feed may shift the vote in between —
// harmless, just nondeterministic), and the network surface
// (attach_network/start/stop/on_message) belongs to the sim thread only.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/cache/approx_cache.hpp"
#include "src/net/medium.hpp"
#include "src/net/messages.hpp"

namespace apx {

class MetricsRegistry;

/// Edge tier parameters. The ladder grammar exposes the first four as rung
/// arguments: `edge(shards=4,capacity=2048,ttl=30s,error_budget=0.25)`.
struct EdgeParams {
  std::size_t shards = 4;          ///< concurrent ApproxCache shards
  std::size_t capacity = 2048;     ///< per-shard entry capacity
  SimDuration ttl = 30 * kSecond;  ///< entry lifetime; swept, not lazy
  /// Admission gate: reject a feed when the estimated serving-error
  /// increase exceeds this. 0 admits only entries a current vote already
  /// agrees with; 1 admits everything (the no-gate ablation).
  float error_budget = 0.25f;
  SimDuration sweep_interval = 1 * kSecond;  ///< staleness sweep period
  /// Client-side knobs (one EdgeClient per device).
  SimDuration lookup_timeout = 15 * kMillisecond;
  std::uint32_t backoff_after = 3;         ///< degraded rounds before backoff
  SimDuration backoff_base = 2 * kSecond;  ///< first suppression window
  SimDuration backoff_max = 30 * kSecond;  ///< window growth cap
  bool quantize_wire_features = false;     ///< SQ8 feed payloads
  /// Per-shard cache configuration (index, H-kNN, latency model).
  ApproxCacheConfig cache;
};

/// The region edge cache: N feature-hash-routed ApproxCache shards behind
/// one (optional) network endpoint.
class EdgeCacheService {
 public:
  /// Builds the shards for `dim`-dimensional keys. The routing projections
  /// are a pure function of (dim, shards) — no RNG stream is consumed, so
  /// adding an edge service never shifts another component's draws.
  EdgeCacheService(std::size_t dim, const EdgeParams& params);

  // ---- direct API (also the message handlers' implementation) ----------

  /// Shard index for `features`; deterministic across runs and threads.
  std::size_t shard_of(std::span<const float> features) const;

  /// H-kNN vote of the routed shard (latency/candidates in the result).
  CacheResult query(std::span<const float> features, SimTime now,
                    float threshold_scale = 1.0f);

  /// Error-controlled admission: estimates the serving-error increase of
  /// the candidate entry from the routed shard's current vote and admits
  /// only within params().error_budget. Returns whether the entry joined.
  /// Throws std::invalid_argument, before counting the feed, unless
  /// valid_key(features, dim).
  bool feed(const FeatureVec& features, Label label, float confidence,
            SimTime now, std::uint32_t source_device = 0);

  /// Removes every entry whose ttl elapsed. Expiry is exactly at the
  /// boundary: an entry inserted at t is kept by a sweep at t + ttl - 1 and
  /// removed by one at t + ttl. Returns the number removed. Deterministic:
  /// per shard, ids are removed in ascending order.
  std::size_t sweep(SimTime now);

  /// Wipes every shard (edge process crash). Entry ids are not reused.
  void clear();

  /// Total entries across shards.
  std::size_t size() const;

  // ---- network endpoint ------------------------------------------------

  /// Registers a node on `medium` in `cell` and starts answering edge
  /// messages once start()ed. Call at most once, before start().
  void attach_network(EventSimulator& sim, WirelessMedium& medium,
                      int cell = 0);

  /// Begins serving (and, when attached to a sim, the periodic staleness
  /// sweep). Callable again after stop(): sweep ticks are generation-
  /// stamped so pre-stop ticks cannot revive or duplicate the chain.
  void start();

  /// Simulates an edge crash: stops serving, wipes every shard via clear()
  /// and ignores traffic until the next start(). Devices re-warm the
  /// restarted service through their normal feeds.
  void stop();

  bool running() const noexcept { return running_; }

  /// Network id; only valid after attach_network().
  NodeId id() const noexcept { return self_; }

  // ---- introspection ---------------------------------------------------

  /// Registers the service's instruments on `metrics` and counts into
  /// them from then on; until then it records nothing. The registry must
  /// outlive the service; reading it while another thread calls in needs
  /// a quiescent point. Histogram: "edge/srv_lookup_us". Counters:
  /// "edge/srv_lookup", "edge/srv_feed", "edge/srv_admit",
  /// "edge/srv_reject_budget", "edge/srv_swept", "edge/srv_bad_message".
  /// The shards are ApproxCaches with no registry attached; attach one per
  /// shard through shard(i) to see their "cache/*" counters.
  void attach_metrics(MetricsRegistry& metrics);

  const EdgeParams& params() const noexcept { return params_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  ApproxCache& shard(std::size_t i) { return *shards_[i]; }
  const ApproxCache& shard(std::size_t i) const { return *shards_[i]; }

 private:
  void on_message(NodeId from, const std::vector<std::uint8_t>& payload);
  void handle_lookup(const EdgeLookupRequestMsg& msg);
  void handle_feed(const EdgeFeedMsg& msg);
  void sweep_tick(std::uint64_t generation);

  std::size_t dim_;
  EdgeParams params_;
  /// Routing hyperplanes, row-major (planes x dim); sign bits form the
  /// shard index. Empty when shards == 1.
  std::vector<float> planes_;
  std::size_t plane_count_ = 0;
  std::vector<std::unique_ptr<ApproxCache>> shards_;
  EventSimulator* sim_ = nullptr;
  WirelessMedium* medium_ = nullptr;
  NodeId self_ = 0;
  bool running_ = false;
  /// Bumped by every start(); orphans sweep ticks scheduled pre-stop().
  std::uint64_t generation_ = 0;
  /// Guards metrics recording: the shards serialize their own state, but
  /// concurrent query/feed/sweep callers share these tallies.
  mutable std::mutex counters_mu_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t lookup_us_hist_ = 0;
  std::uint32_t lookup_ = 0;
  std::uint32_t feed_ = 0;
  std::uint32_t admit_ = 0;
  std::uint32_t reject_budget_ = 0;
  std::uint32_t swept_ = 0;
  std::uint32_t bad_message_ = 0;
};

}  // namespace apx
