#pragma once
// The approximate in-memory cache — the data structure at the centre of the
// poster. Keys are feature vectors; a lookup is an approximate-nearest-
// neighbour query followed by a homogenized-kNN vote, so "equal enough"
// inputs reuse previous recognition results.
//
// One query per call (DESIGN.md §9). lookup(), peek_vote() and
// nearest_distance() each run one index query (NnIndex::query_into) and
// fold its side effects inline: lookup() votes, touches the voters, bumps
// hit/miss and hands the query's QueryStats to the index hook
// (NnIndex::observe_queries: ANN instruments plus the A-LSH width / QALSH
// radius controllers); the other two apply the index hook only.
//
// Thread-safety contract. One instance may be shared by many threads: one
// mutex serializes every method, so each call — a lookup with its fold, an
// insert with its eviction — is one atomic step. Two caveats:
//  - Pointers returned by find() and references observed inside
//    for_each() are invalidated by the next mutation; for_each's callback
//    must not call back into the same cache (the lock is not recursive).
//  - attach_metrics() belongs before any concurrent use.
//
// Counting. The cache counts only into the MetricsRegistry it is attached
// to: attach_metrics() registers every counter and histogram by handle,
// each call then bumps its handles under the lock, and a cache with no
// registry attached records nothing.

#include <functional>
#include <memory>
#include <optional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/ann/factory.hpp"
#include "src/ann/hknn.hpp"
#include "src/ann/index.hpp"
#include "src/cache/entry.hpp"
#include "src/cache/eviction.hpp"

namespace apx {

class FrameTrace;
class MetricsRegistry;

/// Cache configuration.
struct ApproxCacheConfig {
  std::size_t capacity = 512;
  IndexKind index = IndexKind::kAdaptiveLsh;
  AdaptiveLshParams alsh;       ///< used by kLsh (inner) and kAdaptiveLsh
  QalshParams qalsh;            ///< used by kQalsh only
  HknnParams hknn;
  /// Simulated cost model of one lookup on the device: a fixed overhead
  /// plus a per-candidate distance computation cost.
  SimDuration lookup_base_latency = 300;     // 0.3 ms
  SimDuration per_candidate_latency = 2;     // 2 us per distance
};

/// One cache request: the query data plus every per-call knob. Designed for
/// designated initializers at call sites:
///   cache.lookup({.features = key, .now = t, .threshold_scale = s});
struct CacheQuery {
  /// The frame's dim-sized feature vector.
  std::span<const float> features;
  /// Device time of the request (entry touches, eviction recency).
  SimTime now = 0;
  /// Scales HknnParams::max_distance for this call only — the hook the IMU
  /// motion gate uses (stationary devices accept slightly farther matches,
  /// §5.4).
  float threshold_scale = 1.0f;
  /// When set, the open span of this trace is annotated with the candidate
  /// count and nearest-neighbour distance.
  FrameTrace* trace = nullptr;
};

/// Outcome of one cache lookup.
struct CacheResult {
  std::optional<HknnVote> vote;   ///< accepted result, or abstention
  SimDuration latency = 0;        ///< simulated device time spent
  std::size_t candidates = 0;     ///< vectors whose distance was computed
};

/// Whether `key` can key a cache of dimension `dim`: exactly `dim` values,
/// all finite. A NaN or infinite value would reach LSH's float-to-integer
/// bucket cast, which is undefined behaviour.
bool valid_key(std::span<const float> key, std::size_t dim) noexcept;

/// Approximate cache mapping feature vectors to recognition labels.
///
/// Shareable across threads — see the thread-safety contract in the file
/// comment. The simulation stays single-threaded per device; its
/// uncontended lock acquisitions cost nanoseconds against sub-millisecond
/// lookups. Every call that takes a key throws std::invalid_argument,
/// before any change, unless valid_key(key, dim()).
class ApproxCache {
 public:
  ApproxCache(std::size_t dim, const ApproxCacheConfig& config,
              std::unique_ptr<EvictionPolicy> eviction);

  /// Looks up the frame in `q` under one lock acquisition: one index
  /// query, the H-kNN vote, then the fold — the voters are touched,
  /// hit/miss counters updated, the ANN instruments recorded and the index
  /// controllers fed. Additionally records "cache/lookup_us" and
  /// "cache/nearest_distance". Steady-state calls perform zero heap
  /// allocations.
  CacheResult lookup(const CacheQuery& q);

  /// Inserts a new entry, evicting first when full. Returns the new id.
  /// Rejects an invalid key before any change (P2P merges feed this with
  /// peer-decoded vectors).
  VecId insert(FeatureVec feature, Label label, float confidence, SimTime now,
               EntryOrigin origin = EntryOrigin::kLocal,
               std::uint8_t hop_count = 0, std::uint32_t source_device = 0);

  /// Removes an entry; returns whether it existed.
  bool remove(VecId id);

  /// Removes every entry (simulated process crash / app data wipe). Ids are
  /// not reused: the id counter keeps running, so snapshots and provenance
  /// from before the wipe can never alias fresh entries.
  void clear();

  /// Entry access (nullptr when absent). Pointer invalidated by the next
  /// mutation.
  const CacheEntry* find(VecId id) const;

  /// Distance from `q` to its nearest cached neighbour via the index
  /// (nullopt when empty) — used by the P2P layer to dedupe merges. One
  /// index query (k = 1); of lookup()'s fold it applies only the index
  /// hook, like peek_vote().
  std::optional<float> nearest_distance(std::span<const float> q) const;

  /// Hypothetical vote: "would the cache have answered, and what?" — asked
  /// by the adaptive threshold controller on frames where the DNN ran
  /// anyway, and by edge admission. It changes no hit/miss counter, touches
  /// no entry and records no "cache/*" histogram, but it does apply
  /// lookup()'s index hook: one "ann/candidates" sample (plus the backend's
  /// other ANN instruments) and one controller sample, which may rebuild
  /// A-LSH tables. Only q.features and q.threshold_scale participate.
  std::optional<HknnVote> peek_vote(const CacheQuery& q) const;

  /// Calls `fn` for every entry (unspecified order), holding the lock. `fn`
  /// must not call back into this cache (non-recursive lock).
  void for_each(const std::function<void(const CacheEntry&)>& fn) const;

  /// Entries inserted at or after `since`, newest last — the P2P
  /// advertisement source. Returns copies: callers iterate this while
  /// inserting into (possibly the same) cache, which rehashes `entries_`
  /// and would invalidate any pointer/reference into it.
  std::vector<CacheEntry> entries_since(SimTime since) const;

  /// Registers this cache's instruments on `metrics` — the
  /// "cache/lookup_us" and "cache/nearest_distance" histograms and the
  /// "cache/hit", "cache/miss", "cache/insert", "cache/evict" and
  /// "cache/clear" counters, plus the "cache/bytes_float" /
  /// "cache/bytes_codes" feature-memory gauges when the quantized scan is
  /// active — and the backing index's. Until then the cache records
  /// nothing. The registry must outlive the cache. Call before any
  /// concurrent use.
  void attach_metrics(MetricsRegistry& metrics);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return config_.capacity; }
  std::size_t dim() const noexcept { return dim_; }
  const ApproxCacheConfig& config() const noexcept { return config_; }
  const EvictionPolicy& eviction() const noexcept { return *eviction_; }

  /// The backing ANN index (read-only; for tests and diagnostics).
  const NnIndex& index() const noexcept { return *index_; }

  /// Whether the backing index scans candidates on SQ8 codes.
  bool quantized_scan() const noexcept { return quantized_scan_; }

 private:
  VecId evict_one(SimTime now);
  /// Refreshes the "cache/bytes_float"/"cache/bytes_codes" gauges
  /// (quantized scan with a registry attached only).
  void update_memory_gauges();
  /// Simulated device cost of a lookup that computed `candidates` distances
  /// (quantized scan: on codes, plus `survivors` exact re-ranks).
  SimDuration simulated_latency(std::size_t candidates,
                                std::size_t survivors) const noexcept;
  /// H-kNN params for a request with this threshold scale.
  HknnParams effective_params(float threshold_scale) const noexcept;
  /// Throws std::invalid_argument naming `where` unless
  /// valid_key(key, dim_).
  void check_key(std::span<const float> key, const char* where) const;
  /// One index query for `k` neighbours of `q` into neighbors_/stats_,
  /// followed by the index hook only; mu_ held. Returns neighbors_.
  const std::vector<Neighbor>& probe(std::span<const float> q,
                                     std::size_t k) const;

  std::size_t dim_;
  ApproxCacheConfig config_;
  bool quantized_scan_ = false;
  std::unique_ptr<EvictionPolicy> eviction_;
  std::unique_ptr<NnIndex> index_;
  std::unordered_map<VecId, CacheEntry> entries_;
  VecId next_id_ = 1;
  /// Constructed once (single this-pointer capture fits std::function's
  /// small-buffer storage) so votes never rebuild a closure per lookup.
  std::function<Label(VecId)> label_of_;
  /// The last query's neighbours and work accounting, reused so
  /// steady-state queries allocate nothing.
  mutable std::vector<Neighbor> neighbors_;
  mutable QueryStats stats_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t lookup_us_hist_ = 0;
  std::uint32_t nearest_distance_hist_ = 0;
  std::uint32_t hit_ = 0;
  std::uint32_t miss_ = 0;
  std::uint32_t insert_ = 0;
  std::uint32_t evict_ = 0;
  std::uint32_t clear_ = 0;
  std::uint32_t bytes_float_ = 0;
  std::uint32_t bytes_codes_ = 0;
  /// Serializes every method (see file comment). mutable so const methods
  /// can lock.
  mutable std::mutex mu_;
};

}  // namespace apx
