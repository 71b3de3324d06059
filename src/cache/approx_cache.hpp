#pragma once
// The approximate in-memory cache — the data structure at the centre of the
// poster. Keys are feature vectors; a lookup is an approximate-nearest-
// neighbour query followed by a homogenized-kNN vote, so "equal enough"
// inputs reuse previous recognition results.
//
// One read path (DESIGN.md §9). Every query is answered by one core: the
// index's query_batch_into() plus the H-kNN vote, writing all per-call
// state — results, touches, hit/miss tallies, the index's per-query
// QueryStats — into a CacheQueryScratch. Those deferred side effects reach
// the cache and the index only in the fold (fold_scratch()), where the
// index hook records the ANN instruments and feeds the A-LSH width / QALSH
// radius controllers. A single frame is a batch of one plus an immediate
// fold.
//
// Thread-safety contract. One instance may be shared by many threads; a
// reader-writer lock splits the surface in two:
//
//  shared path — wait-free against each other, all per-call mutable state
//  lives in a caller-owned CacheQueryScratch (one per thread):
//    lookup_batch()           the serving-scale hot path
//    find(), for_each(), entries_since(), size(), nearest-neighbour reads
//      of config()/dim()/capacity() (immutable after construction)
//
//  exclusive path — internally serialized, safe to call from any thread but
//  one at a time; mutates entries, counters, index arenas, or the
//  cache-owned scratch:
//    lookup(), peek_vote(), nearest_distance()   (a batch of one on the
//      cache-owned scratch, folded at once under the same lock)
//    insert(), remove(), clear(), fold_scratch()
//    attach_metrics()  (call before any concurrent use; the registry itself
//      is not thread-safe, so metrics recording stays on exclusive paths)
//    counters()        (the non-const overload, and any read that races a
//      writer — take an external quiescent point for exact counter reads)
//
// Pointers returned by find() and references observed inside for_each() are
// invalidated by the next exclusive-path mutation; for_each's callback must
// not call exclusive-path methods on the same cache (the lock is not
// recursive).

#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/ann/factory.hpp"
#include "src/ann/hknn.hpp"
#include "src/ann/index.hpp"
#include "src/cache/entry.hpp"
#include "src/cache/eviction.hpp"
#include "src/util/stats.hpp"

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
/// The batched path packs `count` frames row-major into `features`
/// (count * dim floats) and answers through lookup_batch().
struct CacheQuery {
  /// `count` dim-sized feature vectors, row-major.
  std::span<const float> features;
  /// Frames in this request. lookup()/peek_vote() require 1.
  std::size_t count = 1;
  /// Device time of the request (entry touches, eviction recency).
  SimTime now = 0;
  /// Scales HknnParams::max_distance for this call only — the hook the IMU
  /// motion gate uses (stationary devices accept slightly farther matches,
  /// §5.4).
  float threshold_scale = 1.0f;
  /// When set (single-frame requests), the open span of this trace is
  /// annotated with the candidate count and nearest-neighbour distance.
  FrameTrace* trace = nullptr;
};

/// Outcome of one cache lookup.
struct CacheResult {
  std::optional<HknnVote> vote;   ///< accepted result, or abstention
  SimDuration latency = 0;        ///< simulated device time spent
  std::size_t candidates = 0;     ///< vectors whose distance was computed
};

/// Per-thread working set for lookup_batch(): the index scratch, neighbour
/// buffers, and the side effects a read-only lookup must defer — entry
/// touches, hit/miss tallies, the index's per-query QueryStats. Obtain one
/// per querying thread from ApproxCache::make_scratch(); hand it back
/// periodically via ApproxCache::fold_scratch() so eviction recency,
/// counters, ANN instruments and index adaptation catch up with the read
/// traffic. Buffers grow to their high-water mark and are reused, so
/// steady-state batched lookups perform zero heap allocations. The
/// deferred-side-effect buffers are bounded (kMaxTouches/kMaxQueryStats):
/// between folds, overflowing touches and query stats are dropped — they
/// feed heuristics (eviction recency, instruments, index adaptation), not
/// correctness.
class CacheQueryScratch {
 public:
  CacheQueryScratch() = default;

  /// Batched lookups answered since the last fold.
  std::uint64_t pending_lookups() const noexcept { return lookups_; }
  /// Accepted votes since the last fold.
  std::uint64_t pending_hits() const noexcept { return hits_; }

 private:
  friend class ApproxCache;

  static constexpr std::size_t kMaxTouches = 4096;
  static constexpr std::size_t kMaxQueryStats = 1024;

  struct Touch {
    VecId id = 0;
    SimTime now = 0;
  };

  std::unique_ptr<IndexScratch> index_scratch_;
  std::vector<std::vector<Neighbor>> results_;  // per-frame neighbour lists
  std::vector<QueryStats> stats_;               // per-frame work accounting
  std::vector<Touch> touches_;                  // deferred voter touches
  std::vector<QueryStats> query_stats_;         // deferred index feedback
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Approximate cache mapping feature vectors to recognition labels.
///
/// Shareable across threads — see the thread-safety contract in the file
/// comment. The simulation stays single-threaded per device; its
/// uncontended lock acquisitions cost nanoseconds against sub-millisecond
/// lookups.
class ApproxCache {
 public:
  ApproxCache(std::size_t dim, const ApproxCacheConfig& config,
              std::unique_ptr<EvictionPolicy> eviction);

  /// Looks up the single frame in `q`: a batch of one on the cache-owned
  /// scratch, folded at once under one exclusive lock acquisition — so
  /// exactly lookup_batch(count = 1) followed by fold_scratch(). Accessed
  /// entries are touched, hit/miss counters updated, the ANN instruments
  /// recorded and the index controllers fed; additionally records
  /// "cache/lookup_us" and "cache/nearest_distance". Steady-state calls
  /// perform zero heap allocations. Throws std::invalid_argument when
  /// q.count != 1 or q.features is not dim() long.
  CacheResult lookup(const CacheQuery& q);

  /// Answers the `q.count` frames packed in `q.features` into
  /// `results[0..count)`, amortizing hashing and candidate scoring across
  /// the batch. This is the *shared* path: any number of threads may call
  /// it concurrently, each with its own `scratch` from make_scratch().
  /// Touches, hit/miss tallies, and the index's per-query stats are
  /// deferred into the scratch (bounded; see CacheQueryScratch) until the
  /// caller folds them back with fold_scratch(); the cache's own lookup
  /// histograms are not recorded on this path. q.trace is honoured for
  /// single-frame batches (the trace object is caller-owned thread-local
  /// state).
  void lookup_batch(const CacheQuery& q, std::span<CacheResult> results,
                    CacheQueryScratch& scratch) const;

  /// Creates a per-thread scratch for lookup_batch(). The scratch must not
  /// outlive the cache.
  CacheQueryScratch make_scratch() const;

  /// Applies a scratch's deferred side effects under the write lock: entry
  /// touches (eviction recency), hit/miss counters, and the index hook
  /// (NnIndex::observe_queries: ANN instruments plus the A-LSH width /
  /// QALSH radius controller feed, which may trigger a rebuild). Clears the
  /// scratch's pending state; the scratch remains usable for further
  /// batches.
  void fold_scratch(CacheQueryScratch& scratch);

  /// Inserts a new entry, evicting first when full. Returns the new id.
  /// Throws std::invalid_argument, before any change, when `feature` is
  /// not dim() long (P2P merges feed this with peer-decoded vectors).
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
  /// exclusive-path mutation.
  const CacheEntry* find(VecId id) const;

  /// Distance from `q` to its nearest cached neighbour via the index
  /// (nullopt when empty) — used by the P2P layer to dedupe merges. A
  /// batch of one (k = 1) on the cache-owned scratch; of the fold it
  /// applies only the index hook, like peek_vote(). Throws
  /// std::invalid_argument when `q` is not dim() long.
  std::optional<float> nearest_distance(std::span<const float> q) const;

  /// Hypothetical vote: "would the cache have answered, and what?" — asked
  /// by the adaptive threshold controller on frames where the DNN ran
  /// anyway, and by edge admission. A batch of one on the cache-owned
  /// scratch. It changes no hit/miss counter, touches no entry and records
  /// no "cache/*" histogram, but it does apply the fold's index hook: one
  /// "ann/candidates" sample (plus the backend's other ANN instruments) and
  /// one controller sample, which may rebuild A-LSH tables. Only q.features
  /// (single frame) and q.threshold_scale participate. Throws
  /// std::invalid_argument when q.count != 1 or q.features is not dim()
  /// long.
  std::optional<HknnVote> peek_vote(const CacheQuery& q) const;

  /// Calls `fn` for every entry (unspecified order). `fn` must not call
  /// exclusive-path methods on this cache (non-recursive lock).
  void for_each(const std::function<void(const CacheEntry&)>& fn) const;

  /// Entries inserted at or after `since`, newest last — the P2P
  /// advertisement source. Returns copies: callers iterate this while
  /// inserting into (possibly the same) cache, which rehashes `entries_`
  /// and would invalidate any pointer/reference into it.
  std::vector<CacheEntry> entries_since(SimTime since) const;

  /// Registers this cache's instruments ("cache/lookup_us",
  /// "cache/nearest_distance", hit/miss/insert/evict counters) and the
  /// backing index's, on `metrics`. The registry must outlive the cache.
  /// Call before any concurrent use.
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

  /// Lifetime counters: "hit", "miss", "insert", "evict", "merge_dup",
  /// plus the "bytes_float"/"bytes_codes" feature-memory gauges when the
  /// quantized scan is active. Batched-path hits/misses land here at
  /// fold_scratch() time. Reading while writers or folds run elsewhere is
  /// racy; take a quiescent point for exact values.
  const Counter& counters() const noexcept { return counters_; }
  Counter& counters() noexcept { return counters_; }

 private:
  VecId evict_one(SimTime now);
  /// Refreshes the "bytes_float"/"bytes_codes" gauges (quantized scan only).
  void update_memory_gauges();
  /// Simulated device cost of a lookup that computed `candidates` distances
  /// (quantized scan: on codes, plus `survivors` exact re-ranks).
  SimDuration simulated_latency(std::size_t candidates,
                                std::size_t survivors) const noexcept;
  /// H-kNN params for a request with this threshold scale.
  HknnParams effective_params(float threshold_scale) const noexcept;
  /// The one read core, under mu_ (shared or exclusive): answers q's
  /// frames into `results` and defers every side effect into `scratch`.
  void answer(const CacheQuery& q, std::span<CacheResult> results,
              CacheQueryScratch& scratch) const;
  /// Applies and clears `scratch`'s deferred side effects; mu_ exclusive.
  void fold(CacheQueryScratch& scratch);
  /// A batch of one (`k` neighbours of `q`) on scratch_, followed by the
  /// index hook only; mu_ exclusive. Returns scratch_'s result list.
  const std::vector<Neighbor>& probe(std::span<const float> q,
                                     std::size_t k) const;

  std::size_t dim_;
  ApproxCacheConfig config_;
  bool quantized_scan_ = false;
  std::unique_ptr<EvictionPolicy> eviction_;
  std::unique_ptr<NnIndex> index_;
  std::unordered_map<VecId, CacheEntry> entries_;
  VecId next_id_ = 1;
  Counter counters_;
  /// Constructed once (single this-pointer capture fits std::function's
  /// small-buffer storage) so votes never rebuild a closure per lookup.
  std::function<Label(VecId)> label_of_;
  /// The exclusive calls' scratch (lookup, peek_vote, nearest_distance).
  mutable CacheQueryScratch scratch_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t lookup_us_hist_ = 0;
  std::uint32_t nearest_distance_hist_ = 0;
  /// Reader-writer split: shared for lookup_batch/find/for_each/
  /// entries_since/size, exclusive for everything that mutates (see file
  /// comment). mutable so const read methods can lock.
  mutable std::shared_mutex mu_;
};

}  // namespace apx
