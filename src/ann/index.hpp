#pragma once
// Nearest-neighbour index abstraction the approximate cache builds on.
// Implementations: ExactKnnIndex (linear scan baseline), PStableLshIndex,
// AdaptiveLshIndex (the A-LSH variant the poster's lineage uses) and
// QalshIndex. New backends register in make_index() (src/ann/factory.hpp).
//
// One read path: a backend answers a query only through query_into(),
// which checks the query's size and calls the backend's one single-query
// implementation (query_impl), and learns from queries only through
// observe_queries().

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/vecmath.hpp"

namespace apx {

class MetricsRegistry;

/// Identifier of an indexed vector (the cache's entry id).
using VecId = std::uint64_t;

/// One query result: an indexed vector and its exact L2 distance to the query.
struct Neighbor {
  VecId id = 0;
  float distance = 0.0f;
};

/// Why a query's search stopped. Only QALSH's radius sweep reports one
/// (the "ann/qalsh/*_stop" counters); the other backends leave kNone.
enum class SweepStop : std::uint8_t { kNone, kC1, kC2, kExhausted };

/// Per-query work accounting. The query path fills one per query; the
/// caller hands it back through NnIndex::observe_queries(), which records
/// the ANN instruments and feeds the self-tuning controllers.
struct QueryStats {
  std::size_t candidates = 0;        ///< vectors whose distance was computed
  std::size_t rerank_survivors = 0;  ///< exact re-rank pass size (SQ8 only)
  std::size_t rounds = 0;            ///< virtual-rehash rounds (QALSH only)
  std::size_t collisions = 0;  ///< line entries collision-counted (QALSH)
  SweepStop stop = SweepStop::kNone;  ///< why the sweep stopped (QALSH)
  /// Distance of the farthest returned neighbour (the k-th, or the last one
  /// found when fewer exist); 0 when nothing was returned. The A-LSH width
  /// and QALSH radius controllers' food.
  float farthest = 0.0f;
};

/// Mutable nearest-neighbour index over fixed-dimension float vectors.
///
/// All implementations return *exact* distances for the candidates they
/// surface; approximation only affects which candidates are considered.
/// Each backend has one query implementation, query_impl().
///
/// Not thread-safe: queries reuse backend-owned buffers, so every call
/// needs exclusive access. The cache layer (ApproxCache) serializes them.
class NnIndex {
 public:
  virtual ~NnIndex() = default;

  /// Adds a vector under `id`. Throws std::invalid_argument when `v` is not
  /// dim() long or `id` is already stored.
  virtual void insert(VecId id, const FeatureVec& v) = 0;

  /// Removes `id` if present; returns whether it was.
  virtual bool remove(VecId id) = 0;

  /// Returns up to `k` nearest stored vectors, closest first.
  std::vector<Neighbor> query(std::span<const float> q, std::size_t k) const;

  /// Clears and fills `out` with up to `k` nearest stored vectors, closest
  /// first (ties broken by id), and — when `stats` is non-null — fills it
  /// with this query's work accounting. Steady-state calls perform zero
  /// heap allocations (`out`'s capacity and the backend's query buffers are
  /// reused). Records no instrument and feeds no controller: hand `stats`
  /// to observe_queries() for that. Throws std::invalid_argument when `q`
  /// is not dim() long.
  void query_into(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats = nullptr) const;

  /// The learning hook: `stats` are the QueryStats of queries answered
  /// since the last call, in order. Backends record their per-query
  /// instruments ("ann/candidates", "ann/rerank_survivors", "ann/qalsh/*")
  /// and feed their controllers (A-LSH's width, QALSH's start radius) here,
  /// never on the query path. Default: nothing to record, nothing to tune.
  virtual void observe_queries(std::span<const QueryStats> stats) {
    (void)stats;
  }

  /// The lossy reconstruction of `id`'s stored vector as the quantized
  /// scan sees it (empty when `id` is absent or the index keeps no codes).
  /// Test/diagnostic seam for code<->float arena coherence.
  virtual FeatureVec reconstructed(VecId id) const {
    (void)id;
    return {};
  }

  /// Registers this index's instruments (candidate-set histograms, rebuild
  /// counters, ...) on `metrics`; recording is zero-alloc afterwards. The
  /// registry must outlive the index. Default: not instrumented.
  virtual void attach_metrics(MetricsRegistry& metrics) { (void)metrics; }

  /// Number of stored vectors.
  virtual std::size_t size() const noexcept = 0;

  /// Vector dimensionality the index was built for.
  virtual std::size_t dim() const noexcept = 0;

 protected:
  /// The backend's query: `q` is dim() long (query_into() checked it).
  /// Same contract as query_into(); `stats`, when non-null, is overwritten
  /// whole.
  virtual void query_impl(std::span<const float> q, std::size_t k,
                          std::vector<Neighbor>& out,
                          QueryStats* stats) const = 0;
};

}  // namespace apx
