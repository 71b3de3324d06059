#pragma once
// Query-aware LSH (QALSH) [Huang et al., PVLDB'15]. The bucketed p-stable
// family fixes its quantization grid at build time: h(v) = floor((a.v+b)/w)
// commits every vector to a bucket, and recall at a given latency is
// whatever the hash draw gave. QALSH keeps only the raw projections
// h_i(o) = a_i.o in per-hash *sorted arrays* and makes the bucket
// query-centric: a lookup walks outward from the query's own projection
// with two pointers per hash, counts per-object collisions, and promotes an
// object to candidate once it collides in l of the m hashes. "Virtual
// rehashing" — geometrically widening the search half-width w*R/2 without
// touching any stored state — replaces physical multi-radius tables.
//
// The payoff is a provable, configurable frontier: for approximation ratio
// c > 1, failure probability delta and false-positive fraction beta, the
// constructor derives (w, m, l) such that a c-approximate nearest neighbour
// is returned with probability at least 1/2 - delta (delta = 1/e gives the
// paper's 1/2 - 1/e bound), while the candidate set — the vectors whose
// distance is actually computed — stays near k + beta*n. Tightening c
// buys recall with more hashes (larger m); loosening it buys latency.
//
// Hot-path layout (mirrors the LSH slot arena, DESIGN.md §12):
//  - all m projection vectors live in one flat row-major matrix, so
//    projecting a vector or query is a single dot_batch pass;
//  - stored vectors live in the contiguous slot arena; candidate scoring is
//    the same gather kernel (l2_sq_gather / adc_l2_sq_gather) the LSH
//    family uses, with the identical SQ8 re-rank discipline when quantized;
//  - each hash keeps a sorted (projection, slot) array plus a small
//    unsorted pending tail: inserts append to the tail and are batch-merged
//    (sort + merge) once the tail outgrows an amortization bound,
//    so single inserts never pay an O(n) re-sort;
//  - removals tombstone the slot (generation-free: an alive bitmap) and
//    defer compaction until a quarter of the index is dead; dead slots are
//    only reused after compaction has filtered their line entries, so a
//    reused slot can never alias a stale projection entry;
//  - one index-owned scratch (projections, per-line cursors, a
//    stamp-reset collision-frequency table, candidate and distance buffers,
//    a k-element distance heap) makes steady-state queries perform zero
//    heap allocations.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/ann/index.hpp"
#include "src/ann/quantize.hpp"

namespace apx {

/// QALSH tuning knobs. The guarantee parameters (c, delta, beta) fully
/// determine the derived scheme (projection count m, collision threshold l,
/// bucket width w) — see QalshIndex::scheme().
struct QalshParams {
  /// Approximation ratio (> 1). The returned nearest neighbour is within
  /// c times the true nearest distance with the stated probability.
  float c = 2.0f;
  /// Failure probability in (0, 1): success probability is >= 1/2 - delta.
  /// The default 0.368 ~= 1/e yields the paper's 1/2 - 1/e bound.
  float delta = 0.368f;
  /// False-positive fraction in (0, 1]: the query terminates once it has
  /// collected k + ceil(beta * n) candidates (termination condition C2).
  float beta = 0.01f;
  /// Initial search radius of the virtual rehashing schedule R = r0 * c^j.
  /// Features here are unit-normalized, so the default starts well below
  /// typical intra-class distances; observe_queries() adapts the starting
  /// radius toward the observed k-th-neighbour distance.
  float r0 = 0.125f;
  std::uint64_t seed = 42;  ///< projection seed
  /// Opt-in SQ8 candidate scan: identical discipline to the LSH family
  /// (score candidates on uint8 codes, re-rank the top survivors exactly).
  QuantizeParams quantize;
};

/// Query-aware LSH index over L2 distance (see file comment). Not
/// thread-safe: queries and inserts share the index-owned scratch (see
/// NnIndex).
class QalshIndex final : public NnIndex {
 public:
  /// The derived scheme the guarantee parameters produced (exposed for
  /// tests and diagnostics).
  struct Scheme {
    float w = 0.0f;     ///< projection collision half-width unit
    float p1 = 0.0f;    ///< collision probability at distance 1
    float p2 = 0.0f;    ///< collision probability at distance c
    std::size_t m = 0;  ///< projection (hash) count
    std::size_t l = 0;  ///< collision-frequency candidacy threshold
  };

  QalshIndex(std::size_t dim, const QalshParams& params);

  /// Adds a vector under `id`. Throws std::invalid_argument when `v` is
  /// not dim() long, on a duplicate id or on non-finite values (a NaN
  /// projection would poison the sorted line order for every future query).
  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;

  /// The learning hook: records each query's "ann/candidates",
  /// "ann/rerank_survivors" (quantized) and "ann/qalsh/*" samples when
  /// metrics are attached, then feeds the radius controller:
  /// EMAs the farthest returned distances and starts future virtual-rehash
  /// schedules one expansion below that estimate, skipping rounds that
  /// cannot terminate. Skipping ahead counts exactly the collisions the
  /// skipped rounds would have (the per-line windows partition the
  /// projection axis), so recall is unaffected — only wasted early rounds
  /// are removed.
  void observe_queries(std::span<const QueryStats> stats) override;

  /// Lossy SQ8 reconstruction of `id`'s stored vector; empty when `id` is
  /// absent or the scan is not quantized.
  FeatureVec reconstructed(VecId id) const override;

  /// Registers "ann/candidates" (plus "ann/rerank_survivors" when the
  /// quantized scan is active) and the all-or-nothing "ann/qalsh" group:
  /// collision/round histograms and the frontier stop counters.
  void attach_metrics(MetricsRegistry& metrics) override;

  std::size_t size() const noexcept override { return id_to_slot_.size(); }
  std::size_t dim() const noexcept override { return dim_; }

  const QalshParams& params() const noexcept { return params_; }
  const Scheme& scheme() const noexcept { return scheme_; }

  /// Whether the SQ8 candidate scan is active.
  bool quantized() const noexcept { return params_.quantize.enabled; }

  /// Current starting radius of the virtual-rehash schedule (params().r0
  /// until observe_queries() has adapted it).
  float start_radius() const noexcept { return start_radius_; }

  /// Bulk-load hook: merges every line's pending insert tail into its
  /// sorted array now, so queries after a large batch of inserts never
  /// scan an unsorted tail. No-op when the tails are empty.
  void flush();

  /// Line merges / compactions performed so far (tests and diagnostics).
  std::size_t merge_count() const noexcept { return merges_; }
  std::size_t compaction_count() const noexcept { return compactions_; }

 protected:
  /// Projects `q`, sweeps, then ranks. Fills the QueryStats with
  /// candidates, re-rank survivors, rehash rounds, collisions and the stop
  /// reason.
  void query_impl(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats) const override;

 private:
  /// Reusable projection and query working set; grows to the high-water
  /// mark and is never shrunk, so steady-state queries allocate nothing.
  struct QueryScratch {
    std::vector<float> proj_q;      // m projections of the query or insert
    std::vector<std::uint32_t> left;          // per-line left cursor
    std::vector<std::uint32_t> right;         // per-line right cursor
    std::vector<std::uint32_t> pending_left;  // per-line unswept tail count
    std::vector<std::uint16_t> freq;   // per-slot collision count
    std::vector<std::uint32_t> stamp;  // per-slot generation stamp
    std::uint32_t generation = 0;
    std::vector<std::uint32_t> candidates;  // slots that reached frequency l
    std::vector<float> distances;  // squared distances (ADC when quantized)
    std::vector<float> heap;       // k-element max-heap of best distances
    std::size_t last_candidates = 0;  // reservation hint for the next query
    // Quantized-scan re-rank stage (unused on the float path):
    std::vector<std::uint32_t> rank_order;
    std::vector<std::uint32_t> survivors;
    std::vector<float> exact;
  };

  /// Index into the vector arena (row `slot` starts at arena_[slot * dim_]).
  using Slot = std::uint32_t;

  /// One (projection, slot) pair of a hash line.
  struct Entry {
    float proj = 0.0f;
    Slot slot = 0;
  };

  /// One hash: the sorted projection array plus the unsorted insert tail.
  struct HashLine {
    std::vector<Entry> sorted;   ///< ascending (proj, slot)
    std::vector<Entry> pending;  ///< unmerged recent inserts
  };

  std::span<const float> slot_vec(Slot slot) const noexcept {
    return {arena_.data() + static_cast<std::size_t>(slot) * dim_, dim_};
  }
  std::size_t slot_count() const noexcept { return slot_ids_.size(); }

  /// Claims a slot (reuse or arena growth) and stores `v` (+ SQ8 codes).
  Slot claim_slot(VecId id, const FeatureVec& v);
  /// Batch-merges every line's pending tail into its sorted array.
  void merge_pending();
  /// Filters dead slots out of every line and recycles them.
  void compact();

  /// The QALSH sweep: walks every line outward from scratch_.proj_q under
  /// the virtual-rehash schedule, collision-counts entries, promotes
  /// frequent slots to candidates and scores them per round (float gather
  /// or ADC), until C1 (k-th candidate within c*R), C2 (k + beta*n
  /// candidates) or exhaustion; fills st's rounds, collisions and stop
  /// reason.
  void collect(std::span<const float> q, std::size_t k, QueryStats& st) const;
  /// Scores candidates [from, candidates.size()) and feeds the k-heap.
  void score_from(std::span<const float> q, std::size_t from,
                  std::size_t k) const;
  /// Ranks the scored candidates into `out` (exact re-rank when
  /// quantized), filling st's survivor count.
  void finalize(std::span<const float> q, std::size_t k,
                std::vector<Neighbor>& out, QueryStats& st) const;

  std::size_t dim_;
  QalshParams params_;
  Scheme scheme_;
  float start_radius_ = 0.0f;  ///< retuned by observe_queries()

  std::vector<float> proj_;      ///< m x dim row-major projection matrix
  std::vector<HashLine> lines_;  ///< m sorted projection lines

  std::vector<float> arena_;     ///< slot-major vector storage
  std::vector<VecId> slot_ids_;  ///< slot -> owning id
  std::vector<std::uint8_t> alive_;  ///< slot liveness (tombstones are 0)
  std::vector<Slot> free_slots_;  ///< compacted holes, reusable
  std::vector<Slot> dead_slots_;  ///< tombstoned, awaiting compaction
  std::unordered_map<VecId, Slot> id_to_slot_;

  // SQ8 sidecar (quantized() only), slot-coherent with arena_ — encoded on
  // insert, untouched by merges/compactions. SoA for the ADC kernel.
  std::vector<std::uint8_t> code_arena_;
  std::vector<float> sq8_offset_;
  std::vector<float> sq8_scale_;
  std::vector<float> sq8_recon_norm_sq_;

  /// Recomputes start_radius_ from the EMA.
  void retune_start_radius();

  // Radius controller. Fed only through observe_queries(): the query path
  // never touches it.
  static constexpr double kEmaAlpha = 0.1;
  double dk_ema_ = 0.0;
  bool has_ema_ = false;

  std::size_t merges_ = 0;
  std::size_t compactions_ = 0;

  // Projection and query buffers, shared by insert() and query_impl(): the
  // index is single-caller, so they never overlap.
  mutable QueryScratch scratch_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t candidates_hist_ = 0;
  std::uint32_t rerank_hist_ = 0;
  std::uint32_t collisions_hist_ = 0;
  std::uint32_t rounds_hist_ = 0;
  std::uint32_t c1_counter_ = 0;
  std::uint32_t c2_counter_ = 0;
  std::uint32_t exhausted_counter_ = 0;
  std::uint32_t merges_counter_ = 0;
  std::uint32_t compactions_counter_ = 0;
};

}  // namespace apx
