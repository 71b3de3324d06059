#pragma once
// Locality-sensitive hashing with p-stable (Gaussian) projections
// [Datar et al., SoCG'04]: h(v) = floor((a.v + b) / w). Vectors whose L2
// distance is small collide with high probability; `w` (bucket width)
// trades candidate-set size against recall.
//
// Hot-path layout (see DESIGN.md and bench_m2_hotpath):
//  - each table's k projection vectors live in one flat row-major matrix,
//    so hashing a vector is a single matrix-vector pass over contiguous
//    memory instead of k separate dot() calls;
//  - stored vectors live in a contiguous slot-indexed arena, so candidate
//    scoring is a batched gather kernel (l2_sq_gather) rather than one
//    hash-map lookup plus pointer chase per candidate;
//  - one index-owned scratch (coords, fractions, probe order, candidate
//    and distance buffers, a generation-stamped seen mask) makes
//    steady-state queries perform zero heap allocations.

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/ann/index.hpp"
#include "src/ann/quantize.hpp"
#include "src/util/rng.hpp"

namespace apx {

/// Tuning parameters for p-stable LSH.
struct LshParams {
  std::size_t num_tables = 4;        ///< L: independent hash tables
  std::size_t hashes_per_table = 8;  ///< k: projections concatenated per table
  float bucket_width = 0.5f;         ///< w: quantization step
  std::uint64_t seed = 42;           ///< projection seed
  /// Multiprobe (Lv et al., VLDB'07, query-directed single-coordinate
  /// variant): per table, additionally probe this many buckets obtained by
  /// flipping the hash coordinates whose projections fall closest to a
  /// quantization boundary. Buys recall without more tables; 0 disables.
  std::size_t probes_per_table = 0;
  /// Opt-in SQ8 candidate scan: keep a uint8 code arena beside the float
  /// arena, score candidates with asymmetric distance over the codes, and
  /// re-rank the top survivors exactly (see DESIGN.md §8).
  QuantizeParams quantize;
};

/// p-stable LSH index over L2 distance. Not thread-safe: queries, inserts
/// and rebuilds share the index-owned scratch (see NnIndex).
class PStableLshIndex final : public NnIndex {
 public:
  PStableLshIndex(std::size_t dim, const LshParams& params);

  /// Adds a vector under `id`. Throws std::invalid_argument when `v` is
  /// not dim() long or on a duplicate id (a silent duplicate would leave
  /// stale slots in the tables).
  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;

  std::size_t size() const noexcept override { return id_to_slot_.size(); }
  std::size_t dim() const noexcept override { return dim_; }

  const LshParams& params() const noexcept { return params_; }

  /// Whether the SQ8 candidate scan is active.
  bool quantized() const noexcept { return params_.quantize.enabled; }

  /// Lossy SQ8 reconstruction of `id`'s stored vector; empty when `id` is
  /// absent or the scan is not quantized.
  FeatureVec reconstructed(VecId id) const override;

  /// Records each query's "ann/candidates" (and, quantized, its
  /// "ann/rerank_survivors") sample when metrics are attached.
  void observe_queries(std::span<const QueryStats> stats) override;

  /// Registers the "ann/candidates" per-query candidate-set histogram,
  /// plus "ann/rerank_survivors" when the quantized scan is active.
  void attach_metrics(MetricsRegistry& metrics) override;

  /// Rebuilds every table with a new bucket width, reusing the projections.
  /// O(n L k dim); called rarely (adaptation), never per query.
  void rebuild_with_width(float new_width);

 protected:
  /// Hashes `q` into every table (base bucket plus multiprobe flips), then
  /// gathers and scores the candidates. After a warm-up query with a
  /// comparable workload, performs zero heap allocations.
  void query_impl(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats) const override;

 private:
  /// Reusable hashing and query working set; grows to the high-water mark
  /// and is never shrunk, so steady-state queries allocate nothing.
  struct QueryScratch {
    std::vector<float> projected;       // k projections of one table
    std::vector<std::int64_t> coords;   // quantized per-hash coordinates
    std::vector<float> fractions;       // within-bucket fractional positions
    std::vector<std::uint32_t> order;   // multiprobe flip order
    std::vector<std::uint64_t> keys;    // staged bucket keys, probe order
    std::vector<std::uint32_t> candidates;  // deduplicated candidate slots
    std::vector<float> distances;       // squared distances per candidate
    std::vector<std::uint32_t> seen;    // per-slot generation stamp
    std::uint32_t generation = 0;
    std::size_t last_candidates = 0;    // reservation hint for the next query
    // Quantized-scan stage (unused on the float path):
    std::vector<std::uint32_t> rank_order;  // candidate ranks by ADC score
    std::vector<std::uint32_t> survivors;   // slots kept for exact re-rank
    std::vector<float> exact;               // re-ranked squared distances
  };

  /// Index into the vector arena (row `slot` starts at arena_[slot * dim_]).
  using Slot = std::uint32_t;

  struct Table {
    std::vector<float> projections;  ///< k x dim row-major matrix
    std::vector<float> offsets;      ///< k offsets in [0, w)
    std::unordered_map<std::uint64_t, std::vector<Slot>> buckets;
  };

  std::span<const float> slot_vec(Slot slot) const noexcept {
    return {arena_.data() + static_cast<std::size_t>(slot) * dim_, dim_};
  }
  std::size_t slot_count() const noexcept { return slot_ids_.size(); }

  /// Effective multiprobe flips per table.
  std::size_t probes() const noexcept {
    return std::min(params_.probes_per_table, params_.hashes_per_table);
  }
  /// Fills scratch_.projected/coords (and fractions when asked) for one
  /// table; returns the bucket key of the base probe.
  std::uint64_t compute_coords(const Table& table, std::span<const float> v,
                               bool want_fractions) const;
  /// Stage 1 of a query against one table: base bucket key plus the
  /// query-directed multiprobe flip keys, written to keys[0..probes()].
  void hash_query(const Table& table, std::span<const float> q,
                  std::uint64_t* keys) const;
  /// Stages 2+3: gathers candidates for the staged keys (dedup via the
  /// generation stamps, same bucket order as hashing), scores them (float
  /// gather or SQ8 scan + exact re-rank), fills `out` with the top k.
  void gather_score(std::span<const float> q, std::size_t k,
                    std::vector<Neighbor>& out, QueryStats& st) const;
  /// Hashes `slot`'s vector into every table, recording per-table keys.
  void link_slot(Slot slot);
  /// SQ8 scan + exact re-rank over scratch_.candidates (quantized() only).
  void score_quantized(std::span<const float> q, std::size_t k,
                       std::vector<Neighbor>& out, QueryStats& st) const;

  std::size_t dim_;
  LshParams params_;
  std::vector<Table> tables_;

  std::vector<float> arena_;              ///< slot-major vector storage
  std::vector<VecId> slot_ids_;           ///< slot -> owning id
  std::vector<std::uint64_t> slot_keys_;  ///< slot * L + t -> bucket key
  std::vector<Slot> free_slots_;          ///< reusable holes left by remove()
  std::unordered_map<VecId, Slot> id_to_slot_;

  // SQ8 sidecar (quantized() only), kept slot-coherent with arena_: rows
  // are encoded on insert (slot reuse overwrites), never touched by bucket
  // rebuilds. SoA so the ADC kernel reads each term as a flat array.
  std::vector<std::uint8_t> code_arena_;  ///< slot-major uint8 codes
  std::vector<float> sq8_offset_;         ///< per-slot grid offset
  std::vector<float> sq8_scale_;          ///< per-slot grid scale
  std::vector<float> sq8_recon_norm_sq_;  ///< per-slot |reconstruction|^2

  // Hashing and query buffers, shared by insert(), rebuild_with_width() and
  // query_impl(): the index is single-caller, so they never overlap.
  mutable QueryScratch scratch_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint32_t candidates_hist_ = 0;
  std::uint32_t rerank_hist_ = 0;
};

}  // namespace apx
