#pragma once
// Exact k-nearest-neighbour index by linear scan. The correctness baseline
// every approximate index is validated against, and the right choice for
// small caches where a scan beats hashing overhead.

#include <unordered_map>

#include "src/ann/index.hpp"

namespace apx {

/// Linear-scan exact kNN.
///
/// Thread-safety: query_batch_into() keeps no query state (no scratch, no
/// accounting members), so it is safe for concurrent callers with or
/// without a scratch. Only insert()/remove() require exclusive access.
class ExactKnnIndex final : public NnIndex {
 public:
  /// Throws std::invalid_argument when `dim` is 0.
  explicit ExactKnnIndex(std::size_t dim);

  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;
  /// Scores every stored vector into each result vector (reusing its
  /// capacity), then partial-sorts the top k — zero heap allocations once
  /// the results have grown to the index size. `stats` (optional) reports
  /// the full scan size. `scratch` is unused.
  void query_batch_into(std::span<const float> queries, std::size_t count,
                        std::size_t k, IndexScratch* scratch,
                        std::span<std::vector<Neighbor>> results,
                        QueryStats* stats = nullptr) const override;
  std::size_t size() const noexcept override { return vectors_.size(); }
  std::size_t dim() const noexcept override { return dim_; }

 private:
  std::size_t dim_;
  std::unordered_map<VecId, FeatureVec> vectors_;
};

}  // namespace apx
