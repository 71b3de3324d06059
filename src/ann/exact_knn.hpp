#pragma once
// Exact k-nearest-neighbour index by linear scan. The correctness baseline
// every approximate index is validated against, and the right choice for
// small caches where a scan beats hashing overhead.

#include <unordered_map>

#include "src/ann/index.hpp"

namespace apx {

/// Linear-scan exact kNN.
class ExactKnnIndex final : public NnIndex {
 public:
  /// Throws std::invalid_argument when `dim` is 0.
  explicit ExactKnnIndex(std::size_t dim);

  void insert(VecId id, const FeatureVec& v) override;
  bool remove(VecId id) override;
  std::size_t size() const noexcept override { return vectors_.size(); }
  std::size_t dim() const noexcept override { return dim_; }

 protected:
  /// Scores every stored vector into `out` (reusing its capacity), then
  /// partial-sorts the top k — zero heap allocations once `out` has grown
  /// to the index size. `stats` reports the full scan size.
  void query_impl(std::span<const float> q, std::size_t k,
                  std::vector<Neighbor>& out,
                  QueryStats* stats) const override;

 private:
  std::size_t dim_;
  std::unordered_map<VecId, FeatureVec> vectors_;
};

}  // namespace apx
