#include "src/ann/exact_knn.hpp"

#include <algorithm>
#include <stdexcept>

namespace apx {

ExactKnnIndex::ExactKnnIndex(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("ExactKnnIndex: dim must be > 0");
}

void ExactKnnIndex::insert(VecId id, const FeatureVec& v) {
  if (v.size() != dim_) {
    throw std::invalid_argument("ExactKnnIndex::insert: bad vector size");
  }
  if (!vectors_.emplace(id, v).second) {
    // emplace keeps the old vector: a silent duplicate would answer with a
    // vector the caller believes it replaced.
    throw std::invalid_argument("ExactKnnIndex::insert: duplicate id");
  }
}

bool ExactKnnIndex::remove(VecId id) { return vectors_.erase(id) > 0; }

void ExactKnnIndex::query_impl(std::span<const float> q, std::size_t k,
                               std::vector<Neighbor>& out,
                               QueryStats* stats) const {
  out.clear();
  out.reserve(vectors_.size());
  for (const auto& [id, v] : vectors_) {
    out.push_back({id, l2(q, v)});
  }
  const std::size_t take = std::min(k, out.size());
  std::partial_sort(
      out.begin(), out.begin() + static_cast<std::ptrdiff_t>(take), out.end(),
      [](const Neighbor& a, const Neighbor& b) {
        return a.distance < b.distance ||
               (a.distance == b.distance && a.id < b.id);
      });
  out.resize(take);
  if (stats != nullptr) {
    *stats = {};
    stats->candidates = vectors_.size();
    stats->farthest = out.empty() ? 0.0f : out.back().distance;
  }
}

}  // namespace apx
