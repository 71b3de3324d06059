#include "src/ann/index.hpp"

#include <stdexcept>

namespace apx {

std::vector<Neighbor> NnIndex::query(std::span<const float> q,
                                     std::size_t k) const {
  std::vector<Neighbor> out;
  query_into(q, k, out);
  return out;
}

void NnIndex::query_into(std::span<const float> q, std::size_t k,
                         std::vector<Neighbor>& out,
                         QueryStats* stats) const {
  if (q.size() != dim()) {
    throw std::invalid_argument("NnIndex::query_into: query is not dim() long");
  }
  query_impl(q, k, out, stats);
}

}  // namespace apx
