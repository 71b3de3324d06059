#pragma once
// Key replay for the traced run. The cache and the ANN index are concrete
// classes with no seam to decorate, so their host cost is measured by
// replaying the keys the traced ladder leg extracted, per device, through
// the same stack: a fresh ApproxCache (cache.lookup, then cache.insert on a
// miss), then read-only through a make_index copy of the final live entries
// (ann.query, ann.vote), and through a standalone EdgeCacheService
// (edge.query, then edge.feed on a miss).

#include <cstdint>
#include <vector>

#include "benchmark/src/inputs.hpp"
#include "benchmark/src/ladder.hpp"
#include "benchmark/src/spans.hpp"

namespace apxbench {

struct ReplayResult {
  std::uint64_t ann_queries = 0;
  std::uint64_t ann_candidates = 0;  ///< distances computed by ann.query
};

ReplayResult replay_keys(const FleetInputs& inputs,
                         const std::vector<RecordedKey>& keys,
                         Tracer& tracer);

}  // namespace apxbench
