#pragma once
// Index construction: the one place that knows every NnIndex backend. The
// cache (and anything else hosting an index) selects by IndexKind and never
// names a concrete index type, so adding a backend touches only this pair
// of files.

#include <memory>

#include "src/ann/adaptive_lsh.hpp"
#include "src/ann/index.hpp"
#include "src/ann/qalsh.hpp"

namespace apx {

/// Which ANN index backs a cache.
enum class IndexKind { kExact, kLsh, kAdaptiveLsh, kQalsh };

/// Printable kind name ("exact", "lsh", "adaptive-lsh", "qalsh").
const char* to_string(IndexKind kind) noexcept;

/// Builds an index of `kind` over `dim`-dimensional vectors. `params`
/// covers the whole bucketed LSH family: kLsh uses params.lsh, kAdaptiveLsh
/// all of it; `qalsh` configures the query-aware backend; kExact uses
/// neither. Throws std::invalid_argument on an unknown kind.
///
/// Every backend returned here answers through NnIndex::query_into() and
/// learns through NnIndex::observe_queries(), so consumers never need to
/// know which one they hold.
std::unique_ptr<NnIndex> make_index(IndexKind kind, std::size_t dim,
                                    const AdaptiveLshParams& params,
                                    const QalshParams& qalsh = QalshParams{});

}  // namespace apx
