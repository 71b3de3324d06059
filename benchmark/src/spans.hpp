#pragma once
// In-memory span recording for the traced run. Spans are recorded only from
// benchmark code, around the calls into each layer; nothing inside the
// library is instrumented. A span's self time is its duration minus what its
// children cover.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace apxbench {

enum class SpanName : std::uint8_t {
  kRender,       ///< VideoStreamGenerator::next (input generation)
  kImuSynth,     ///< ImuTraceGenerator::samples_between (input generation)
  kImuEstimate,  ///< MotionEstimator::add_all + estimate
  kEvent,        ///< one EventSimulator::step
  kProcess,      ///< one ReusePipeline::process call
  kExtract,      ///< FeatureExtractor::extract
  kInfer,        ///< RecognitionModel::infer (the oracle)
  kCacheLookup,  ///< ApproxCache::lookup (key replay)
  kCacheInsert,  ///< ApproxCache::insert (key replay)
  kAnnQuery,     ///< NnIndex::query_into (key replay)
  kAnnVote,      ///< hknn_vote (key replay)
  kEdgeQuery,    ///< EdgeCacheService::query (key replay)
  kEdgeFeed,     ///< EdgeCacheService::feed (key replay)
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kEdgeFeed) + 1;

/// Dotted layer name ("core.event", "features.extract", ...).
const char* to_string(SpanName name) noexcept;

struct Span {
  std::uint32_t id = 0;      ///< 1-based within its tracer
  std::uint32_t parent = 0;  ///< 0 = root
  SpanName name = SpanName::kEvent;
  std::int32_t device = -1;  ///< -1 = not known
  std::int64_t frame = -1;   ///< device-local frame index; -1 = not known
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Steady-clock nanoseconds since the process's first call; every tracer
/// shares this clock, so spans of different tracers line up.
std::int64_t now_ns();

/// Records nested spans on one thread.
class Tracer {
 public:
  std::uint32_t begin(SpanName name, std::int32_t device = -1,
                      std::int64_t frame = -1);
  void end(std::uint32_t id);

  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of the durations of root spans named `name`.
  std::int64_t root_ns(SpanName name) const;

  /// Self time in ns of every span, indexed like spans().
  std::vector<std::int64_t> self_ns() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer records nothing, so untraced code paths pay a
/// single branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, std::int32_t device = -1,
             std::int64_t frame = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, device, frame) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Per-layer self-time samples (µs) pooled over any number of tracers.
class SelfTimes {
 public:
  void add(const Tracer& tracer);
  std::size_t count(SpanName name) const;
  /// Interpolated quantile (q in [0, 1]) of `name`'s self time in µs; 0
  /// when no span of that name was recorded.
  double quantile_us(SpanName name, double q);

 private:
  std::vector<double> us_[kSpanNameCount];
  bool sorted_[kSpanNameCount] = {};
};

/// Writes every span of `tracers` to `path` as one JSON object
/// {"workload", "seed", "spans": [...]}; span ids are renumbered so they
/// are unique across tracers. Throws std::runtime_error on I/O failure.
void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<const Tracer*>& tracers);

}  // namespace apxbench
