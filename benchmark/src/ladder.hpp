#pragma once
// The ladder leg: replays pre-generated inputs through the same fleet
// ExperimentRunner builds (same classes, construction order, RNG seeds and
// event scheduling order, on one EventSimulator), so it reproduces the
// simulator's outputs exactly while leaving rendering out of the measured
// loop. A later change can replace this mirror with a frame-source seam in
// the runner.

#include <cstdint>
#include <vector>

#include "benchmark/src/inputs.hpp"
#include "benchmark/src/spans.hpp"
#include "src/sim/metrics.hpp"
#include "src/util/stats.hpp"

namespace apxbench {

/// One feature key the pipeline extracted, kept for the key replay.
struct RecordedKey {
  std::int32_t device = 0;
  std::int64_t frame = 0;
  apx::SimTime now = 0;  ///< simulated time of the extraction
  apx::FeatureVec features;
  apx::Label label = apx::kNoLabel;  ///< the frame's ground truth
};

/// The event loop is timed in chunks of this many step() calls. Legs over
/// the same inputs step the same events, so chunk c of one leg is the same
/// work as chunk c of another.
inline constexpr std::uint64_t kChunkEvents = 256;

struct LadderResult {
  /// Per device, in device order; comparable with
  /// ExperimentRunner::device_metrics().
  std::vector<apx::ExperimentMetrics> device_metrics;
  double loop_s = 0.0;          ///< wall time of the event loop
  std::vector<std::int64_t> chunk_ns;  ///< loop wall time per event chunk
  std::uint64_t events = 0;     ///< EventSimulator::step calls
  std::uint64_t allocs = 0;     ///< operator new calls inside the loop
  std::uint64_t evict_scores = 0;  ///< EvictionPolicy::score calls (traced)
  apx::Counter net;             ///< the medium's counters
};

/// Runs the ladder leg over `inputs`. With a tracer, records core.event
/// around each step(), core.process around each process(), imu.estimate
/// around the motion estimator, and features.extract / dnn.infer through
/// per-device decorators of the extractor and model; extracted keys are
/// appended to `keys` when it is non-null.
LadderResult run_ladder(const FleetInputs& inputs, Tracer* tracer = nullptr,
                        std::vector<RecordedKey>* keys = nullptr);

}  // namespace apxbench
