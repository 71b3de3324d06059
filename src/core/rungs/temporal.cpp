#include "src/core/rungs/temporal.hpp"

#include "src/core/pipeline.hpp"

namespace apx {

void TemporalRung::run(ReusePipeline& host) {
  const FrameContext& ctx = host.frame_ctx();
  if (!ctx.gate.allow_temporal_reuse) {
    // Major motion: the previous keyframe no longer describes the scene.
    temporal_.invalidate();
    host.advance();
    return;
  }
  const TemporalCheck check = temporal_.check(ctx.frame.image);
  host.trace().begin_span(Rung::kTemporal, host.sim().now());
  host.spend(check.latency);
  host.schedule(check.latency, [&host, check] {
    if (check.reusable && host.last_result().has_value() &&
        host.last_result()->label != kNoLabel) {
      host.trace().end_span(RungOutcome::kHit, host.sim().now());
      host.finish(ResultSource::kTemporalReuse, host.last_result()->label,
                  host.last_result()->confidence);
      return;
    }
    host.trace().end_span(RungOutcome::kMiss, host.sim().now());
    host.advance();
  });
}

void TemporalRung::on_result(ReusePipeline& host,
                             const RecognitionResult& result) {
  // A keyframe is any frame whose result came from actually looking at the
  // image; temporal reuse chains from it, and the IMU fast path never
  // refreshes it (it never inspects pixels).
  switch (result.source) {
    case ResultSource::kLocalCacheHit:
    case ResultSource::kPeerCacheHit:
    case ResultSource::kFullInference:
    case ResultSource::kWarmCacheHit:
    case ResultSource::kEdgeCacheHit:
      temporal_.set_keyframe(host.frame_ctx().frame.image);
      break;
    case ResultSource::kImuFastPath:
    case ResultSource::kTemporalReuse:
      break;
  }
}

std::unique_ptr<ReuseRung> make_temporal_rung(const RungBuildContext& ctx) {
  return std::make_unique<TemporalRung>(ctx);
}

}  // namespace apx
