#include "src/core/rungs/edge.hpp"

#include "src/core/pipeline.hpp"
#include "src/features/extractor.hpp"

namespace apx {

void EdgeRung::run(ReusePipeline& host) {
  // The backoff gate keeps a device cut off from the edge from paying the
  // lookup timeout every frame: after repeated timed-out rounds the rung
  // is skipped entirely and the frame falls through to the DNN.
  if (edge_ == nullptr || !edge_->should_attempt(host.sim().now())) {
    host.advance();
    return;
  }
  host.trace().begin_span(Rung::kEdge, host.sim().now());
  // The edge key is the same CNN feature vector the local cache uses; a
  // ladder without "local" (edge-only deployments) pays the extraction
  // here instead.
  const SimDuration extract_cost =
      host.frame_ctx().features_ready ? 0 : extractor_->latency();
  host.spend(extract_cost);
  host.schedule(extract_cost, [this, &host] {
    FrameContext& ctx = host.frame_ctx();
    if (!ctx.features_ready) {
      ctx.features = extractor_->extract(ctx.frame.image);
      ctx.features_ready = true;
    }
    const std::uint64_t epoch = host.epoch();
    edge_->async_lookup(
        ctx.features, ctx.gate.threshold_scale,
        [&host, epoch](std::optional<HknnVote> vote) {
          if (!host.live(epoch)) return;
          if (vote.has_value()) {
            host.trace().end_span(RungOutcome::kHit, host.sim().now());
            host.finish(ResultSource::kEdgeCacheHit, vote->label,
                        vote->homogeneity);
          } else {
            host.trace().end_span(RungOutcome::kMiss, host.sim().now());
            host.advance();
          }
        });
  });
}

void EdgeRung::on_result(ReusePipeline& host,
                         const RecognitionResult& result) {
  // Every DNN-validated frame is offered to the edge; admission against the
  // error budget is the service's call. finish() stored the prediction in
  // last_result() before the hooks run, so its confidence is available.
  if (result.source != ResultSource::kFullInference || edge_ == nullptr) {
    return;
  }
  const FrameContext& ctx = host.frame_ctx();
  if (!ctx.features_ready) return;
  const float confidence =
      host.last_result().has_value() ? host.last_result()->confidence : 0.0f;
  edge_->feed(ctx.features, result.label, confidence);
}

std::unique_ptr<ReuseRung> make_edge_rung(const RungBuildContext& ctx) {
  return std::make_unique<EdgeRung>(ctx);
}

}  // namespace apx
