#include "src/core/rungs/p2p.hpp"

#include "src/core/pipeline.hpp"

namespace apx {

void P2pRung::run(ReusePipeline& host) {
  // The backoff gate keeps a partitioned device from paying the P2P
  // timeout every frame: after repeated degraded rounds the rung is
  // skipped entirely and the frame falls straight through to the DNN.
  if (peers_ == nullptr || !peers_->should_attempt(host.sim().now())) {
    host.advance();
    return;
  }
  host.trace().begin_span(Rung::kP2p, host.sim().now());
  const std::uint64_t epoch = host.epoch();
  peers_->async_lookup(
      host.frame_ctx().features,
      [this, &host, epoch](std::vector<WireEntry> entries) {
        if (!host.live(epoch)) return;
        if (entries.empty()) {
          host.trace().end_span(RungOutcome::kMiss, host.sim().now());
          host.advance();
          return;
        }
        // Responses were merged into the local cache by the peer service;
        // re-run the homogenized vote over the enriched neighbourhood.
        const FrameContext& ctx = host.frame_ctx();
        const CacheResult res = cache_->lookup(
            {.features = ctx.features,
             .now = host.sim().now(),
             .threshold_scale = ctx.gate.threshold_scale,
             .trace = &host.trace()});
        host.spend(res.latency);
        host.schedule(res.latency, [&host, vote = res.vote] {
          if (vote.has_value()) {
            host.trace().end_span(RungOutcome::kHit, host.sim().now());
            host.finish(ResultSource::kPeerCacheHit, vote->label,
                        vote->homogeneity);
          } else {
            host.trace().end_span(RungOutcome::kMiss, host.sim().now());
            host.advance();
          }
        });
      });
}

std::unique_ptr<ReuseRung> make_p2p_rung(const RungBuildContext& ctx) {
  return std::make_unique<P2pRung>(ctx);
}

}  // namespace apx
