#include "src/core/rungs/regions.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/pipeline.hpp"
#include "src/features/extractor.hpp"

namespace apx {
namespace {

/// Splice depth is 0 (full staged forward), 1 (partial splice) or 2
/// (resumed at conv3 from a fully-cached stage 2).
std::span<const double> splice_depth_bounds() noexcept {
  static const double bounds[] = {0.0, 1.0, 2.0};
  return bounds;
}

int count_set(std::span<const std::uint8_t> mask) noexcept {
  int n = 0;
  for (const std::uint8_t v : mask) n += (v != 0);
  return n;
}

}  // namespace

RegionsRung::RegionsRung(const RungBuildContext& ctx)
    : extractor_(ctx.extractor),
      cnn_(ctx.extractor->staged_cnn()),
      matcher_(BlockMatchParams{ctx.config->regions.grid, MiniCnn::kInputSide,
                                ctx.config->regions.block_diff_threshold}),
      acts_(MiniCnn::plan(), ActivationCache::Params{
                                 ctx.config->regions.grid,
                                 ctx.config->regions.ttl}) {
  if (cnn_ == nullptr) {
    throw std::invalid_argument(
        "RegionsRung: the feature extractor has no staged CNN "
        "(the regions rung requires the cnn extractor)");
  }
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  changed_.resize(static_cast<std::size_t>(acts_.block_count()));
  expired_.resize(changed_.size());
  input_mask_.resize(plan.input.size() / 3);
  stage1_mask_.resize(
      static_cast<std::size_t>(plan.stage1.width) * plan.stage1.height);
  stage2_mask_.resize(
      static_cast<std::size_t>(plan.stage2.width) * plan.stage2.height);
}

void RegionsRung::register_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  reused_ = metrics.counter("regions/blocks_reused");
  recomputed_ = metrics.counter("regions/blocks_recomputed");
  cache_bytes_ = metrics.counter("regions/cache_bytes");
  splice_depth_ =
      metrics.histogram("regions/splice_depth", splice_depth_bounds());
}

void RegionsRung::run(ReusePipeline& host) {
  FrameContext& ctx = host.frame_ctx();
  if (ctx.features_ready) {
    host.advance();
    return;
  }
  if (!ctx.gate.allow_temporal_reuse) {
    // Major motion: per-block diffs against the keyframe are meaningless,
    // and the cached activations describe a scene no longer in view.
    matcher_.invalidate();
    acts_.invalidate();
  }
  const RegionReuseParams& p = host.config().regions;
  host.trace().begin_span(Rung::kRegions, host.sim().now());
  // The real block matching runs synchronously here (like the temporal
  // rung's frame diff); the simulated clock pays check_latency for it.
  changed_count_ = matcher_.classify(ctx.frame.image, changed_);
  if (acts_.valid()) {
    // A block past its ttl must be recomputed even when its pixels still
    // match — the staleness bound on how long one tile can keep echoing.
    acts_.expire_blocks(host.sim().now(), expired_);
    for (std::size_t b = 0; b < changed_.size(); ++b) {
      if (expired_[b] != 0 && changed_[b] == 0) {
        changed_[b] = 1;
        ++changed_count_;
      }
    }
  }
  const int total = acts_.block_count();
  full_ = !acts_.valid() ||
          static_cast<float>(changed_count_) >
              p.max_changed * static_cast<float>(total);
  SimDuration cost = p.check_latency;
  if (full_) {
    cost += extractor_->latency();
  } else {
    // Price the partial forward by the conv MACs it actually runs: dirty
    // stage-1/stage-2 pixels (changed blocks dilated by the conv halo,
    // pooled down) plus all of conv3.
    const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
    acts_.block_to_pixel_mask(changed_, MiniCnn::kInputSide, input_mask_);
    MiniCnn::propagate_dirty(input_mask_, plan.input.width, plan.input.height,
                             stage1_mask_);
    MiniCnn::propagate_dirty(stage1_mask_, plan.stage1.width,
                             plan.stage1.height, stage2_mask_);
    const double f1 =
        static_cast<double>(count_set(stage1_mask_)) /
        (static_cast<double>(plan.stage1.width) * plan.stage1.height);
    const double f2 =
        static_cast<double>(count_set(stage2_mask_)) /
        (static_cast<double>(plan.stage2.width) * plan.stage2.height);
    const double mac_share =
        (plan.conv_macs[0] * f1 + plan.conv_macs[1] * f2 + plan.conv_macs[2]) /
        plan.total_macs();
    cost += static_cast<SimDuration>(
        static_cast<double>(extractor_->latency()) * mac_share);
  }
  host.spend(cost);
  host.schedule(cost, [this, &host] { complete(host); });
}

void RegionsRung::complete(ReusePipeline& host) {
  FrameContext& ctx = host.frame_ctx();
  const int total = acts_.block_count();
  int depth = 0;
  cnn_->prepare_input(ctx.frame.image, state_);
  if (full_) {
    cnn_->forward(state_, /*from_stage=*/0, ctx.features);
    std::fill(changed_.begin(), changed_.end(), std::uint8_t{1});
    changed_count_ = total;
  } else {
    const MiniCnn::SpliceStats stats =
        cnn_->forward_spliced(state_, acts_.stage1(), acts_.stage2(),
                              stage1_mask_, stage2_mask_, ctx.features);
    depth = stats.resume_stage;
  }
  ctx.features_ready = true;
  // Refresh the reference pixels and cached tiles of exactly the recomputed
  // blocks; reused blocks keep the keyframe they were spliced from, so
  // slow drift cannot accumulate unseen.
  matcher_.update(changed_);
  acts_.install(state_.stage1, state_.stage2, changed_, host.sim().now());
  if (metrics_ != nullptr) {
    metrics_->inc(recomputed_, static_cast<std::uint64_t>(changed_count_));
    metrics_->inc(reused_, static_cast<std::uint64_t>(total - changed_count_));
    metrics_->record(splice_depth_, static_cast<double>(depth));
    metrics_->set(cache_bytes_, acts_.bytes());
  }
  // "Hit" means the frame actually spliced cached activations; a full
  // forward (cold cache, too many changed blocks) is the rung's miss.
  host.trace().end_span(full_ ? RungOutcome::kMiss : RungOutcome::kHit,
                        host.sim().now());
  host.advance();
}

std::unique_ptr<ReuseRung> make_regions_rung(const RungBuildContext& ctx) {
  return std::make_unique<RegionsRung>(ctx);
}

}  // namespace apx
