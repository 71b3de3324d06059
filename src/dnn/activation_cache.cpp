#include "src/dnn/activation_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace apx {

ActivationCache::ActivationCache(const MiniCnn::ForwardPlan& plan,
                                 const Params& params)
    : params_(params), shape1_(plan.stage1), shape2_(plan.stage2) {
  const int g = params.grid;
  if (g <= 0 || plan.input.width % g != 0 || plan.stage1.width % g != 0 ||
      plan.stage2.width % g != 0) {
    throw std::invalid_argument(
        "ActivationCache: grid must divide every stage side (2, 4 or 8)");
  }
  stage1_.resize(shape1_.size());
  stage2_.resize(shape2_.size());
  installed_.assign(static_cast<std::size_t>(block_count()), 0);
}

void ActivationCache::expire_blocks(SimTime now,
                                    std::span<std::uint8_t> out) const {
  if (out.size() != static_cast<std::size_t>(block_count())) {
    throw std::invalid_argument("ActivationCache: bad mask size");
  }
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = (valid_ && params_.ttl > 0 && now - installed_[b] > params_.ttl)
                 ? 1
                 : 0;
  }
}

void ActivationCache::install(const MiniCnn::Tensor& stage1,
                              const MiniCnn::Tensor& stage2,
                              std::span<const std::uint8_t> recomputed,
                              SimTime now) {
  if (stage1.size() != shape1_.size() || stage2.size() != shape2_.size() ||
      recomputed.size() != static_cast<std::size_t>(block_count())) {
    throw std::invalid_argument("ActivationCache: bad install");
  }
  const bool fresh = !valid_;
  stage1_ = stage1;  // copy-assignment reuses the fixed capacity
  stage2_ = stage2;
  for (std::size_t b = 0; b < recomputed.size(); ++b) {
    if (fresh || recomputed[b] != 0) installed_[b] = now;
  }
  valid_ = true;
}

void ActivationCache::block_to_pixel_mask(
    std::span<const std::uint8_t> blocks, int side,
    std::span<std::uint8_t> pixels) const {
  const int g = params_.grid;
  if (blocks.size() != static_cast<std::size_t>(block_count()) || side <= 0 ||
      side % g != 0 ||
      pixels.size() != static_cast<std::size_t>(side) * side) {
    throw std::invalid_argument("ActivationCache: bad pixel mask");
  }
  // Each block covers bs mask rows of bs equal bytes.
  const int bs = side / g;
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const std::uint8_t v = blocks[static_cast<std::size_t>(by) * g + bx];
      for (int y = by * bs; y < (by + 1) * bs; ++y) {
        std::uint8_t* row =
            pixels.data() + static_cast<std::size_t>(y) * side + bx * bs;
        std::fill(row, row + bs, v);
      }
    }
  }
}

}  // namespace apx
