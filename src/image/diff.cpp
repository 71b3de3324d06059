#include "src/image/diff.hpp"

#include <cmath>
#include <stdexcept>

namespace apx {

Image downsample_gray(const Image& frame, int side) {
  Image gray = frame.to_gray();
  // A same-size bilinear resize weighs every pixel by exactly 1 and its
  // neighbours by 0, so skipping it changes no finite pixel's value.
  if (gray.width() == side && gray.height() == side) return gray;
  return gray.resized(side, side);
}

void block_mean_abs_diff(const Image& a, const Image& b, int grid,
                         std::span<float> out) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != 1 || b.channels() != 1) {
    throw std::invalid_argument(
        "block_mean_abs_diff: images must be single-channel and same shape");
  }
  if (grid <= 0 || a.width() % grid != 0 || a.height() % grid != 0 ||
      out.size() != static_cast<std::size_t>(grid) * grid) {
    throw std::invalid_argument("block_mean_abs_diff: bad grid");
  }
  const int bw = a.width() / grid;
  const int bh = a.height() / grid;
  for (int by = 0; by < grid; ++by) {
    for (int bx = 0; bx < grid; ++bx) {
      float sum = 0.0f;
      for (int y = by * bh; y < (by + 1) * bh; ++y) {
        for (int x = bx * bw; x < (bx + 1) * bw; ++x) {
          sum += std::fabs(a.at(x, y, 0) - b.at(x, y, 0));
        }
      }
      out[static_cast<std::size_t>(by) * grid + bx] =
          sum / static_cast<float>(bw * bh);
    }
  }
}

}  // namespace apx
