#pragma once
// Frame-differencing helpers shared by everything that compares frames:
// the temporal rung's whole-frame keyframe diff, the downsample extractor,
// and the region-reuse rung's per-block matcher. One implementation of
// "grayscale thumbnail" and "how different are these pixels" keeps every
// consumer's notion of frame similarity identical.

#include <cstdint>
#include <span>

#include "src/image/image.hpp"

namespace apx {

/// Grayscale `side` x `side` thumbnail of `frame` (luma then bilinear
/// resize) — the canonical comparison representation for frame diffing.
/// A frame already `side` x `side` skips the resize, which would not change
/// any finite pixel's value.
Image downsample_gray(const Image& frame, int side);

/// Mean absolute per-sample difference of each `grid` x `grid` block of two
/// single-channel images of identical shape, row-major into `out` (size
/// grid*grid). The image side must be divisible by `grid`. Summing the
/// per-block means over equal-sized blocks reproduces the whole-frame
/// mean_abs_diff exactly up to float associativity.
void block_mean_abs_diff(const Image& a, const Image& b, int grid,
                         std::span<float> out);

}  // namespace apx
