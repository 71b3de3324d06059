#pragma once
// Dense float image type. Pixel values live in [0, 1]; layout is row-major,
// interleaved channels (HWC), matching what a camera pipeline would hand a
// mobile vision stack after decode.

#include <cstddef>
#include <span>
#include <vector>

namespace apx {

/// Owning float image. Channels is 1 (grayscale) or 3 (RGB).
class Image {
 public:
  Image() = default;

  /// Allocates a zeroed image. Requires positive dimensions, channels 1 or 3.
  Image(int width, int height, int channels);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int channels() const noexcept { return channels_; }
  bool empty() const noexcept { return data_.empty(); }
  std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  /// Mutable access; caller must keep coordinates in range.
  float& at(int x, int y, int c) noexcept {
    return data_[index(x, y, c)];
  }
  float at(int x, int y, int c) const noexcept {
    return data_[index(x, y, c)];
  }

  std::span<const float> data() const noexcept { return data_; }
  std::span<float> data() noexcept { return data_; }

  /// Clamps every sample into [0, 1].
  void clamp();

  /// Single-channel copy (luma for RGB: 0.299 R + 0.587 G + 0.114 B).
  /// Throws std::invalid_argument on an empty image.
  Image to_gray() const;

  /// Bilinear resize to the given dimensions (same channel count). Throws
  /// std::invalid_argument on an empty image or non-positive dimensions.
  Image resized(int new_width, int new_height) const;

  /// Mean absolute per-sample difference against an image of identical
  /// shape — the frame-differencing primitive used by the video module.
  /// Throws std::invalid_argument when the shapes differ.
  float mean_abs_diff(const Image& other) const;

  /// Mean sample value.
  float mean() const;

 private:
  std::size_t index(int x, int y, int c) const noexcept {
    return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)) *
               static_cast<std::size_t>(channels_) +
           static_cast<std::size_t>(c);
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<float> data_;
};

}  // namespace apx
