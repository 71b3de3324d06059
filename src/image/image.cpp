#include "src/image/image.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace apx {

Image::Image(int width, int height, int channels)
    : width_(width), height_(height), channels_(channels) {
  if (width <= 0 || height <= 0 || (channels != 1 && channels != 3)) {
    throw std::invalid_argument("Image: bad dimensions");
  }
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                   static_cast<std::size_t>(channels),
               0.0f);
}

void Image::clamp() {
  for (float& v : data_) v = std::clamp(v, 0.0f, 1.0f);
}

Image Image::to_gray() const {
  if (empty()) throw std::invalid_argument("Image::to_gray: empty image");
  if (channels_ == 1) return *this;
  Image out(width_, height_, 1);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      out.at(x, y, 0) = 0.299f * at(x, y, 0) + 0.587f * at(x, y, 1) +
                        0.114f * at(x, y, 2);
    }
  }
  return out;
}

Image Image::resized(int new_width, int new_height) const {
  if (empty()) throw std::invalid_argument("Image::resized: empty image");
  if (new_width <= 0 || new_height <= 0) {
    throw std::invalid_argument("Image::resized: bad dimensions");
  }
  Image out(new_width, new_height, channels_);
  const float sx = static_cast<float>(width_) / static_cast<float>(new_width);
  const float sy = static_cast<float>(height_) / static_cast<float>(new_height);
  for (int y = 0; y < new_height; ++y) {
    // Sample at source-space pixel centers.
    const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, height_ - 1);
    const int y1 = std::min(y0 + 1, height_ - 1);
    const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < new_width; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const int x0 =
          std::clamp(static_cast<int>(std::floor(fx)), 0, width_ - 1);
      const int x1 = std::min(x0 + 1, width_ - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      for (int c = 0; c < channels_; ++c) {
        const float top =
            at(x0, y0, c) * (1.0f - wx) + at(x1, y0, c) * wx;
        const float bot =
            at(x0, y1, c) * (1.0f - wx) + at(x1, y1, c) * wx;
        out.at(x, y, c) = top * (1.0f - wy) + bot * wy;
      }
    }
  }
  return out;
}

float Image::mean_abs_diff(const Image& other) const {
  if (width_ != other.width_ || height_ != other.height_ ||
      channels_ != other.channels_) {
    throw std::invalid_argument("Image::mean_abs_diff: shape mismatch");
  }
  if (data_.empty()) return 0.0f;
  float sum = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    sum += std::abs(data_[i] - other.data_[i]);
  }
  return sum / static_cast<float>(data_.size());
}

float Image::mean() const {
  if (data_.empty()) return 0.0f;
  float sum = 0.0f;
  for (float v : data_) sum += v;
  return sum / static_cast<float>(data_.size());
}

}  // namespace apx
