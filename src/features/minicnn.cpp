#include "src/features/minicnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/features/conv3x3.hpp"
#include "src/features/extractor.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

// Draws He-initialized weights in [oc][ic][ky][kx] order (the draw order
// fixes every embedding) and stores them tap-major, [ky][kx][ic][oc], the
// layout the conv kernel reads.
void init_conv(Rng& rng, int in_ch, int out_ch, std::vector<float>& weights,
               std::vector<float>& bias) {
  // He-style initialization keeps activations in a sane range through depth.
  const double stddev = std::sqrt(2.0 / (9.0 * in_ch));
  weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  for (int oc = 0; oc < out_ch; ++oc) {
    for (int ic = 0; ic < in_ch; ++ic) {
      for (int tap = 0; tap < 9; ++tap) {
        weights[(static_cast<std::size_t>(tap) * in_ch + ic) * out_ch + oc] =
            static_cast<float>(rng.normal(0.0, stddev));
      }
    }
  }
  bias.assign(static_cast<std::size_t>(out_ch), 0.0f);
}

void check_size(const MiniCnn::Tensor& t, const MiniCnn::StageShape& shape,
                const char* what) {
  if (t.size() != shape.size()) {
    throw std::invalid_argument(std::string("MiniCnn: ") + what +
                                " tensor has the wrong size");
  }
}

}  // namespace

const MiniCnn::ForwardPlan& MiniCnn::plan() noexcept {
  static const ForwardPlan p = [] {
    ForwardPlan out;
    out.input = {kInputSide, kInputSide, 3};
    out.stage1 = {kInputSide / 2, kInputSide / 2, 8};
    out.stage2 = {kInputSide / 4, kInputSide / 4, 16};
    out.stage3 = {kInputSide / 4, kInputSide / 4, 32};
    // MACs = output pixels * out_channels * 9 taps * in_channels.
    out.conv_macs = {
        static_cast<double>(out.input.width) * out.input.height * 8 * 9 * 3,
        static_cast<double>(out.stage1.width) * out.stage1.height * 16 * 9 * 8,
        static_cast<double>(out.stage2.width) * out.stage2.height * 32 * 9 * 16,
    };
    return out;
  }();
  return p;
}

MiniCnn::MiniCnn(std::size_t dim, std::uint64_t seed) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("MiniCnn: dim == 0");
  Rng rng{seed};
  conv1_.in_channels = 3;
  conv1_.out_channels = 8;
  init_conv(rng, 3, 8, conv1_.weights, conv1_.bias);
  conv2_.in_channels = 8;
  conv2_.out_channels = 16;
  init_conv(rng, 8, 16, conv2_.weights, conv2_.bias);
  conv3_.in_channels = 16;
  conv3_.out_channels = 32;
  init_conv(rng, 16, 32, conv3_.weights, conv3_.bias);

  const double fc_stddev = std::sqrt(2.0 / 32.0);
  fc_weights_.resize(dim * 32);
  for (float& w : fc_weights_) {
    w = static_cast<float>(rng.normal(0.0, fc_stddev));
  }
  fc_bias_.assign(dim, 0.0f);
}

std::size_t MiniCnn::parameter_count() const noexcept {
  return conv1_.weights.size() + conv1_.bias.size() + conv2_.weights.size() +
         conv2_.bias.size() + conv3_.weights.size() + conv3_.bias.size() +
         fc_weights_.size() + fc_bias_.size();
}

Conv3x3Weights MiniCnn::ConvLayer::operands() const noexcept {
  return {weights.data(), bias.data(), in_channels, out_channels};
}

void MiniCnn::conv3x3_relu_into(const Tensor& in, int width, int height,
                                const ConvLayer& layer, Tensor& out) {
  out.resize(static_cast<std::size_t>(width) * height * layer.out_channels);
  conv3x3_relu(layer.operands(), in.data(), width, height, 0, 0, width,
               height, out.data());
}

void MiniCnn::maxpool2_into(const Tensor& in, int width, int height,
                            int channels, Tensor& out) {
  const int ow = width / 2;
  const int oh = height / 2;
  out.resize(static_cast<std::size_t>(ow) * oh * channels);
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      for (int c = 0; c < channels; ++c) {
        float m = -1e30f;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t idx =
                (static_cast<std::size_t>(y * 2 + dy) * width + (x * 2 + dx)) *
                    channels +
                static_cast<std::size_t>(c);
            m = std::max(m, in[idx]);
          }
        }
        out[(static_cast<std::size_t>(y) * ow + x) * channels +
            static_cast<std::size_t>(c)] = m;
      }
    }
  }
}

void MiniCnn::recompute_pooled(const Tensor& in, int in_width, int in_height,
                               const ConvLayer& layer,
                               std::span<const std::uint8_t> mask,
                               Tensor& stage) {
  const int ow = in_width / 2;
  const int oh = in_height / 2;
  const int ch = layer.out_channels;
  const Conv3x3Weights operands = layer.operands();
  std::array<float, 4 * 32> window;  // 2x2 conv pixels x all oc, row-major
  for (int py = 0; py < oh; ++py) {
    for (int px = 0; px < ow; ++px) {
      if (mask[static_cast<std::size_t>(py) * ow + px] == 0) continue;
      // The same kernel as the full pass, over this pool window's 2x2 conv
      // pixels: every recomputed scalar matches the full pass bit for bit.
      conv3x3_relu(operands, in.data(), in_width, in_height, px * 2, py * 2,
                   px * 2 + 2, py * 2 + 2, window.data());
      for (int c = 0; c < ch; ++c) {
        float m = -1e30f;
        for (int i = 0; i < 4; ++i) {
          m = std::max(m, window[static_cast<std::size_t>(i * ch + c)]);
        }
        stage[(static_cast<std::size_t>(py) * ow + px) * ch +
              static_cast<std::size_t>(c)] = m;
      }
    }
  }
}

void MiniCnn::propagate_dirty(std::span<const std::uint8_t> in, int width,
                              int height, std::span<std::uint8_t> out) {
  if (width > kInputSide) {
    throw std::invalid_argument("MiniCnn::propagate_dirty: mask too wide");
  }
  const int ow = width / 2;
  const int oh = height / 2;
  // The footprint is separable: OR each output row's (clipped) input rows
  // column-wise, then OR each output pixel's (clipped) columns of that.
  std::array<std::uint8_t, kInputSide> cols;
  for (int py = 0; py < oh; ++py) {
    const int y0 = std::max(py * 2 - 1, 0);
    const int y1 = std::min(py * 2 + 2, height - 1);
    std::fill_n(cols.begin(), width, std::uint8_t{0});
    for (int y = y0; y <= y1; ++y) {
      const std::uint8_t* row = in.data() + static_cast<std::size_t>(y) * width;
      for (int x = 0; x < width; ++x) {
        cols[static_cast<std::size_t>(x)] |= row[x];
      }
    }
    for (int px = 0; px < ow; ++px) {
      const int x0 = std::max(px * 2 - 1, 0);
      const int x1 = std::min(px * 2 + 2, width - 1);
      std::uint8_t any = 0;
      for (int x = x0; x <= x1; ++x) any |= cols[static_cast<std::size_t>(x)];
      out[static_cast<std::size_t>(py) * ow + px] = any != 0 ? 1 : 0;
    }
  }
}

void MiniCnn::prepare_input(const Image& img, ForwardState& state) const {
  const Image* src = &img;
  Image scaled;
  if (img.width() != kInputSide || img.height() != kInputSide) {
    scaled = img.resized(kInputSide, kInputSide);
    src = &scaled;
  }
  // Expand grayscale to 3 channels.
  state.input.resize(static_cast<std::size_t>(kInputSide) * kInputSide * 3);
  for (int y = 0; y < kInputSide; ++y) {
    for (int x = 0; x < kInputSide; ++x) {
      for (int c = 0; c < 3; ++c) {
        state.input[(static_cast<std::size_t>(y) * kInputSide + x) * 3 +
                    static_cast<std::size_t>(c)] =
            src->at(x, y, std::min(c, src->channels() - 1));
      }
    }
  }
}

void MiniCnn::forward(ForwardState& state, int from_stage,
                      FeatureVec& out) const {
  const ForwardPlan& p = plan();
  if (from_stage < 0 || from_stage > 2) {
    throw std::invalid_argument("MiniCnn::forward: from_stage out of [0, 2]");
  }
  if (from_stage == 0) check_size(state.input, p.input, "input");
  if (from_stage == 1) check_size(state.stage1, p.stage1, "stage1");
  if (from_stage == 2) check_size(state.stage2, p.stage2, "stage2");
  if (from_stage < 1) {
    conv3x3_relu_into(state.input, p.input.width, p.input.height, conv1_,
                      state.conv1);
    maxpool2_into(state.conv1, p.input.width, p.input.height,
                  conv1_.out_channels, state.stage1);
  }
  if (from_stage < 2) {
    conv3x3_relu_into(state.stage1, p.stage1.width, p.stage1.height, conv2_,
                      state.conv2);
    maxpool2_into(state.conv2, p.stage1.width, p.stage1.height,
                  conv2_.out_channels, state.stage2);
  }
  conv3x3_relu_into(state.stage2, p.stage2.width, p.stage2.height, conv3_,
                    state.stage3);
  head(state, out);
}

void MiniCnn::embed_into(const Image& img, ForwardState& state,
                         FeatureVec& out) const {
  prepare_input(img, state);
  forward(state, /*from_stage=*/0, out);
}

MiniCnn::SpliceStats MiniCnn::forward_spliced(
    ForwardState& state, const Tensor& cached_stage1,
    const Tensor& cached_stage2, std::span<const std::uint8_t> stage1_mask,
    std::span<const std::uint8_t> stage2_mask, FeatureVec& out) const {
  const ForwardPlan& p = plan();
  check_size(state.input, p.input, "input");
  check_size(cached_stage1, p.stage1, "cached stage1");
  check_size(cached_stage2, p.stage2, "cached stage2");
  if (stage1_mask.size() !=
          static_cast<std::size_t>(p.stage1.width) * p.stage1.height ||
      stage2_mask.size() !=
          static_cast<std::size_t>(p.stage2.width) * p.stage2.height) {
    throw std::invalid_argument("MiniCnn::forward_spliced: bad mask size");
  }
  SpliceStats stats;
  const auto count = [](std::span<const std::uint8_t> mask) {
    int n = 0;
    for (const std::uint8_t v : mask) n += (v != 0);
    return n;
  };
  stats.stage1_recomputed = count(stage1_mask);
  // Splice: copy-assignment reuses the state tensors' capacity.
  state.stage1 = cached_stage1;
  state.stage2 = cached_stage2;
  if (stats.stage1_recomputed == 0) {
    // Every block cached and clean: resume straight at conv3.
    stats.resume_stage = 2;
  } else {
    stats.resume_stage = 1;
    stats.stage2_recomputed = count(stage2_mask);
    recompute_pooled(state.input, p.input.width, p.input.height, conv1_,
                     stage1_mask, state.stage1);
    recompute_pooled(state.stage1, p.stage1.width, p.stage1.height, conv2_,
                     stage2_mask, state.stage2);
  }
  conv3x3_relu_into(state.stage2, p.stage2.width, p.stage2.height, conv3_,
                    state.stage3);
  head(state, out);
  return stats;
}

void MiniCnn::head(ForwardState& state, FeatureVec& out) const {
  const ForwardPlan& p = plan();
  // Global average pool.
  state.pooled.assign(32, 0.0f);
  const int pixels = p.stage3.width * p.stage3.height;
  for (int px = 0; px < pixels; ++px) {
    for (int c = 0; c < 32; ++c) {
      state.pooled[static_cast<std::size_t>(c)] +=
          state.stage3[static_cast<std::size_t>(px) * 32 +
                       static_cast<std::size_t>(c)];
    }
  }
  for (float& v : state.pooled) v /= static_cast<float>(pixels);

  out.resize(dim_);
  for (std::size_t d = 0; d < dim_; ++d) {
    float acc = fc_bias_[d];
    for (std::size_t c = 0; c < 32; ++c) {
      acc += fc_weights_[d * 32 + c] * state.pooled[c];
    }
    out[d] = acc;
  }
  normalize(out);
}

FeatureVec MiniCnn::embed(const Image& img) const {
  ForwardState state;
  FeatureVec out;
  embed_into(img, state, out);
  return out;
}

namespace {

class CnnExtractor final : public FeatureExtractor {
 public:
  CnnExtractor(std::size_t dim, std::uint64_t seed, SimDuration latency)
      : cnn_(dim, seed), latency_(latency), name_("cnn-embed") {}

  const std::string& name() const noexcept override { return name_; }
  std::size_t dim() const noexcept override { return cnn_.dim(); }
  SimDuration latency() const noexcept override { return latency_; }
  float recommended_max_distance() const noexcept override { return 0.045f; }
  FeatureVec extract(const Image& img) const override {
    return cnn_.embed(img);
  }
  const MiniCnn* staged_cnn() const noexcept override { return &cnn_; }

 private:
  MiniCnn cnn_;
  SimDuration latency_;
  std::string name_;
};

}  // namespace

std::unique_ptr<FeatureExtractor> make_cnn_extractor(std::size_t dim,
                                                     std::uint64_t seed,
                                                     SimDuration latency) {
  return std::make_unique<CnnExtractor>(dim, seed, latency);
}

}  // namespace apx
