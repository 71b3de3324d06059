// Parity of the tap-major conv3x3 kernel (src/features/conv3x3.hpp) with
// the conv loop MiniCnn used before it: weights [oc][ic][ky][kx], output
// channel outermost, each scalar accumulated bias first then (ky, kx, ic).
// Embeddings stay bit-identical only if every body reproduces that loop's
// bits exactly, so outputs are compared with memcmp, never a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/features/conv3x3.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

struct LayerShape {
  int width;
  int height;
  int in_channels;
  int out_channels;
};

// MiniCnn's three conv layers.
constexpr LayerShape kShapes[] = {
    {32, 32, 3, 8},
    {16, 16, 8, 16},
    {8, 8, 16, 32},
};

/// The pre-kernel conv loop, kept verbatim as the reference: weights are
/// [oc][ic][ky][kx] and the output channel is the outermost loop.
std::vector<float> reference_conv(const std::vector<float>& in, int width,
                                  int height, int in_ch, int out_ch,
                                  const std::vector<float>& weights,
                                  const std::vector<float>& bias) {
  std::vector<float> out(static_cast<std::size_t>(width) * height * out_ch);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      for (int oc = 0; oc < out_ch; ++oc) {
        float acc = bias[static_cast<std::size_t>(oc)];
        for (int ky = -1; ky <= 1; ++ky) {
          const int sy = std::clamp(y + ky, 0, height - 1);
          for (int kx = -1; kx <= 1; ++kx) {
            const int sx = std::clamp(x + kx, 0, width - 1);
            const std::size_t in_base =
                (static_cast<std::size_t>(sy) * width + sx) * in_ch;
            const std::size_t w_base =
                ((static_cast<std::size_t>(oc) * in_ch) * 9) +
                static_cast<std::size_t>((ky + 1) * 3 + (kx + 1));
            for (int ic = 0; ic < in_ch; ++ic) {
              acc += in[in_base + static_cast<std::size_t>(ic)] *
                     weights[w_base + static_cast<std::size_t>(ic) * 9];
            }
          }
        }
        out[(static_cast<std::size_t>(y) * width + x) * out_ch +
            static_cast<std::size_t>(oc)] = std::max(acc, 0.0f);
      }
    }
  }
  return out;
}

/// Inputs that exercise rounding: exact zeros, negatives, and magnitudes
/// from 1e-3 to 1e4 (finite sums throughout).
float awkward_value(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.15) return 0.0f;
  const float sign = rng.uniform() < 0.5 ? -1.0f : 1.0f;
  if (u < 0.3) return sign * static_cast<float>(1e3 + 9e3 * rng.uniform());
  if (u < 0.45) return sign * static_cast<float>(1e-3 * rng.uniform());
  return sign * static_cast<float>(rng.uniform());
}

struct LayerData {
  std::vector<float> in;
  std::vector<float> weights_oc_major;  // [oc][ic][ky][kx]
  std::vector<float> weights_tap_major;  // [ky][kx][ic][oc]
  std::vector<float> bias;
  std::vector<float> expected;

  Conv3x3Weights operands(const LayerShape& s) const {
    return {weights_tap_major.data(), bias.data(), s.in_channels,
            s.out_channels};
  }
};

LayerData make_layer(const LayerShape& s, std::uint64_t seed) {
  Rng rng{seed};
  LayerData d;
  d.in.resize(static_cast<std::size_t>(s.width) * s.height * s.in_channels);
  for (float& v : d.in) v = awkward_value(rng);
  const std::size_t n_weights =
      static_cast<std::size_t>(s.out_channels) * s.in_channels * 9;
  d.weights_oc_major.resize(n_weights);
  for (float& w : d.weights_oc_major) {
    w = static_cast<float>(rng.normal(0.0, 0.5));
  }
  d.weights_tap_major.resize(n_weights);
  for (int oc = 0; oc < s.out_channels; ++oc) {
    for (int ic = 0; ic < s.in_channels; ++ic) {
      for (int tap = 0; tap < 9; ++tap) {
        d.weights_tap_major[(static_cast<std::size_t>(tap) * s.in_channels +
                             ic) * s.out_channels + oc] =
            d.weights_oc_major[(static_cast<std::size_t>(oc) * s.in_channels +
                                ic) * 9 + tap];
      }
    }
  }
  // A nonzero bias pins "bias first" in the accumulation order.
  d.bias.resize(static_cast<std::size_t>(s.out_channels));
  for (float& b : d.bias) b = awkward_value(rng);
  d.expected = reference_conv(d.in, s.width, s.height, s.in_channels,
                              s.out_channels, d.weights_oc_major, d.bias);
  return d;
}

class ConvKernelParity : public ::testing::TestWithParam<ConvBody> {
 protected:
  void SetUp() override {
    if (!conv_body_supported(GetParam())) {
      GTEST_SKIP() << "this host cannot run the body under test";
    }
  }
};

TEST_P(ConvKernelParity, WholeImageMatchesReferenceBitForBit) {
  for (const LayerShape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.in_channels) + "->" +
                 std::to_string(s.out_channels));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const LayerData d = make_layer(s, seed);
      std::vector<float> out(d.expected.size(), -1.0f);
      conv3x3_relu(d.operands(s), d.in.data(), s.width, s.height, 0, 0,
                   s.width, s.height, out.data(), GetParam());
      ASSERT_EQ(std::memcmp(out.data(), d.expected.data(),
                            out.size() * sizeof(float)),
                0)
          << "seed " << seed;
    }
  }
}

TEST_P(ConvKernelParity, EveryBorderPixelMatchesReferenceBitForBit) {
  for (const LayerShape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.in_channels) + "->" +
                 std::to_string(s.out_channels));
    const LayerData d = make_layer(s, 11);
    std::vector<float> out(static_cast<std::size_t>(s.out_channels));
    for (int y = 0; y < s.height; ++y) {
      for (int x = 0; x < s.width; ++x) {
        if (x != 0 && y != 0 && x != s.width - 1 && y != s.height - 1) {
          continue;
        }
        conv3x3_relu(d.operands(s), d.in.data(), s.width, s.height, x, y,
                     x + 1, y + 1, out.data(), GetParam());
        const float* want =
            d.expected.data() +
            (static_cast<std::size_t>(y) * s.width + x) * s.out_channels;
        ASSERT_EQ(std::memcmp(out.data(), want, out.size() * sizeof(float)),
                  0)
            << "pixel (" << x << ", " << y << ")";
      }
    }
  }
}

TEST_P(ConvKernelParity, PoolWindowsMatchReferenceBitForBit) {
  // The region-splice path computes one 2x2 pool window per call.
  for (const LayerShape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.in_channels) + "->" +
                 std::to_string(s.out_channels));
    const LayerData d = make_layer(s, 23);
    const std::size_t oc = static_cast<std::size_t>(s.out_channels);
    std::vector<float> window(4 * oc);
    for (int y = 0; y < s.height; y += 2) {
      for (int x = 0; x < s.width; x += 2) {
        conv3x3_relu(d.operands(s), d.in.data(), s.width, s.height, x, y,
                     x + 2, y + 2, window.data(), GetParam());
        for (int i = 0; i < 4; ++i) {
          const float* want =
              d.expected.data() +
              (static_cast<std::size_t>(y + i / 2) * s.width + x + i % 2) *
                  oc;
          ASSERT_EQ(std::memcmp(window.data() + i * oc, want,
                                oc * sizeof(float)),
                    0)
              << "window (" << x << ", " << y << ") pixel " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bodies, ConvKernelParity,
                         ::testing::Values(ConvBody::kPortable,
                                           ConvBody::kAvx2),
                         [](const ::testing::TestParamInfo<ConvBody>& info) {
                           return info.param == ConvBody::kPortable
                                      ? std::string("Portable")
                                      : std::string("Avx2");
                         });

TEST(ConvKernel, RejectsUnsupportedChannelCounts) {
  const std::vector<float> in(4 * 4 * 3, 0.5f);
  const std::vector<float> weights(9 * 3 * 12, 0.1f);
  const std::vector<float> bias(12, 0.0f);
  std::vector<float> out(4 * 4 * 12);
  const Conv3x3Weights layer{weights.data(), bias.data(), 3, 12};
  EXPECT_THROW(conv3x3_relu(layer, in.data(), 4, 4, 0, 0, 4, 4, out.data(),
                            ConvBody::kPortable),
               std::invalid_argument);
}

TEST(ConvKernel, BestBodyIsSupported) {
  EXPECT_TRUE(conv_body_supported(ConvBody::kPortable));
  EXPECT_TRUE(conv_body_supported(best_conv_body()));
}

}  // namespace
}  // namespace apx
