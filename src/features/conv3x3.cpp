#include "src/features/conv3x3.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#define APX_CONV_X86_DISPATCH 1
#include <immintrin.h>
#else
#define APX_CONV_X86_DISPATCH 0
#endif

namespace apx {
namespace {

// Portable body: output channels innermost, so GCC vectorizes the oc loop
// at the baseline ISA. Builds carry no FMA-contraction flags, so each
// `acc += v * w` stays a multiply then an add.
template <int kOut>
void rect_portable(const Conv3x3Weights& layer, const float* in, int width,
                   int height, int x0, int y0, int x1, int y1, float* out) {
  const int in_ch = layer.in_channels;
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x, out += kOut) {
      float acc[kOut];
      for (int oc = 0; oc < kOut; ++oc) acc[oc] = layer.bias[oc];
      const float* w = layer.weights;
      for (int ky = -1; ky <= 1; ++ky) {
        const int sy = std::clamp(y + ky, 0, height - 1);
        for (int kx = -1; kx <= 1; ++kx) {
          const int sx = std::clamp(x + kx, 0, width - 1);
          const float* px =
              in + (static_cast<std::size_t>(sy) * width + sx) * in_ch;
          for (int ic = 0; ic < in_ch; ++ic, w += kOut) {
            const float v = px[ic];
            for (int oc = 0; oc < kOut; ++oc) acc[oc] += v * w[oc];
          }
        }
      }
      for (int oc = 0; oc < kOut; ++oc) out[oc] = std::max(acc[oc], 0.0f);
    }
  }
}

#if APX_CONV_X86_DISPATCH

// AVX2 body: one 8-lane accumulator per 8 output channels. The target is
// "avx2" alone on purpose — with "fma" in it GCC would contract the
// mul/add pair into one rounding and the bits would no longer match the
// portable body. _mm256_max_ps(0, acc) returns acc when acc is NaN, like
// std::max(acc, 0.0f).
template <int kVecs>
__attribute__((target("avx2"))) void rect_avx2(const Conv3x3Weights& layer,
                                               const float* in, int width,
                                               int height, int x0, int y0,
                                               int x1, int y1, float* out) {
  constexpr int kOut = kVecs * 8;
  const int in_ch = layer.in_channels;
  const __m256 zero = _mm256_setzero_ps();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x, out += kOut) {
      __m256 acc[kVecs];
      for (int v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_loadu_ps(layer.bias + v * 8);
      }
      const float* w = layer.weights;
      for (int ky = -1; ky <= 1; ++ky) {
        const int sy = std::clamp(y + ky, 0, height - 1);
        for (int kx = -1; kx <= 1; ++kx) {
          const int sx = std::clamp(x + kx, 0, width - 1);
          const float* px =
              in + (static_cast<std::size_t>(sy) * width + sx) * in_ch;
          for (int ic = 0; ic < in_ch; ++ic, w += kOut) {
            const __m256 b = _mm256_set1_ps(px[ic]);
            for (int v = 0; v < kVecs; ++v) {
              const __m256 prod = _mm256_mul_ps(b, _mm256_loadu_ps(w + v * 8));
              acc[v] = _mm256_add_ps(acc[v], prod);
            }
          }
        }
      }
      for (int v = 0; v < kVecs; ++v) {
        _mm256_storeu_ps(out + v * 8, _mm256_max_ps(zero, acc[v]));
      }
    }
  }
}

bool cpu_has_avx2() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

#endif  // APX_CONV_X86_DISPATCH

}  // namespace

bool conv_body_supported(ConvBody body) noexcept {
  if (body == ConvBody::kPortable) return true;
#if APX_CONV_X86_DISPATCH
  static const bool kAvx2 = cpu_has_avx2();
  return kAvx2;
#else
  return false;
#endif
}

ConvBody best_conv_body() noexcept {
  return conv_body_supported(ConvBody::kAvx2) ? ConvBody::kAvx2
                                              : ConvBody::kPortable;
}

void conv3x3_relu(const Conv3x3Weights& layer, const float* in, int width,
                  int height, int x0, int y0, int x1, int y1, float* out,
                  ConvBody body) {
  if (!conv_body_supported(body)) {
    throw std::invalid_argument("conv3x3_relu: body not supported here");
  }
#if APX_CONV_X86_DISPATCH
  if (body == ConvBody::kAvx2) {
    switch (layer.out_channels) {
      case 8:
        return rect_avx2<1>(layer, in, width, height, x0, y0, x1, y1, out);
      case 16:
        return rect_avx2<2>(layer, in, width, height, x0, y0, x1, y1, out);
      case 32:
        return rect_avx2<4>(layer, in, width, height, x0, y0, x1, y1, out);
      default:
        break;
    }
  }
#endif
  switch (layer.out_channels) {
    case 8:
      return rect_portable<8>(layer, in, width, height, x0, y0, x1, y1, out);
    case 16:
      return rect_portable<16>(layer, in, width, height, x0, y0, x1, y1, out);
    case 32:
      return rect_portable<32>(layer, in, width, height, x0, y0, x1, y1, out);
    default:
      throw std::invalid_argument(
          "conv3x3_relu: out_channels must be 8, 16 or 32");
  }
}

}  // namespace apx
