#pragma once
// The 3x3 convolution + ReLU kernel behind MiniCnn's full and spliced
// forward passes (DESIGN.md §11).
//
// One call computes every output channel of each output pixel in a
// rectangle. Weights are stored tap-major, [ky][kx][ic][oc], so the
// out_channels weights that one (tap, input channel) pair feeds are
// contiguous and the inner loop runs across output channels. Each output
// scalar still accumulates in one fixed order — bias first, then
// (ky, kx, ic) — so every body, and every rectangle a pixel is computed
// in, produces the same bits.

namespace apx {

/// Read-only operands of one conv3x3 layer.
struct Conv3x3Weights {
  /// 9 * in_channels * out_channels floats, [ky][kx][ic][oc].
  const float* weights = nullptr;
  const float* bias = nullptr;  ///< out_channels floats
  int in_channels = 0;
  int out_channels = 0;  ///< 8, 16 or 32
};

/// Which implementation runs the kernel. kAvx2 multiplies and adds in
/// separate instructions (never fused), so it matches kPortable bit for bit.
enum class ConvBody { kPortable, kAvx2 };

/// True when this host can run `body` (kAvx2 needs an x86-64 CPU with AVX2).
bool conv_body_supported(ConvBody body) noexcept;

/// The fastest body this host supports.
ConvBody best_conv_body() noexcept;

/// conv3x3 + ReLU over the output pixels [x0, x1) x [y0, y1) of the
/// width x height HWC tensor `in` (clamp padding at the borders). Pixel
/// (x, y) is written to out + ((y - y0) * (x1 - x0) + (x - x0)) *
/// out_channels, so the whole image lands in HWC order and a 2x2 window
/// in a packed 4 x out_channels block. Throws std::invalid_argument for an
/// unsupported out_channels or a body this host cannot run.
void conv3x3_relu(const Conv3x3Weights& layer, const float* in, int width,
                  int height, int x0, int y0, int x1, int y1, float* out,
                  ConvBody body = best_conv_body());

}  // namespace apx
