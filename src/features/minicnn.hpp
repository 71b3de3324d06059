#pragma once
// From-scratch convolutional embedding network with fixed random weights.
//
// This plays the role of the "feature layer of a mobile DNN" that
// FoggyCache-style systems tap for cache keys. Random convolutional
// features are a well-studied stand-in (random-weight CNNs preserve
// metric structure well enough for retrieval), and fixed seeded weights
// keep the whole reproduction deterministic with no model files.
//
// Architecture (input resized to 32x32x3):
//   conv3x3(3 -> 8) + ReLU + maxpool2      -> 16x16x8   (stage 1)
//   conv3x3(8 -> 16) + ReLU + maxpool2     -> 8x8x16    (stage 2)
//   conv3x3(16 -> 32) + ReLU               -> 8x8x32    (stage 3)
//   global average pool                    -> 32
//   fully connected (32 -> dim), L2 norm   -> dim
//
// The forward pass is staged (DESIGN.md §11): a ForwardState materializes
// the per-stage activation tensors, and the pass can resume from any stage
// with spliced activations — the seam the region-reuse rung uses to skip
// conv work for unchanged image blocks. embed() is a thin wrapper over the
// same staged path, so the monolithic and staged results are the same
// code, not merely equal. Every conv — the full pass and the spliced
// recomputation alike — runs the one kernel in conv3x3.hpp.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/features/conv3x3.hpp"
#include "src/image/image.hpp"
#include "src/util/vecmath.hpp"

namespace apx {

/// Deterministic random-weight CNN used as an embedding function.
class MiniCnn {
 public:
  /// Every input is resized to this square side before the forward pass.
  static constexpr int kInputSide = 32;

  using Tensor = std::vector<float>;  // HWC layout

  /// Dimensions of one activation tensor.
  struct StageShape {
    int width = 0;
    int height = 0;
    int channels = 0;
    std::size_t size() const noexcept {
      return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
             static_cast<std::size_t>(channels);
    }
  };

  /// Static description of the staged forward pass: the tensor shapes a
  /// ForwardState materializes plus each conv stage's multiply-accumulate
  /// count (the honest relative-cost model for partial recomputation).
  struct ForwardPlan {
    StageShape input;   ///< 32x32x3 (post resize/channel expansion)
    StageShape stage1;  ///< post conv1 + pool
    StageShape stage2;  ///< post conv2 + pool
    StageShape stage3;  ///< post conv3 (no pool)
    std::array<double, 3> conv_macs{};  ///< full-resolution MACs per conv
    double total_macs() const noexcept {
      return conv_macs[0] + conv_macs[1] + conv_macs[2];
    }
  };

  /// The plan is a property of the architecture, not of any instance.
  static const ForwardPlan& plan() noexcept;

  /// Reusable scratch for the staged forward pass. All tensors keep their
  /// capacity across frames, so a warmed state runs with zero steady-state
  /// allocations (the PR 1 hot-path discipline).
  struct ForwardState {
    Tensor input;   ///< 32x32x3
    Tensor conv1;   ///< 32x32x8, pre-pool
    Tensor conv2;   ///< 16x16x16, pre-pool
    Tensor stage1;  ///< 16x16x8
    Tensor stage2;  ///< 8x8x16
    Tensor stage3;  ///< 8x8x32
    std::vector<float> pooled;  ///< 32 (global average pool)
  };

  /// What forward_spliced actually recomputed.
  struct SpliceStats {
    int stage1_recomputed = 0;  ///< stage-1 pooled pixels recomputed
    int stage2_recomputed = 0;  ///< stage-2 pooled pixels recomputed
    /// Deepest stage fully satisfied from the cache: 2 when nothing was
    /// dirty (resumed at conv3), 1 when stage-1/2 tiles were partially
    /// recomputed. A full recompute (every pixel dirty) still reports 1 —
    /// depth 0 is the non-spliced forward() path.
    int resume_stage = 0;
  };

  /// `dim` is the embedding size; `seed` fixes the weights.
  explicit MiniCnn(std::size_t dim = 64, std::uint64_t seed = 7);

  /// Embeds `img` (any size; resized internally) into a unit-norm vector.
  FeatureVec embed(const Image& img) const;

  // ------------------------------------------------------- staged forward

  /// Resizes `img` to kInputSide and expands grayscale into state.input.
  void prepare_input(const Image& img, ForwardState& state) const;

  /// Runs the forward pass from `from_stage` (0 = from the input, 1 = the
  /// state's stage1 tensor is valid, 2 = stage2 is valid) plus the head,
  /// leaving every later activation tensor and the embedding in place.
  /// Throws std::invalid_argument when the resumed-from tensor has the
  /// wrong size or from_stage is out of [0, 2].
  void forward(ForwardState& state, int from_stage, FeatureVec& out) const;

  /// prepare_input + forward(0): the staged equivalent of embed(), writing
  /// into caller-owned scratch (zero steady-state allocations when warm).
  void embed_into(const Image& img, ForwardState& state, FeatureVec& out) const;

  /// Splices cached stage-1/stage-2 activations and recomputes only the
  /// pooled pixels flagged dirty: `stage1_mask` (16x16) and `stage2_mask`
  /// (8x8) come from propagate_dirty over the changed input pixels. With an
  /// empty stage-1 mask the pass resumes at conv3 from the cached stage-2
  /// tensor. state.input must hold the current frame (prepare_input). The
  /// recomputation runs the full pass's conv kernel on the dirty pixels, so
  /// the result is bit-identical to forward(state, 0, ...) whenever every
  /// pixel that actually differs from the cached frame is flagged.
  /// On return state.stage1/stage2/stage3 hold the complete (spliced +
  /// recomputed) activations of the current frame.
  SpliceStats forward_spliced(ForwardState& state, const Tensor& cached_stage1,
                              const Tensor& cached_stage2,
                              std::span<const std::uint8_t> stage1_mask,
                              std::span<const std::uint8_t> stage2_mask,
                              FeatureVec& out) const;

  /// Propagates a dirty mask through one conv3x3 + maxpool2 stage: output
  /// pixel (px, py) is dirty when any input pixel in the 4x4 footprint
  /// [2px-1, 2px+2] x [2py-1, 2py+2] (the 2x2 pool window dilated by the
  /// conv's 1-pixel halo, clipped to the image — clamp padding reads no
  /// farther) is dirty. `in` is width x height, `out` (width/2) x (height/2).
  /// Throws std::invalid_argument when width exceeds kInputSide.
  static void propagate_dirty(std::span<const std::uint8_t> in, int width,
                              int height, std::span<std::uint8_t> out);

  std::size_t dim() const noexcept { return dim_; }

  /// Number of scalar weights (for reporting / sanity tests).
  std::size_t parameter_count() const noexcept;

 private:
  struct ConvLayer {
    int in_channels = 0;
    int out_channels = 0;
    std::vector<float> weights;  // tap-major: [3][3][in][out]
    std::vector<float> bias;     // [out]
    Conv3x3Weights operands() const noexcept;
  };

  static void conv3x3_relu_into(const Tensor& in, int width, int height,
                                const ConvLayer& layer, Tensor& out);
  static void maxpool2_into(const Tensor& in, int width, int height,
                            int channels, Tensor& out);
  /// Recomputes the flagged pooled pixels of a conv+pool stage in place.
  static void recompute_pooled(const Tensor& in, int in_width, int in_height,
                               const ConvLayer& layer,
                               std::span<const std::uint8_t> mask,
                               Tensor& stage);
  /// Global average pool + FC + L2 normalization over state.stage3.
  void head(ForwardState& state, FeatureVec& out) const;

  std::size_t dim_;
  ConvLayer conv1_, conv2_, conv3_;
  std::vector<float> fc_weights_;  // [dim][32]
  std::vector<float> fc_bias_;     // [dim]
};

}  // namespace apx
