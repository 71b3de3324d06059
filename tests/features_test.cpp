// Unit + property tests for feature extraction. The key property, tested
// per extractor via TEST_P, is metric usefulness: same-class views must be
// closer in feature space than different-class views.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/features/extractor.hpp"
#include "src/features/minicnn.hpp"
#include "src/image/scene.hpp"
#include "src/util/vecmath.hpp"

namespace apx {
namespace {

SceneGenerator::Config scene_config() {
  SceneGenerator::Config cfg;
  cfg.num_classes = 8;
  cfg.image_size = 32;
  cfg.seed = 11;
  return cfg;
}

std::unique_ptr<FeatureExtractor> make_by_name(const std::string& name) {
  if (name == "downsample") return make_downsample_extractor();
  if (name == "histogram") return make_histogram_extractor();
  if (name == "hog") return make_hog_extractor();
  if (name == "cnn-embed") return make_cnn_extractor();
  return nullptr;
}

class ExtractorSuite : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<FeatureExtractor> extractor_ = make_by_name(GetParam());
  SceneGenerator scenes_{scene_config()};
};

TEST_P(ExtractorSuite, NameMatches) {
  EXPECT_EQ(extractor_->name(), GetParam());
}

TEST_P(ExtractorSuite, OutputHasDeclaredDim) {
  const Image img = scenes_.render(0, ViewParams{});
  EXPECT_EQ(extractor_->extract(img).size(), extractor_->dim());
}

TEST_P(ExtractorSuite, OutputIsUnitNorm) {
  const Image img = scenes_.render(1, ViewParams{});
  const FeatureVec v = extractor_->extract(img);
  EXPECT_NEAR(norm(v), 1.0f, 1e-4f);
}

TEST_P(ExtractorSuite, Deterministic) {
  const Image img = scenes_.render(2, ViewParams{});
  EXPECT_EQ(extractor_->extract(img), extractor_->extract(img));
}

TEST_P(ExtractorSuite, PositiveLatency) {
  EXPECT_GT(extractor_->latency(), 0);
}

TEST_P(ExtractorSuite, IntraClassCloserThanInterClass) {
  // Mean distance between views of the same class vs views of different
  // classes — the property that makes features usable as cache keys.
  Rng rng{5};
  float intra = 0.0f, inter = 0.0f;
  int intra_n = 0, inter_n = 0;
  for (int c = 0; c < 4; ++c) {
    ViewParams a, b;
    a.noise_sigma = b.noise_sigma = 0.02f;
    a.noise_seed = rng.next_u64();
    b.noise_seed = rng.next_u64();
    b.dx = 0.05f;
    const FeatureVec va = extractor_->extract(scenes_.render(c, a));
    const FeatureVec vb = extractor_->extract(scenes_.render(c, b));
    intra += l2(va, vb);
    ++intra_n;
    const FeatureVec vo =
        extractor_->extract(scenes_.render((c + 4) % 8, a));
    inter += l2(va, vo);
    ++inter_n;
  }
  EXPECT_LT(intra / static_cast<float>(intra_n),
            inter / static_cast<float>(inter_n));
}

TEST_P(ExtractorSuite, RobustToSensorNoise) {
  // Two noise realizations of the identical view stay close.
  ViewParams a, b;
  a.noise_sigma = b.noise_sigma = 0.03f;
  a.noise_seed = 1;
  b.noise_seed = 2;
  const FeatureVec va = extractor_->extract(scenes_.render(0, a));
  const FeatureVec vb = extractor_->extract(scenes_.render(0, b));
  EXPECT_LT(l2(va, vb), 0.35f);
}

INSTANTIATE_TEST_SUITE_P(AllExtractors, ExtractorSuite,
                         ::testing::Values("downsample", "histogram", "hog",
                                           "cnn-embed"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------- params

TEST(Extractors, DownsampleDimIsSideSquared) {
  EXPECT_EQ(make_downsample_extractor(6)->dim(), 36u);
}

TEST(Extractors, HistogramDimIsThreeTimesBins) {
  EXPECT_EQ(make_histogram_extractor(10)->dim(), 30u);
}

TEST(Extractors, HogDimIsCellsSquaredTimesOrientations) {
  EXPECT_EQ(make_hog_extractor(3, 6)->dim(), 54u);
}

TEST(Extractors, BadParamsThrow) {
  EXPECT_THROW(make_downsample_extractor(0), std::invalid_argument);
  EXPECT_THROW(make_histogram_extractor(-1), std::invalid_argument);
  EXPECT_THROW(make_hog_extractor(0, 8), std::invalid_argument);
}

TEST(Extractors, ConfiguredLatencyRespected) {
  EXPECT_EQ(make_downsample_extractor(8, 7 * kMillisecond)->latency(),
            7 * kMillisecond);
}

// ---------------------------------------------------------------- MiniCnn

TEST(MiniCnn, EmbeddingDimConfigurable) {
  const MiniCnn cnn{32, 5};
  EXPECT_EQ(cnn.dim(), 32u);
  const SceneGenerator scenes{scene_config()};
  EXPECT_EQ(cnn.embed(scenes.render(0, ViewParams{})).size(), 32u);
}

TEST(MiniCnn, ZeroDimThrows) { EXPECT_THROW(MiniCnn(0, 5), std::invalid_argument); }

TEST(MiniCnn, SameSeedSameWeights) {
  const SceneGenerator scenes{scene_config()};
  const Image img = scenes.render(3, ViewParams{});
  const MiniCnn a{64, 7}, b{64, 7};
  EXPECT_EQ(a.embed(img), b.embed(img));
}

TEST(MiniCnn, DifferentSeedDifferentEmbedding) {
  const SceneGenerator scenes{scene_config()};
  const Image img = scenes.render(3, ViewParams{});
  const MiniCnn a{64, 7}, b{64, 8};
  EXPECT_NE(a.embed(img), b.embed(img));
}

TEST(MiniCnn, HandlesGrayscaleInput) {
  auto cfg = scene_config();
  cfg.channels = 1;
  const SceneGenerator scenes{cfg};
  const MiniCnn cnn{64, 7};
  const FeatureVec v = cnn.embed(scenes.render(0, ViewParams{}));
  EXPECT_NEAR(norm(v), 1.0f, 1e-4f);
}

TEST(MiniCnn, HandlesNonSquareInput) {
  Image img(48, 24, 3);
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 48; ++x) img.at(x, y, 0) = 0.5f;
  }
  const MiniCnn cnn{64, 7};
  EXPECT_EQ(cnn.embed(img).size(), 64u);
}

TEST(MiniCnn, ParameterCountMatchesArchitecture) {
  const MiniCnn cnn{64, 7};
  // conv1: 8*3*9+8, conv2: 16*8*9+16, conv3: 32*16*9+32, fc: 64*32+64.
  const std::size_t expected = (8 * 3 * 9 + 8) + (16 * 8 * 9 + 16) +
                               (32 * 16 * 9 + 32) + (64 * 32 + 64);
  EXPECT_EQ(cnn.parameter_count(), expected);
}

// ------------------------------------------------- staged forward pass
//
// The staged path (ForwardState / forward / forward_spliced) must be
// bit-identical to the monolithic embed() — the region-reuse rung's whole
// correctness story rests on exact equality, not numerical closeness.

/// Marks every input pixel of block (bx, by) of a grid x grid partition of
/// a side x side mask.
void mark_block(std::vector<std::uint8_t>& mask, int side, int grid, int bx,
                int by) {
  const int bw = side / grid;
  for (int y = by * bw; y < (by + 1) * bw; ++y) {
    for (int x = bx * bw; x < (bx + 1) * bw; ++x) {
      mask[static_cast<std::size_t>(y) * side + x] = 1;
    }
  }
}

/// Perturbs every pixel of block (bx, by) of `img` (side divisible by grid).
void perturb_block(Image& img, int grid, int bx, int by) {
  const int bw = img.width() / grid;
  for (int y = by * bw; y < (by + 1) * bw; ++y) {
    for (int x = bx * bw; x < (bx + 1) * bw; ++x) {
      for (int c = 0; c < img.channels(); ++c) {
        img.at(x, y, c) = 1.0f - img.at(x, y, c);
      }
    }
  }
}

class MiniCnnStaged : public ::testing::Test {
 protected:
  /// Splices `current` against the cached activations of `keyframe`, with
  /// dirty masks propagated from `input_mask`, and checks bit-identity
  /// against a from-scratch embed of `current`.
  void expect_splice_matches_full(const Image& keyframe, const Image& current,
                                  const std::vector<std::uint8_t>& input_mask,
                                  int expected_resume_stage) {
    const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
    MiniCnn::ForwardState key_state;
    FeatureVec key_out;
    cnn_.embed_into(keyframe, key_state, key_out);
    const MiniCnn::Tensor cached_stage1 = key_state.stage1;
    const MiniCnn::Tensor cached_stage2 = key_state.stage2;

    std::vector<std::uint8_t> stage1_mask(plan.stage1.size() /
                                          plan.stage1.channels);
    std::vector<std::uint8_t> stage2_mask(plan.stage2.size() /
                                          plan.stage2.channels);
    MiniCnn::propagate_dirty(input_mask, plan.input.width, plan.input.height,
                             stage1_mask);
    MiniCnn::propagate_dirty(stage1_mask, plan.stage1.width, plan.stage1.height,
                             stage2_mask);

    MiniCnn::ForwardState state;
    cnn_.prepare_input(current, state);
    FeatureVec spliced;
    const MiniCnn::SpliceStats stats = cnn_.forward_spliced(
        state, cached_stage1, cached_stage2, stage1_mask, stage2_mask, spliced);
    EXPECT_EQ(stats.resume_stage, expected_resume_stage);

    EXPECT_EQ(spliced, cnn_.embed(current));
    // The state must also hold the complete activations of the current
    // frame — that is what gets installed back into the cache.
    MiniCnn::ForwardState full;
    FeatureVec full_out;
    cnn_.embed_into(current, full, full_out);
    EXPECT_EQ(state.stage1, full.stage1);
    EXPECT_EQ(state.stage2, full.stage2);
    EXPECT_EQ(state.stage3, full.stage3);
  }

  MiniCnn cnn_{64, 7};
  SceneGenerator scenes_{scene_config()};
};

TEST_F(MiniCnnStaged, PlanMatchesArchitecture) {
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  EXPECT_EQ(plan.input.width, 32);
  EXPECT_EQ(plan.input.channels, 3);
  EXPECT_EQ(plan.stage1.width, 16);
  EXPECT_EQ(plan.stage1.channels, 8);
  EXPECT_EQ(plan.stage2.width, 8);
  EXPECT_EQ(plan.stage2.channels, 16);
  EXPECT_EQ(plan.stage3.width, 8);
  EXPECT_EQ(plan.stage3.channels, 32);
  // MACs: out_w * out_h * out_c * 9 * in_c per conv.
  EXPECT_EQ(plan.conv_macs[0], 32.0 * 32 * 8 * 9 * 3);
  EXPECT_EQ(plan.conv_macs[1], 16.0 * 16 * 16 * 9 * 8);
  EXPECT_EQ(plan.conv_macs[2], 8.0 * 8 * 32 * 9 * 16);
  EXPECT_EQ(plan.total_macs(),
            plan.conv_macs[0] + plan.conv_macs[1] + plan.conv_macs[2]);
}

TEST_F(MiniCnnStaged, EmbedIntoMatchesEmbedAcrossInputShapes) {
  // Native 32x32, upscaled, non-square, and grayscale inputs all route
  // through prepare_input's resize/expansion.
  std::vector<Image> inputs;
  inputs.push_back(scenes_.render(0, ViewParams{}));
  auto big = scene_config();
  big.image_size = 48;
  inputs.push_back(SceneGenerator{big}.render(1, ViewParams{}));
  Image wide(48, 24, 3);
  Image gray(32, 32, 1);
  Rng rng{21};
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 48; ++x) {
      for (int c = 0; c < 3; ++c) {
        wide.at(x, y, c) = static_cast<float>(rng.uniform());
      }
    }
  }
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      gray.at(x, y, 0) = static_cast<float>(rng.uniform());
    }
  }
  inputs.push_back(std::move(wide));
  inputs.push_back(std::move(gray));

  MiniCnn::ForwardState state;  // deliberately reused across shapes
  FeatureVec out;
  for (const Image& img : inputs) {
    cnn_.embed_into(img, state, out);
    EXPECT_EQ(out, cnn_.embed(img));
  }
}

TEST_F(MiniCnnStaged, ForwardResumesBitIdenticallyFromEveryStage) {
  const Image img = scenes_.render(4, ViewParams{});
  MiniCnn::ForwardState state;
  FeatureVec reference;
  cnn_.embed_into(img, state, reference);
  for (int from_stage = 1; from_stage <= 2; ++from_stage) {
    // Clobber everything downstream of the resume point; forward() must
    // rebuild it from the surviving stage tensor alone.
    MiniCnn::ForwardState resumed;
    resumed.stage1 = state.stage1;
    if (from_stage == 2) resumed.stage2 = state.stage2;
    FeatureVec out;
    cnn_.forward(resumed, from_stage, out);
    EXPECT_EQ(out, reference) << "from_stage=" << from_stage;
  }
}

TEST_F(MiniCnnStaged, PrepareInputRejectsEmptyImage) {
  MiniCnn::ForwardState state;
  EXPECT_THROW(cnn_.prepare_input(Image{}, state), std::invalid_argument);
}

TEST_F(MiniCnnStaged, ForwardRejectsBadResume) {
  const Image img = scenes_.render(0, ViewParams{});
  MiniCnn::ForwardState state;
  FeatureVec out;
  EXPECT_THROW(cnn_.forward(state, 3, out), std::invalid_argument);
  EXPECT_THROW(cnn_.forward(state, -1, out), std::invalid_argument);
  // Resuming from a stage whose tensor was never produced must throw, not
  // read stale-sized memory.
  EXPECT_THROW(cnn_.forward(state, 1, out), std::invalid_argument);
  state.stage1.assign(MiniCnn::plan().stage1.size() - 1, 0.0f);
  EXPECT_THROW(cnn_.forward(state, 1, out), std::invalid_argument);
}

TEST_F(MiniCnnStaged, FullSpliceResumesAtConv3) {
  // Empty dirty masks: the embedding must be the *keyframe's*, recomputed
  // from its cached stage-2 tensor alone (degenerate full-splice case).
  const Image keyframe = scenes_.render(1, ViewParams{});
  const Image current = scenes_.render(5, ViewParams{});  // ignored pixels
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  MiniCnn::ForwardState key_state;
  FeatureVec key_out;
  cnn_.embed_into(keyframe, key_state, key_out);

  const std::vector<std::uint8_t> stage1_mask(
      plan.stage1.size() / plan.stage1.channels, 0);
  const std::vector<std::uint8_t> stage2_mask(
      plan.stage2.size() / plan.stage2.channels, 0);
  MiniCnn::ForwardState state;
  cnn_.prepare_input(current, state);
  FeatureVec out;
  const MiniCnn::SpliceStats stats = cnn_.forward_spliced(
      state, key_state.stage1, key_state.stage2, stage1_mask, stage2_mask, out);
  EXPECT_EQ(stats.resume_stage, 2);
  EXPECT_EQ(stats.stage1_recomputed, 0);
  EXPECT_EQ(stats.stage2_recomputed, 0);
  EXPECT_EQ(out, key_out);
  EXPECT_EQ(state.stage1, key_state.stage1);
  EXPECT_EQ(state.stage2, key_state.stage2);
}

TEST_F(MiniCnnStaged, ZeroSpliceMatchesFullForward) {
  // All-dirty masks: nothing is reused, so the result must be bit-identical
  // to a plain forward of the current frame even against an unrelated
  // keyframe (degenerate zero-splice case).
  const Image keyframe = scenes_.render(2, ViewParams{});
  const Image current = scenes_.render(6, ViewParams{});
  std::vector<std::uint8_t> input_mask(
      static_cast<std::size_t>(MiniCnn::kInputSide) * MiniCnn::kInputSide, 1);
  expect_splice_matches_full(keyframe, current, input_mask,
                             /*expected_resume_stage=*/1);
}

TEST_F(MiniCnnStaged, PartialSpliceIsBitIdenticalForEveryBlock) {
  // Flip one block at a time (every position in a 4x4 grid, interior and
  // border) and splice the rest from the keyframe's cached activations.
  const int grid = 4;
  const Image keyframe = scenes_.render(3, ViewParams{});
  for (int by = 0; by < grid; ++by) {
    for (int bx = 0; bx < grid; ++bx) {
      Image current = keyframe;
      perturb_block(current, grid, bx, by);
      std::vector<std::uint8_t> input_mask(
          static_cast<std::size_t>(MiniCnn::kInputSide) * MiniCnn::kInputSide,
          0);
      mark_block(input_mask, MiniCnn::kInputSide, grid, bx, by);
      SCOPED_TRACE("block (" + std::to_string(bx) + "," + std::to_string(by) +
                   ")");
      expect_splice_matches_full(keyframe, current, input_mask,
                                 /*expected_resume_stage=*/1);
    }
  }
}

TEST_F(MiniCnnStaged, PartialSpliceHandlesMultipleScatteredBlocks) {
  const int grid = 8;  // finest legal grid: one block = one stage-2 pixel
  const Image keyframe = scenes_.render(7, ViewParams{});
  Image current = keyframe;
  std::vector<std::uint8_t> input_mask(
      static_cast<std::size_t>(MiniCnn::kInputSide) * MiniCnn::kInputSide, 0);
  const std::vector<std::pair<int, int>> blocks{{0, 0}, {7, 7}, {3, 4}, {5, 1}};
  for (const auto& [bx, by] : blocks) {
    perturb_block(current, grid, bx, by);
    mark_block(input_mask, MiniCnn::kInputSide, grid, bx, by);
  }
  expect_splice_matches_full(keyframe, current, input_mask,
                             /*expected_resume_stage=*/1);
}

TEST_F(MiniCnnStaged, SpliceRejectsBadTensorSizes) {
  const MiniCnn::ForwardPlan& plan = MiniCnn::plan();
  MiniCnn::ForwardState state;
  cnn_.prepare_input(scenes_.render(0, ViewParams{}), state);
  const MiniCnn::Tensor stage1(plan.stage1.size(), 0.0f);
  const MiniCnn::Tensor stage2(plan.stage2.size(), 0.0f);
  const std::vector<std::uint8_t> mask1(plan.stage1.size() /
                                        plan.stage1.channels);
  const std::vector<std::uint8_t> mask2(plan.stage2.size() /
                                        plan.stage2.channels);
  FeatureVec out;
  const MiniCnn::Tensor short_tensor(3, 0.0f);
  const std::vector<std::uint8_t> short_mask(3);
  EXPECT_THROW(
      cnn_.forward_spliced(state, short_tensor, stage2, mask1, mask2, out),
      std::invalid_argument);
  EXPECT_THROW(
      cnn_.forward_spliced(state, stage1, short_tensor, mask1, mask2, out),
      std::invalid_argument);
  EXPECT_THROW(
      cnn_.forward_spliced(state, stage1, stage2, short_mask, mask2, out),
      std::invalid_argument);
  EXPECT_THROW(
      cnn_.forward_spliced(state, stage1, stage2, mask1, short_mask, out),
      std::invalid_argument);
}

TEST(MiniCnnDirty, PropagateDirtyAppliesConvPoolFootprint) {
  // A single dirty input pixel at (x, y) dirties output pixel (px, py) iff
  // the 4x4 footprint [2px-1, 2px+2] x [2py-1, 2py+2] contains it.
  const int w = 8, h = 8;
  std::vector<std::uint8_t> in(static_cast<std::size_t>(w) * h, 0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(w / 2) * (h / 2), 0);
  in[static_cast<std::size_t>(5) * w + 5] = 1;  // (5, 5)
  MiniCnn::propagate_dirty(in, w, h, out);
  for (int py = 0; py < h / 2; ++py) {
    for (int px = 0; px < w / 2; ++px) {
      const bool covers_x = (2 * px - 1 <= 5) && (5 <= 2 * px + 2);
      const bool covers_y = (2 * py - 1 <= 5) && (5 <= 2 * py + 2);
      EXPECT_EQ(out[static_cast<std::size_t>(py) * (w / 2) + px] != 0,
                covers_x && covers_y)
          << "px=" << px << " py=" << py;
    }
  }
}

TEST(MiniCnnDirty, PropagateDirtyCornerPixelStaysLocal) {
  // Clamp padding reads no farther than the clipped footprint: a dirty
  // corner pixel dirties exactly the corner output pixel.
  const int w = 8, h = 8;
  std::vector<std::uint8_t> in(static_cast<std::size_t>(w) * h, 0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(w / 2) * (h / 2), 9);
  in[0] = 1;  // (0, 0)
  MiniCnn::propagate_dirty(in, w, h, out);
  int set = 0;
  for (const std::uint8_t v : out) set += (v != 0);
  EXPECT_EQ(set, 1);
  EXPECT_NE(out[0], 0);
}

TEST(MiniCnnDirty, RandomMasksMatchTheFootprintDefinition) {
  Rng rng{77};
  for (const int side : {32, 16, 8, 4}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> in(static_cast<std::size_t>(side) * side);
      const double density = 0.02 * trial;
      for (std::uint8_t& v : in) v = rng.uniform() < density ? 1 : 0;
      const int os = side / 2;
      std::vector<std::uint8_t> out(static_cast<std::size_t>(os) * os, 9);
      MiniCnn::propagate_dirty(in, side, side, out);
      for (int py = 0; py < os; ++py) {
        for (int px = 0; px < os; ++px) {
          bool want = false;
          for (int y = std::max(2 * py - 1, 0);
               y <= std::min(2 * py + 2, side - 1); ++y) {
            for (int x = std::max(2 * px - 1, 0);
                 x <= std::min(2 * px + 2, side - 1); ++x) {
              want = want || in[static_cast<std::size_t>(y) * side + x] != 0;
            }
          }
          ASSERT_EQ(out[static_cast<std::size_t>(py) * os + px],
                    want ? 1 : 0)
              << "side " << side << " trial " << trial << " (" << px << ", "
              << py << ")";
        }
      }
    }
  }
}

TEST(MiniCnnDirty, RejectsMasksWiderThanTheInput) {
  const int w = MiniCnn::kInputSide * 2;
  const std::vector<std::uint8_t> in(static_cast<std::size_t>(w) * 2, 0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(w / 2), 0);
  EXPECT_THROW(MiniCnn::propagate_dirty(in, w, 2, out),
               std::invalid_argument);
}

TEST(MiniCnnDirty, CleanMaskStaysClean) {
  const int w = 32, h = 32;
  const std::vector<std::uint8_t> in(static_cast<std::size_t>(w) * h, 0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(w / 2) * (h / 2), 9);
  MiniCnn::propagate_dirty(in, w, h, out);
  for (const std::uint8_t v : out) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace apx
