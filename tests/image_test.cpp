// Unit tests for the image type and the synthetic scene generator,
// including the two generative properties the cache depends on (intra-class
// similarity, inter-class separation).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/image/diff.hpp"
#include "src/image/image.hpp"
#include "src/image/scene.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

// ---------------------------------------------------------------- Image

TEST(Image, ConstructorZeroes) {
  Image img(4, 3, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  for (float v : img.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Image, BadDimensionsThrow) {
  EXPECT_THROW(Image(0, 4, 3), std::invalid_argument);
  EXPECT_THROW(Image(4, -1, 3), std::invalid_argument);
  EXPECT_THROW(Image(4, 4, 2), std::invalid_argument);
}

TEST(Image, AtReadsWhatWasWritten) {
  Image img(2, 2, 3);
  img.at(1, 0, 2) = 0.75f;
  EXPECT_EQ(img.at(1, 0, 2), 0.75f);
  EXPECT_EQ(img.at(0, 0, 0), 0.0f);
}

TEST(Image, ClampBoundsValues) {
  Image img(1, 1, 1);
  img.at(0, 0, 0) = 2.5f;
  img.clamp();
  EXPECT_EQ(img.at(0, 0, 0), 1.0f);
  img.at(0, 0, 0) = -1.0f;
  img.clamp();
  EXPECT_EQ(img.at(0, 0, 0), 0.0f);
}

TEST(Image, ToGrayUsesLumaWeights) {
  Image img(1, 1, 3);
  img.at(0, 0, 0) = 1.0f;  // pure red
  const Image gray = img.to_gray();
  EXPECT_EQ(gray.channels(), 1);
  EXPECT_NEAR(gray.at(0, 0, 0), 0.299f, 1e-6f);
}

TEST(Image, ToGrayOnGrayIsCopy) {
  Image img(2, 2, 1);
  img.at(1, 1, 0) = 0.5f;
  const Image gray = img.to_gray();
  EXPECT_EQ(gray.at(1, 1, 0), 0.5f);
}

TEST(Image, ResizePreservesConstantImage) {
  Image img(8, 8, 3);
  for (float& v : img.data()) v = 0.42f;
  const Image small = img.resized(3, 5);
  EXPECT_EQ(small.width(), 3);
  EXPECT_EQ(small.height(), 5);
  for (float v : small.data()) EXPECT_NEAR(v, 0.42f, 1e-6f);
}

TEST(Image, ResizeIdentityKeepsPixels) {
  Image img(4, 4, 1);
  img.at(2, 1, 0) = 0.9f;
  const Image same = img.resized(4, 4);
  EXPECT_NEAR(same.at(2, 1, 0), 0.9f, 1e-6f);
}

TEST(Image, ResizeBadDimensionsThrow) {
  Image img(4, 4, 1);
  EXPECT_THROW(img.resized(0, 4), std::invalid_argument);
}

// These checks throw instead of asserting, so they hold in release builds
// too: an empty image would otherwise index out of bounds.
TEST(Image, ToGrayOnEmptyImageThrows) {
  EXPECT_THROW(Image{}.to_gray(), std::invalid_argument);
}

TEST(Image, ResizeEmptyImageThrows) {
  EXPECT_THROW(Image{}.resized(4, 4), std::invalid_argument);
}

TEST(Image, MeanAbsDiffShapeMismatchThrows) {
  const Image a(4, 4, 1);
  // A smaller `other` would be read past its end, a larger one in part.
  EXPECT_THROW((void)a.mean_abs_diff(Image(4, 3, 1)), std::invalid_argument);
  EXPECT_THROW((void)a.mean_abs_diff(Image(4, 4, 3)), std::invalid_argument);
  EXPECT_EQ(a.mean_abs_diff(Image(4, 4, 1)), 0.0f);
}

TEST(Image, UpscaleInterpolatesBetweenPixels) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = 0.0f;
  img.at(1, 0, 0) = 1.0f;
  const Image big = img.resized(4, 1);
  // Monotone nondecreasing across the gradient.
  for (int x = 1; x < 4; ++x) {
    EXPECT_GE(big.at(x, 0, 0), big.at(x - 1, 0, 0));
  }
}

TEST(Image, MeanAbsDiffIdenticalIsZero) {
  Image img(4, 4, 3);
  for (float& v : img.data()) v = 0.3f;
  EXPECT_EQ(img.mean_abs_diff(img), 0.0f);
}

TEST(Image, MeanAbsDiffKnownValue) {
  Image a(2, 1, 1), b(2, 1, 1);
  a.at(0, 0, 0) = 1.0f;  // diff 1.0 and 0.0 -> mean 0.5
  EXPECT_FLOAT_EQ(a.mean_abs_diff(b), 0.5f);
}

TEST(Image, MeanComputesAverage) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(img.mean(), 0.5f);
}

// ------------------------------------------------------------ diff helpers

TEST(Diff, DownsampleGrayMatchesToGrayResized) {
  // The helper must be exactly to_gray + resized — the temporal rung's
  // keyframe diffs were built on that composition and must not move.
  Image img(12, 8, 3);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 12; ++x) {
      img.at(x, y, 0) = static_cast<float>(x) / 12.0f;
      img.at(x, y, 1) = static_cast<float>(y) / 8.0f;
      img.at(x, y, 2) = 0.25f;
    }
  }
  const Image got = downsample_gray(img, 4);
  const Image want = img.to_gray().resized(4, 4);
  ASSERT_EQ(got.channels(), 1);
  ASSERT_EQ(got.width(), 4);
  ASSERT_EQ(got.height(), 4);
  EXPECT_EQ(got.mean_abs_diff(want), 0.0f);
}

TEST(Diff, DownsampleGrayAtNativeSideSkipsTheResize) {
  // A same-size bilinear resize weighs each pixel by exactly 1 and its
  // neighbours by 0, so returning the gray image as is changes no value.
  Image img(8, 8, 3);
  Rng rng{5};
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  const Image got = downsample_gray(img, 8);
  const Image want = img.to_gray().resized(8, 8);
  ASSERT_EQ(got.width(), 8);
  ASSERT_EQ(got.height(), 8);
  ASSERT_EQ(got.channels(), 1);
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "sample " << i;
  }
}

TEST(Diff, BlockMeanAbsDiffIsPerBlock) {
  Image a(8, 8, 1), b(8, 8, 1);
  // Change only the top-right 4x4 block by a constant 0.5.
  for (int y = 0; y < 4; ++y) {
    for (int x = 4; x < 8; ++x) b.at(x, y, 0) = 0.5f;
  }
  std::vector<float> diffs(4);
  block_mean_abs_diff(a, b, 2, diffs);
  EXPECT_FLOAT_EQ(diffs[0], 0.0f);
  EXPECT_FLOAT_EQ(diffs[1], 0.5f);  // row-major: (1, 0) is top-right
  EXPECT_FLOAT_EQ(diffs[2], 0.0f);
  EXPECT_FLOAT_EQ(diffs[3], 0.0f);
}

TEST(Diff, BlockMeanAbsDiffWholeImageMatchesMeanAbsDiff) {
  Image a(8, 8, 1), b(8, 8, 1);
  int i = 0;
  for (float& v : a.data()) v = static_cast<float>(i++ % 7) / 7.0f;
  i = 3;
  for (float& v : b.data()) v = static_cast<float>(i++ % 5) / 5.0f;
  std::vector<float> diffs(1);
  block_mean_abs_diff(a, b, 1, diffs);
  EXPECT_FLOAT_EQ(diffs[0], a.mean_abs_diff(b));
}

TEST(Diff, BlockMeanAbsDiffRejectsBadShapes) {
  Image gray(8, 8, 1), color(8, 8, 3), small(4, 4, 1);
  std::vector<float> diffs(4);
  EXPECT_THROW(block_mean_abs_diff(gray, color, 2, diffs),
               std::invalid_argument);
  EXPECT_THROW(block_mean_abs_diff(gray, small, 2, diffs),
               std::invalid_argument);
  EXPECT_THROW(block_mean_abs_diff(gray, gray, 3, diffs),  // 3 !| 8
               std::invalid_argument);
  std::vector<float> short_out(3);
  EXPECT_THROW(block_mean_abs_diff(gray, gray, 2, short_out),
               std::invalid_argument);
}

// ---------------------------------------------------------------- Scene

SceneGenerator::Config small_config() {
  SceneGenerator::Config cfg;
  cfg.num_classes = 8;
  cfg.image_size = 16;
  cfg.seed = 3;
  return cfg;
}

TEST(Scene, DeterministicRendering) {
  const SceneGenerator gen{small_config()};
  ViewParams view;
  view.noise_sigma = 0.05f;
  view.noise_seed = 9;
  const Image a = gen.render(2, view);
  const Image b = gen.render(2, view);
  EXPECT_EQ(a.mean_abs_diff(b), 0.0f);
}

TEST(Scene, PixelsInUnitRange) {
  const SceneGenerator gen{small_config()};
  ViewParams view;
  view.noise_sigma = 0.2f;
  view.brightness = 0.4f;
  const Image img = gen.render(0, view);
  for (float v : img.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Scene, ClassOutOfRangeThrows) {
  const SceneGenerator gen{small_config()};
  EXPECT_THROW(gen.render(8, ViewParams{}), std::out_of_range);
  EXPECT_THROW(gen.render(-1, ViewParams{}), std::out_of_range);
}

TEST(Scene, BadConfigThrows) {
  auto cfg = small_config();
  cfg.num_classes = 0;
  EXPECT_THROW(SceneGenerator{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.class_confusion = 1.5f;
  EXPECT_THROW(SceneGenerator{cfg}, std::invalid_argument);
}

TEST(Scene, SameClassNearbyViewsSimilar) {
  const SceneGenerator gen{small_config()};
  ViewParams a;
  ViewParams b = a;
  b.dx += 0.02f;
  const float same_class = gen.render(1, a).mean_abs_diff(gen.render(1, b));
  EXPECT_LT(same_class, 0.05f);
}

TEST(Scene, DifferentClassesDissimilar) {
  const SceneGenerator gen{small_config()};
  const ViewParams view;
  // Average inter-class distance dominates small-view intra-class distance.
  float inter = 0.0f;
  int pairs = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      inter += gen.render(a, view).mean_abs_diff(gen.render(b, view));
      ++pairs;
    }
  }
  inter /= static_cast<float>(pairs);
  EXPECT_GT(inter, 0.05f);
}

TEST(Scene, ConfusionMakesGroupMatesSimilar) {
  auto cfg = small_config();
  cfg.group_size = 2;
  const SceneGenerator distinct{cfg};
  cfg.class_confusion = 0.9f;
  const SceneGenerator confused{cfg};
  const ViewParams view;
  // Classes 0 and 1 share a group; confusion must pull them together.
  const float d_distinct =
      distinct.render(0, view).mean_abs_diff(distinct.render(1, view));
  const float d_confused =
      confused.render(0, view).mean_abs_diff(confused.render(1, view));
  EXPECT_LT(d_confused, d_distinct);
}

TEST(Scene, BrightnessShiftsMean) {
  const SceneGenerator gen{small_config()};
  ViewParams dark, bright;
  bright.brightness = 0.3f;
  EXPECT_GT(gen.render(0, bright).mean(), gen.render(0, dark).mean());
}

TEST(Scene, NoiseChangesWithSeed) {
  const SceneGenerator gen{small_config()};
  ViewParams a;
  a.noise_sigma = 0.1f;
  a.noise_seed = 1;
  ViewParams b = a;
  b.noise_seed = 2;
  EXPECT_GT(gen.render(0, a).mean_abs_diff(gen.render(0, b)), 0.0f);
}

TEST(Scene, OcclusionChangesImage) {
  const SceneGenerator gen{small_config()};
  ViewParams clear;
  ViewParams occluded = clear;
  occluded.occlusion = 0.5f;
  EXPECT_GT(gen.render(0, clear).mean_abs_diff(gen.render(0, occluded)),
            0.01f);
}

TEST(Scene, GrayscaleConfigProducesOneChannel) {
  auto cfg = small_config();
  cfg.channels = 1;
  const SceneGenerator gen{cfg};
  EXPECT_EQ(gen.render(0, ViewParams{}).channels(), 1);
}

// ---------------------------------------------------------------- View

TEST(ViewParams, JitterZeroMagnitudeKeepsPose) {
  Rng rng{1};
  ViewParams v;
  v.dx = 0.5f;
  const ViewParams j = v.jittered(rng, 0.0f);
  EXPECT_EQ(j.dx, v.dx);
  EXPECT_EQ(j.zoom, v.zoom);
}

TEST(ViewParams, JitterRefreshesNoiseSeed) {
  Rng rng{1};
  ViewParams v;
  v.noise_seed = 42;
  const ViewParams j = v.jittered(rng, 0.0f);
  EXPECT_NE(j.noise_seed, v.noise_seed);
}

TEST(ViewParams, LargerMagnitudeMovesFarther) {
  ViewParams v;
  float small_move = 0.0f, big_move = 0.0f;
  for (int i = 0; i < 50; ++i) {
    Rng rng{static_cast<std::uint64_t>(i)};
    Rng rng2{static_cast<std::uint64_t>(i)};
    small_move += std::abs(v.jittered(rng, 0.1f).dx - v.dx);
    big_move += std::abs(v.jittered(rng2, 1.0f).dx - v.dx);
  }
  EXPECT_GT(big_move, small_move);
}

TEST(ViewParams, JitterKeepsZoomPositive) {
  ViewParams v;
  v.zoom = 0.25f;
  for (int i = 0; i < 200; ++i) {
    Rng rng{static_cast<std::uint64_t>(i)};
    EXPECT_GT(v.jittered(rng, 1.0f).zoom, 0.0f);
  }
}

}  // namespace
}  // namespace apx
