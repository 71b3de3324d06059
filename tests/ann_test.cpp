// Unit + property tests for the ANN layer: exact kNN, p-stable LSH,
// adaptive LSH, and the homogenized-kNN vote.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/ann/adaptive_lsh.hpp"
#include "src/ann/exact_knn.hpp"
#include "src/ann/hknn.hpp"
#include "src/ann/lsh.hpp"
#include "src/ann/qalsh.hpp"
#include "src/ann/quantize.hpp"
#include "src/util/rng.hpp"

namespace apx {
namespace {

FeatureVec random_unit(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

// A single cache lookup's index traffic: one query, then the index hook at
// once (instruments + controller feed).
std::vector<Neighbor> query_and_fold(NnIndex& index, std::span<const float> q,
                                     std::size_t k) {
  std::vector<Neighbor> out;
  QueryStats st;
  index.query_into(q, k, out, &st);
  index.observe_queries({&st, 1});
  return out;
}

// -------------------------------------------------------------- ExactKnn

TEST(ExactKnn, EmptyQueryReturnsNothing) {
  ExactKnnIndex index{4};
  EXPECT_TRUE(index.query(FeatureVec(4, 0.0f), 3).empty());
}

TEST(ExactKnn, FindsExactMatchAtDistanceZero) {
  ExactKnnIndex index{2};
  index.insert(1, {1.0f, 0.0f});
  index.insert(2, {0.0f, 1.0f});
  const auto result = index.query(std::vector<float>{1.0f, 0.0f}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1u);
  EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
}

TEST(ExactKnn, ReturnsSortedByDistance) {
  ExactKnnIndex index{1};
  index.insert(10, {5.0f});
  index.insert(11, {1.0f});
  index.insert(12, {3.0f});
  const auto result = index.query(std::vector<float>{0.0f}, 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 11u);
  EXPECT_EQ(result[1].id, 12u);
  EXPECT_EQ(result[2].id, 10u);
}

TEST(ExactKnn, KLargerThanSizeReturnsAll) {
  ExactKnnIndex index{1};
  index.insert(1, {1.0f});
  EXPECT_EQ(index.query(std::vector<float>{0.0f}, 10).size(), 1u);
}

TEST(ExactKnn, RemoveDeletes) {
  ExactKnnIndex index{1};
  index.insert(1, {1.0f});
  EXPECT_TRUE(index.remove(1));
  EXPECT_FALSE(index.remove(1));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query(std::vector<float>{1.0f}, 1).empty());
}

// These checks throw in every build type: the tier-1 build defines NDEBUG,
// so an assert here would prove nothing.
TEST(ExactKnn, BadInputThrows) {
  EXPECT_THROW(ExactKnnIndex{0}, std::invalid_argument);
  ExactKnnIndex index{2};
  EXPECT_THROW(index.insert(1, FeatureVec{1.0f}), std::invalid_argument);
  EXPECT_THROW(index.insert(1, FeatureVec{1.0f, 0.0f, 0.0f}),
               std::invalid_argument);
  index.insert(1, FeatureVec{1.0f, 0.0f});
  // A duplicate id must not silently keep the old vector.
  EXPECT_THROW(index.insert(1, FeatureVec{0.0f, 1.0f}),
               std::invalid_argument);
  const auto result = index.query(std::vector<float>{1.0f, 0.0f}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
}

TEST(NnIndexQuery, WrongQuerySizeThrowsForEveryBackend) {
  std::vector<std::unique_ptr<NnIndex>> indexes;
  indexes.push_back(std::make_unique<ExactKnnIndex>(4));
  indexes.push_back(std::make_unique<PStableLshIndex>(4, LshParams{}));
  indexes.push_back(
      std::make_unique<AdaptiveLshIndex>(4, AdaptiveLshParams{}));
  indexes.push_back(std::make_unique<QalshIndex>(4, QalshParams{}));
  Rng rng{9};
  for (const auto& index : indexes) {
    const FeatureVec v = random_unit(rng, 4);
    index->insert(1, v);
    std::vector<Neighbor> out;
    EXPECT_THROW(index->query_into(FeatureVec(3, 0.0f), 1, out),
                 std::invalid_argument);
    EXPECT_THROW((void)index->query(FeatureVec(5, 0.0f), 1),
                 std::invalid_argument);
    EXPECT_EQ(index->query(v, 1).size(), 1u);
  }
}

TEST(ExactKnn, EqualDistancesTieBreakById) {
  ExactKnnIndex index{1};
  index.insert(5, {1.0f});
  index.insert(3, {-1.0f});
  const auto result = index.query(std::vector<float>{0.0f}, 2);
  EXPECT_EQ(result[0].id, 3u);
  EXPECT_EQ(result[1].id, 5u);
}

// -------------------------------------------------------------- LSH

LshParams default_lsh() {
  LshParams p;
  p.num_tables = 6;
  p.hashes_per_table = 6;
  p.bucket_width = 0.6f;
  p.seed = 21;
  return p;
}

TEST(Lsh, BadParamsThrow) {
  LshParams p = default_lsh();
  p.bucket_width = 0.0f;
  EXPECT_THROW(PStableLshIndex(8, p), std::invalid_argument);
  p = default_lsh();
  p.num_tables = 0;
  EXPECT_THROW(PStableLshIndex(8, p), std::invalid_argument);
}

TEST(Lsh, ExactDuplicateAlwaysFound) {
  PStableLshIndex index{8, default_lsh()};
  Rng rng{3};
  const FeatureVec v = random_unit(rng, 8);
  index.insert(42, v);
  const auto result = index.query(v, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 42u);
  EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
}

TEST(Lsh, WrongSizeInsertThrowsAndLeavesIndexIntact) {
  PStableLshIndex index{8, default_lsh()};
  Rng rng{16};
  // A longer vector would otherwise be copied past its arena row.
  EXPECT_THROW(index.insert(1, random_unit(rng, 9)), std::invalid_argument);
  EXPECT_THROW(index.insert(1, random_unit(rng, 7)), std::invalid_argument);
  EXPECT_EQ(index.size(), 0u);
  const FeatureVec v = random_unit(rng, 8);
  index.insert(1, v);
  const auto result = index.query(v, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 1u);
}

TEST(Lsh, DuplicateIdInsertThrowsAndLeavesIndexIntact) {
  // Regression guard: duplicate-id detection used to be assert-only, so a
  // release build would stack a second slot under the id and leave the
  // first stale in every table.
  PStableLshIndex index{8, default_lsh()};
  Rng rng{5};
  const FeatureVec v = random_unit(rng, 8);
  const FeatureVec other = random_unit(rng, 8);
  index.insert(42, v);
  EXPECT_THROW(index.insert(42, other), std::invalid_argument);
  EXPECT_EQ(index.size(), 1u);
  // The original vector must still be the one indexed, at distance zero.
  const auto result = index.query(v, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 42u);
  EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
  // And exactly one removal succeeds — no stale second copy.
  EXPECT_TRUE(index.remove(42));
  EXPECT_FALSE(index.remove(42));
  EXPECT_TRUE(index.query(v, 1).empty());
}

TEST(Lsh, SlotReuseAfterRemoveStaysConsistent) {
  // remove() leaves an arena hole; the next insert must reuse it without
  // resurrecting the removed id or corrupting lookups.
  PStableLshIndex index{8, default_lsh()};
  Rng rng{6};
  const FeatureVec a = random_unit(rng, 8);
  const FeatureVec b = random_unit(rng, 8);
  index.insert(1, a);
  EXPECT_TRUE(index.remove(1));
  index.insert(2, b);
  EXPECT_EQ(index.size(), 1u);
  const auto hit = index.query(b, 2);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 2u);
  EXPECT_FLOAT_EQ(hit[0].distance, 0.0f);
}

TEST(Lsh, RemoveDeletesFromAllTables) {
  PStableLshIndex index{8, default_lsh()};
  Rng rng{3};
  const FeatureVec v = random_unit(rng, 8);
  index.insert(1, v);
  EXPECT_TRUE(index.remove(1));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query(v, 1).empty());
  EXPECT_FALSE(index.remove(1));
}

TEST(Lsh, NearNeighborRecallHigh) {
  // Points perturbed by sigma << w must be retrieved nearly always.
  PStableLshIndex index{16, default_lsh()};
  Rng rng{7};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 50; ++id) {
    base.push_back(random_unit(rng, 16));
    index.insert(id, base.back());
  }
  int found = 0;
  for (VecId id = 0; id < 50; ++id) {
    FeatureVec q = base[id];
    for (float& x : q) x += static_cast<float>(rng.normal(0.0, 0.01));
    const auto result = index.query(q, 1);
    if (!result.empty() && result[0].id == id) ++found;
  }
  EXPECT_GE(found, 45);
}

TEST(Lsh, DistantPointsRarelyCollide) {
  PStableLshIndex index{16, default_lsh()};
  Rng rng{9};
  for (VecId id = 0; id < 50; ++id) {
    FeatureVec v = random_unit(rng, 16);
    scale_in_place(v, 50.0f);  // spread points far apart
    index.insert(id, v);
  }
  // A far-away random query should scan few candidates.
  FeatureVec q = random_unit(rng, 16);
  scale_in_place(q, -50.0f);
  std::vector<Neighbor> out;
  QueryStats st;
  index.query_into(q, 4, out, &st);
  EXPECT_LT(st.candidates, 25u);
}

TEST(Lsh, ReturnedDistancesAreExact) {
  PStableLshIndex index{4, default_lsh()};
  const FeatureVec v{1.0f, 0.0f, 0.0f, 0.0f};
  index.insert(1, v);
  const FeatureVec q{0.0f, 0.0f, 0.0f, 0.0f};
  const auto result = index.query(q, 1);
  if (!result.empty()) {
    EXPECT_FLOAT_EQ(result[0].distance, 1.0f);
  }
}

TEST(Lsh, RebuildPreservesContents) {
  PStableLshIndex index{8, default_lsh()};
  Rng rng{13};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 30; ++id) {
    base.push_back(random_unit(rng, 8));
    index.insert(id, base.back());
  }
  index.rebuild_with_width(1.2f);
  EXPECT_EQ(index.size(), 30u);
  EXPECT_FLOAT_EQ(index.params().bucket_width, 1.2f);
  int found = 0;
  for (VecId id = 0; id < 30; ++id) {
    const auto result = index.query(base[id], 1);
    if (!result.empty() && result[0].id == id) ++found;
  }
  EXPECT_GE(found, 28);
}

TEST(Lsh, RebuildBadWidthThrows) {
  PStableLshIndex index{8, default_lsh()};
  EXPECT_THROW(index.rebuild_with_width(0.0f), std::invalid_argument);
}

TEST(Lsh, WiderBucketsScanMoreCandidates) {
  Rng rng{15};
  std::vector<FeatureVec> points;
  for (int i = 0; i < 200; ++i) points.push_back(random_unit(rng, 8));

  LshParams narrow = default_lsh();
  narrow.bucket_width = 0.05f;
  LshParams wide = default_lsh();
  wide.bucket_width = 5.0f;
  PStableLshIndex a{8, narrow}, b{8, wide};
  for (VecId id = 0; id < points.size(); ++id) {
    a.insert(id, points[id]);
    b.insert(id, points[id]);
  }
  std::size_t narrow_c = 0, wide_c = 0;
  std::vector<Neighbor> out;
  QueryStats st;
  for (int i = 0; i < 20; ++i) {
    const FeatureVec q = random_unit(rng, 8);
    a.query_into(q, 4, out, &st);
    narrow_c += st.candidates;
    b.query_into(q, 4, out, &st);
    wide_c += st.candidates;
  }
  EXPECT_LT(narrow_c, wide_c);
}

// Property sweep: recall of LSH vs exact kNN across bucket widths.
class LshRecallSweep : public ::testing::TestWithParam<float> {};

TEST_P(LshRecallSweep, Top1RecallAboveFloor) {
  LshParams params = default_lsh();
  params.bucket_width = GetParam();
  PStableLshIndex lsh{8, params};
  ExactKnnIndex exact{8};
  Rng rng{99};
  for (VecId id = 0; id < 300; ++id) {
    // Clustered data (what a cache actually holds): 30 clusters, sigma 0.05.
    FeatureVec center(8, 0.0f);
    Rng crng{id % 30};
    center = random_unit(crng, 8);
    for (float& x : center) x += static_cast<float>(rng.normal(0.0, 0.05));
    lsh.insert(id, center);
    exact.insert(id, center);
  }
  int agree = 0;
  const int queries = 100;
  for (int i = 0; i < queries; ++i) {
    Rng crng{static_cast<std::uint64_t>(i % 30)};
    FeatureVec q = random_unit(crng, 8);
    for (float& x : q) x += static_cast<float>(rng.normal(0.0, 0.05));
    const auto truth = exact.query(q, 1);
    const auto approx = lsh.query(q, 1);
    if (!approx.empty() && !truth.empty() &&
        approx[0].distance <= truth[0].distance * 1.2f + 1e-5f) {
      ++agree;
    }
  }
  // Wide buckets: near-exact recall; even narrow-ish ones stay useful.
  EXPECT_GE(agree, 70) << "width=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, LshRecallSweep,
                         ::testing::Values(0.4f, 0.8f, 1.6f));

// -------------------------------------------------------------- A-LSH

AdaptiveLshParams default_alsh() {
  AdaptiveLshParams p;
  p.lsh = default_lsh();
  p.min_queries_between_rebuilds = 8;
  p.min_size_to_adapt = 8;
  return p;
}

TEST(AdaptiveLsh, BadParamsThrow) {
  AdaptiveLshParams p = default_alsh();
  p.width_factor = 0.0f;
  EXPECT_THROW(AdaptiveLshIndex(8, p), std::invalid_argument);
  p = default_alsh();
  p.ema_alpha = 2.0;
  EXPECT_THROW(AdaptiveLshIndex(8, p), std::invalid_argument);
}

TEST(AdaptiveLsh, NoAdaptationWhenSmall) {
  AdaptiveLshIndex index{8, default_alsh()};
  Rng rng{1};
  for (VecId id = 0; id < 4; ++id) index.insert(id, random_unit(rng, 8));
  for (int i = 0; i < 50; ++i) query_and_fold(index, random_unit(rng, 8), 2);
  EXPECT_EQ(index.rebuild_count(), 0u);
}

TEST(AdaptiveLsh, AdaptsWidthTowardDataScale) {
  // Data at scale ~0.02 but initial width 0.6: the controller must shrink w.
  AdaptiveLshParams params = default_alsh();
  params.lsh.bucket_width = 0.6f;
  params.width_factor = 4.0f;
  AdaptiveLshIndex index{8, params};
  Rng rng{2};
  const FeatureVec center = random_unit(rng, 8);
  for (VecId id = 0; id < 100; ++id) {
    FeatureVec v = center;
    for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.01));
    index.insert(id, v);
  }
  for (int i = 0; i < 100; ++i) {
    FeatureVec q = center;
    for (float& x : q) x += static_cast<float>(rng.normal(0.0, 0.01));
    query_and_fold(index, q, 4);
  }
  EXPECT_GE(index.rebuild_count(), 1u);
  EXPECT_LT(index.current_width(), 0.6f);
}

TEST(AdaptiveLsh, QueriesStillCorrectAfterAdaptation) {
  AdaptiveLshIndex index{8, default_alsh()};
  Rng rng{3};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 100; ++id) {
    base.push_back(random_unit(rng, 8));
    index.insert(id, base[id]);
  }
  for (int round = 0; round < 3; ++round) {
    int found = 0;
    for (VecId id = 0; id < 100; ++id) {
      const auto result = index.query(base[id], 1);
      if (!result.empty() && result[0].id == id) ++found;
    }
    EXPECT_GE(found, 90) << "round " << round
                         << " rebuilds=" << index.rebuild_count();
  }
}

TEST(AdaptiveLsh, InsertRemoveConsistency) {
  AdaptiveLshIndex index{8, default_alsh()};
  Rng rng{4};
  const FeatureVec v = random_unit(rng, 8);
  index.insert(7, v);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.remove(7));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query(v, 1).empty());
}

TEST(AdaptiveLsh, CandidateCountBoundedUnderDensity) {
  // As a dense cache fills, A-LSH keeps candidate sets from exploding the
  // way a too-wide fixed LSH would.
  AdaptiveLshParams params = default_alsh();
  params.lsh.bucket_width = 10.0f;  // pathologically wide start
  params.width_factor = 4.0f;
  AdaptiveLshIndex index{8, params};
  Rng rng{5};
  for (VecId id = 0; id < 500; ++id) {
    index.insert(id, random_unit(rng, 8));
    if (id % 5 == 0) query_and_fold(index, random_unit(rng, 8), 4);
  }
  // After adaptation the last candidate counts must be well below "all".
  std::vector<Neighbor> out;
  QueryStats st;
  index.query_into(random_unit(rng, 8), 4, out, &st);
  EXPECT_GE(index.rebuild_count(), 1u);
  EXPECT_LT(st.candidates, 400u);
}

TEST(AdaptiveLsh, QueriesAloneNeverAdapt) {
  // The query path is read-only: only observe_queries() feeds the width
  // controller, so bare queries leave the tables as built.
  AdaptiveLshParams params = default_alsh();
  params.lsh.bucket_width = 10.0f;
  params.width_factor = 1.0f;
  AdaptiveLshIndex index{8, params};
  Rng rng{6};
  for (VecId id = 0; id < 100; ++id) index.insert(id, random_unit(rng, 8));
  std::vector<QueryStats> seen(64);
  std::vector<Neighbor> out;
  for (QueryStats& st : seen) index.query_into(random_unit(rng, 8), 4, out, &st);
  EXPECT_EQ(index.rebuild_count(), 0u);
  EXPECT_EQ(index.current_width(), 10.0f);
  index.observe_queries(seen);
  EXPECT_EQ(index.rebuild_count(), 1u);
  EXPECT_LT(index.current_width(), 10.0f);
}

// -------------------------------------------------------------- H-kNN

HknnParams default_hknn() {
  HknnParams p;
  p.k = 4;
  p.homogeneity_threshold = 0.8f;
  p.max_distance = 0.5f;
  return p;
}

Label label_from_map(const std::vector<Label>& labels, VecId id) {
  return labels.at(static_cast<std::size_t>(id));
}

TEST(Hknn, EmptyNeighborsAbstains) {
  const auto vote = hknn_vote({}, [](VecId) { return 0; }, default_hknn());
  EXPECT_FALSE(vote.has_value());
}

TEST(Hknn, NearestTooFarAbstains) {
  const std::vector<Neighbor> neighbors{{1, 0.9f}};
  const auto vote =
      hknn_vote(neighbors, [](VecId) { return 3; }, default_hknn());
  EXPECT_FALSE(vote.has_value());
}

TEST(Hknn, HomogeneousNeighborhoodAccepts) {
  const std::vector<Neighbor> neighbors{{1, 0.1f}, {2, 0.12f}, {3, 0.15f}};
  const auto vote =
      hknn_vote(neighbors, [](VecId) { return 7; }, default_hknn());
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 7);
  EXPECT_FLOAT_EQ(vote->homogeneity, 1.0f);
  EXPECT_EQ(vote->voters, 3u);
  EXPECT_FLOAT_EQ(vote->nearest_distance, 0.1f);
}

TEST(Hknn, MixedNeighborhoodAbstains) {
  const std::vector<Label> labels{0, 1, 2, 1, 2};
  const std::vector<Neighbor> neighbors{{1, 0.1f}, {2, 0.1f}, {3, 0.1f},
                                        {4, 0.1f}};
  const auto vote = hknn_vote(
      neighbors, [&](VecId id) { return label_from_map(labels, id); },
      default_hknn());
  EXPECT_FALSE(vote.has_value());
}

TEST(Hknn, PlainKnnAcceptsWhatHknnRejects) {
  const std::vector<Label> labels{0, 1, 2, 1, 2};
  const std::vector<Neighbor> neighbors{{1, 0.1f}, {2, 0.1f}, {3, 0.1f},
                                        {4, 0.1f}};
  const auto vote = plain_knn_vote(
      neighbors, [&](VecId id) { return label_from_map(labels, id); },
      default_hknn());
  ASSERT_TRUE(vote.has_value());  // majority of {1,2,1,2} by id order
  EXPECT_LT(vote->homogeneity, 0.8f);
}

TEST(Hknn, CloserNeighborsWeighMore) {
  // One very close label-A neighbour outweighs two distant label-B ones.
  const std::vector<Label> labels{0, 10, 20, 20};
  const std::vector<Neighbor> neighbors{{1, 0.01f}, {2, 0.4f}, {3, 0.4f}};
  HknnParams params = default_hknn();
  params.homogeneity_threshold = 0.6f;
  const auto vote = hknn_vote(
      neighbors, [&](VecId id) { return label_from_map(labels, id); },
      params);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 10);
}

TEST(Hknn, OnlyKNeighborsVote) {
  HknnParams params = default_hknn();
  params.k = 2;
  const std::vector<Label> labels{0, 5, 5, 9, 9, 9};
  const std::vector<Neighbor> neighbors{
      {1, 0.1f}, {2, 0.11f}, {3, 0.12f}, {4, 0.13f}, {5, 0.14f}};
  const auto vote = hknn_vote(
      neighbors, [&](VecId id) { return label_from_map(labels, id); },
      params);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 5);  // the 9s (majority overall) never voted
  EXPECT_EQ(vote->voters, 2u);
}

TEST(Hknn, OutOfRangeNeighborsExcluded) {
  const std::vector<Label> labels{0, 5, 9};
  const std::vector<Neighbor> neighbors{{1, 0.1f}, {2, 0.9f}};
  const auto vote = hknn_vote(
      neighbors, [&](VecId id) { return label_from_map(labels, id); },
      default_hknn());
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->voters, 1u);
  EXPECT_EQ(vote->label, 5);
}

TEST(Hknn, RequireHomogeneityFlagSelectsPlainVote) {
  // The same mixed neighbourhood through hknn_vote: abstains with the gate
  // on, answers with it off (end-to-end selectable ablation baseline).
  const std::vector<Label> labels{0, 1, 2, 1, 2};
  const std::vector<Neighbor> neighbors{{1, 0.1f}, {2, 0.1f}, {3, 0.1f},
                                        {4, 0.1f}};
  auto label_of = [&](VecId id) { return label_from_map(labels, id); };
  HknnParams gated = default_hknn();
  EXPECT_FALSE(hknn_vote(neighbors, label_of, gated).has_value());
  HknnParams plain = gated;
  plain.require_homogeneity = false;
  EXPECT_TRUE(hknn_vote(neighbors, label_of, plain).has_value());
}

// Threshold sweep: stricter homogeneity accepts strictly less.
class HknnThresholdSweep : public ::testing::TestWithParam<float> {};

TEST_P(HknnThresholdSweep, AcceptanceMonotoneInThreshold) {
  Rng rng{31};
  HknnParams loose = default_hknn();
  loose.homogeneity_threshold = GetParam();
  HknnParams strict = loose;
  strict.homogeneity_threshold = std::min(1.0f, GetParam() + 0.2f);

  int loose_accepts = 0, strict_accepts = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Neighbor> neighbors;
    std::vector<Label> labels(6);
    for (VecId id = 0; id < 5; ++id) {
      neighbors.push_back({id, static_cast<float>(rng.uniform(0.01, 0.4))});
      labels[id] = static_cast<Label>(rng.uniform_u64(3));
    }
    std::sort(neighbors.begin(), neighbors.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    auto label_of = [&](VecId id) { return label_from_map(labels, id); };
    if (hknn_vote(neighbors, label_of, loose)) ++loose_accepts;
    if (hknn_vote(neighbors, label_of, strict)) ++strict_accepts;
  }
  EXPECT_GE(loose_accepts, strict_accepts);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HknnThresholdSweep,
                         ::testing::Values(0.5f, 0.6f, 0.7f, 0.8f));

// ------------------------------------------------------- SQ8 encode

TEST(Sq8, EncodeStatsMatchQuantizeGrid) {
  Rng rng{31};
  const FeatureVec v = random_unit(rng, 16);
  std::vector<std::uint8_t> codes(v.size());
  const Sq8Stats st = sq8_encode(v, codes.data());
  const QuantizedVec q = quantize(v);
  EXPECT_FLOAT_EQ(st.offset, q.offset);
  EXPECT_FLOAT_EQ(st.scale, q.scale);
  EXPECT_EQ(codes, q.codes);
  // recon_norm_sq is the squared norm of the reconstruction.
  const FeatureVec back = dequantize(q);
  float norm_sq = 0.0f;
  for (const float x : back) norm_sq += x * x;
  EXPECT_NEAR(st.recon_norm_sq, norm_sq, 1e-4f);
}

TEST(Sq8, ConstantVectorIsExact) {
  const FeatureVec v(12, 0.75f);
  std::vector<std::uint8_t> codes(v.size(), 0xFF);
  const Sq8Stats st = sq8_encode(v, codes.data());
  EXPECT_FLOAT_EQ(st.scale, 0.0f);
  EXPECT_FLOAT_EQ(st.offset, 0.75f);
  for (const std::uint8_t c : codes) EXPECT_EQ(c, 0);
  EXPECT_NEAR(st.recon_norm_sq, 12 * 0.75f * 0.75f, 1e-5f);
}

TEST(Sq8, NonFiniteInputThrows) {
  std::vector<std::uint8_t> codes(4);
  FeatureVec v{1.0f, 2.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f};
  EXPECT_THROW(sq8_encode(v, codes.data()), std::invalid_argument);
  v[2] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(sq8_encode(v, codes.data()), std::invalid_argument);
  v[2] = -std::numeric_limits<float>::infinity();
  EXPECT_THROW(sq8_encode(v, codes.data()), std::invalid_argument);
  EXPECT_THROW(quantize(v), std::invalid_argument);
}

TEST(Sq8, GridBoundsSaturateAtExtremeCodes) {
  const FeatureVec v{-2.0f, 2.0f, 0.0f};
  std::vector<std::uint8_t> codes(v.size());
  const Sq8Stats st = sq8_encode(v, codes.data());
  EXPECT_EQ(codes[0], 0);     // min of the grid
  EXPECT_EQ(codes[1], 255);   // max of the grid
  EXPECT_NEAR(st.offset + st.scale * 255.0f, 2.0f, 1e-3f);
}

TEST(Sq8, EmptyVectorEncodesToZeroStats) {
  const Sq8Stats st = sq8_encode(std::span<const float>{}, nullptr);
  EXPECT_FLOAT_EQ(st.offset, 0.0f);
  EXPECT_FLOAT_EQ(st.scale, 0.0f);
  EXPECT_FLOAT_EQ(st.recon_norm_sq, 0.0f);
}

// ------------------------------------------------------- Quantized LSH scan

LshParams quantized_lsh() {
  LshParams p;
  p.num_tables = 6;
  p.hashes_per_table = 6;
  p.bucket_width = 0.6f;
  p.seed = 21;
  p.quantize.enabled = true;
  p.quantize.rerank_k = 32;
  return p;
}

TEST(LshQuantized, ReturnedDistancesAreFloatExact) {
  // The exact re-rank re-scores survivors on the float arena, so every
  // returned distance must match the float index bit for bit.
  PStableLshIndex q8{8, quantized_lsh()};
  LshParams float_params = quantized_lsh();
  float_params.quantize.enabled = false;
  PStableLshIndex flt{8, float_params};
  Rng rng{7};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 30; ++id) {
    base.push_back(random_unit(rng, 8));
    q8.insert(id, base[id]);
    flt.insert(id, base[id]);
  }
  for (VecId id = 0; id < 30; ++id) {
    const auto a = q8.query(base[id], 4);
    const auto b = flt.query(base[id], 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(LshQuantized, ReconstructedCoherentUnderSlotReuse) {
  // Codes live in a slot-indexed sidecar; remove + reinsert must overwrite
  // the reused slot's row, never leave a stale code row behind.
  PStableLshIndex index{8, quantized_lsh()};
  Rng rng{11};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 10; ++id) {
    base.push_back(random_unit(rng, 8));
    index.insert(id, base[id]);
  }
  ASSERT_TRUE(index.remove(3));
  ASSERT_TRUE(index.remove(7));
  const FeatureVec v100 = random_unit(rng, 8);
  const FeatureVec v101 = random_unit(rng, 8);
  index.insert(100, v100);  // reuses a freed slot
  index.insert(101, v101);
  auto expect_recon = [&](VecId id, const FeatureVec& v) {
    const FeatureVec got = index.reconstructed(id);
    const FeatureVec want = dequantize(quantize(v));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i], want[i]) << "id " << id << " dim " << i;
    }
  };
  expect_recon(100, v100);
  expect_recon(101, v101);
  for (VecId id = 0; id < 10; ++id) {
    if (id == 3 || id == 7) continue;
    expect_recon(id, base[id]);
  }
  EXPECT_TRUE(index.reconstructed(3).empty());  // removed id
}

TEST(LshQuantized, NonFiniteInsertThrowsAndLeavesIndexIntact) {
  PStableLshIndex index{4, quantized_lsh()};
  index.insert(1, {1.0f, 0.0f, 0.0f, 0.0f});
  FeatureVec bad{0.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f, 0.0f};
  EXPECT_THROW(index.insert(2, bad), std::invalid_argument);
  EXPECT_EQ(index.size(), 1u);
  // The id must not be half-claimed: a finite retry succeeds.
  index.insert(2, {0.0f, 1.0f, 0.0f, 0.0f});
  EXPECT_EQ(index.size(), 2u);
}

TEST(LshQuantized, RerankSurvivorsReported) {
  PStableLshIndex q8{8, quantized_lsh()};
  LshParams float_params = quantized_lsh();
  float_params.quantize.enabled = false;
  PStableLshIndex flt{8, float_params};
  Rng rng{19};
  for (VecId id = 0; id < 20; ++id) {
    const FeatureVec v = random_unit(rng, 8);
    q8.insert(id, v);
    flt.insert(id, v);
  }
  const FeatureVec probe = random_unit(rng, 8);
  std::vector<Neighbor> out;
  QueryStats st;
  q8.query_into(probe, 4, out, &st);
  if (!out.empty()) {
    EXPECT_GT(st.rerank_survivors, 0u);
    EXPECT_LE(st.rerank_survivors, st.candidates);
  }
  flt.query_into(probe, 4, out, &st);
  EXPECT_EQ(st.rerank_survivors, 0u);
  EXPECT_TRUE(flt.reconstructed(0).empty());  // float index has no codes
}

TEST(LshQuantized, RebuildPreservesCodes) {
  PStableLshIndex index{8, quantized_lsh()};
  Rng rng{23};
  std::vector<FeatureVec> base;
  for (VecId id = 0; id < 30; ++id) {
    base.push_back(random_unit(rng, 8));
    index.insert(id, base.back());
  }
  index.rebuild_with_width(1.2f);
  int found = 0;
  for (VecId id = 0; id < 30; ++id) {
    const auto result = index.query(base[id], 1);
    if (!result.empty() && result[0].id == id) {
      EXPECT_FLOAT_EQ(result[0].distance, 0.0f);
      ++found;
    }
    const FeatureVec got = index.reconstructed(id);
    const FeatureVec want = dequantize(quantize(base[id]));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i], want[i]);
    }
  }
  EXPECT_GE(found, 28);
}

}  // namespace
}  // namespace apx
