// Hot-path guards (see bench/bench_m2_hotpath.cpp):
//  - unrolled/batched vecmath kernels match the scalar references within
//    1e-4 across random dims, including non-multiple-of-8 tails;
//  - steady-state LSH queries via query_into perform zero heap allocations
//    (verified with a counting global allocator);
//  - a warmed MiniCnn::embed_into performs zero heap allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "src/ann/lsh.hpp"
#include "src/core/pipeline.hpp"
#include "src/features/minicnn.hpp"
#include "src/obs/metrics.hpp"
#include "src/image/scene.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

// ------------------------------------------------- counting allocator
//
// Replaces the global allocation functions for this test binary so the
// zero-allocation claim is checked against reality, not code review.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apx {
namespace {

FeatureVec random_vec(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// ------------------------------------------------------- kernel parity

TEST(Kernels, MatchScalarReferenceAcrossRandomDims) {
  Rng rng{101};
  for (int trial = 0; trial < 200; ++trial) {
    // Dims deliberately straddle the unroll width: 1..130 hits every tail
    // length mod 8 many times over.
    const std::size_t dim = 1 + rng.uniform_u64(130);
    const FeatureVec a = random_vec(rng, dim);
    const FeatureVec b = random_vec(rng, dim);
    const float ref_dot = ref::dot(a, b);
    const float ref_l2 = ref::l2_sq(a, b);
    const float ref_cos = ref::cosine_distance(a, b);
    const auto tol = [](float r) { return 1e-4f * std::max(1.0f, std::fabs(r)); };
    EXPECT_NEAR(dot(a, b), ref_dot, tol(ref_dot)) << "dim=" << dim;
    EXPECT_NEAR(l2_sq(a, b), ref_l2, tol(ref_l2)) << "dim=" << dim;
    EXPECT_NEAR(cosine_distance(a, b), ref_cos, 1e-4f) << "dim=" << dim;
  }
}

TEST(Kernels, BatchedVariantsMatchPerRowReference) {
  Rng rng{202};
  for (const std::size_t dim : {1u, 7u, 8u, 17u, 64u, 65u}) {
    const std::size_t n = 33;
    const FeatureVec q = random_vec(rng, dim);
    std::vector<float> rows(n * dim);
    for (float& x : rows) x = static_cast<float>(rng.normal());
    std::vector<float> out_dot(n), out_l2(n);
    dot_batch(q, rows.data(), n, out_dot.data());
    l2_sq_batch(q, rows.data(), n, out_l2.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const float> row{rows.data() + i * dim, dim};
      EXPECT_NEAR(out_dot[i], ref::dot(q, row),
                  1e-4f * std::max(1.0f, std::fabs(ref::dot(q, row))));
      EXPECT_NEAR(out_l2[i], ref::l2_sq(q, row),
                  1e-4f * std::max(1.0f, std::fabs(ref::l2_sq(q, row))));
    }
    // Gather variant picks rows by slot in arbitrary order.
    std::vector<std::uint32_t> slots;
    for (std::size_t i = 0; i < n; i += 3) {
      slots.push_back(static_cast<std::uint32_t>(n - 1 - i));
    }
    std::vector<float> out_gather(slots.size());
    l2_sq_gather(q, rows.data(), slots, out_gather.data());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_FLOAT_EQ(out_gather[i], out_l2[slots[i]]);
    }
  }
}

// -------------------------------------------------- zero-alloc queries

TEST(LshHotPath, SteadyStateQueryPerformsZeroAllocations) {
  LshParams params;
  params.num_tables = 4;
  params.hashes_per_table = 8;
  params.bucket_width = 0.5f;
  params.probes_per_table = 2;  // exercise the multiprobe path too
  PStableLshIndex index{64, params};

  Rng rng{31};
  for (VecId id = 0; id < 2000; ++id) {
    FeatureVec v = random_vec(rng, 64);
    normalize(v);
    index.insert(id, v);
  }
  std::vector<FeatureVec> queries;
  for (int i = 0; i < 64; ++i) {
    FeatureVec q = random_vec(rng, 64);
    normalize(q);
    queries.push_back(std::move(q));
  }

  // Warm-up pass: grows the scratch and the reused output buffer to their
  // high-water marks for exactly this workload.
  std::vector<Neighbor> out;
  for (const auto& q : queries) index.query_into(q, 8, out);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& q : queries) index.query_into(q, 8, out);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(LshHotPath, QuantizedSteadyStateQueryPerformsZeroAllocations) {
  // The SQ8 scan adds three scratch stages (ADC rank order, survivors,
  // exact distances); like the float path, they must reach a high-water
  // mark during warm-up and never allocate again.
  LshParams params;
  params.num_tables = 4;
  params.hashes_per_table = 8;
  params.bucket_width = 0.5f;
  params.probes_per_table = 2;
  params.quantize.enabled = true;
  params.quantize.rerank_k = 16;
  PStableLshIndex index{64, params};

  Rng rng{37};
  for (VecId id = 0; id < 2000; ++id) {
    FeatureVec v = random_vec(rng, 64);
    normalize(v);
    index.insert(id, v);
  }
  std::vector<FeatureVec> queries;
  for (int i = 0; i < 64; ++i) {
    FeatureVec q = random_vec(rng, 64);
    normalize(q);
    queries.push_back(std::move(q));
  }

  std::vector<Neighbor> out;
  for (const auto& q : queries) index.query_into(q, 8, out);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& q : queries) index.query_into(q, 8, out);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(CacheHotPath, SteadyStateTracedLookupPerformsZeroAllocations) {
  // The full traced lookup path — LSH query, H-kNN vote, hit/miss counters,
  // metrics recording, trace annotation — must be allocation-free once warm.
  ApproxCacheConfig cfg;
  cfg.capacity = 4096;
  cfg.index = IndexKind::kLsh;
  cfg.alsh.lsh.num_tables = 4;
  cfg.alsh.lsh.hashes_per_table = 8;
  cfg.alsh.lsh.bucket_width = 0.5f;
  cfg.alsh.lsh.probes_per_table = 2;
  cfg.hknn.max_distance = 0.4f;
  ApproxCache cache{64, cfg, make_lru_policy()};
  MetricsRegistry registry;
  cache.attach_metrics(registry);

  Rng rng{47};
  std::vector<FeatureVec> stored;
  for (int i = 0; i < 1000; ++i) {
    FeatureVec v = random_vec(rng, 64);
    normalize(v);
    cache.insert(v, static_cast<Label>(i % 16), 0.9f, i);
    stored.push_back(std::move(v));
  }
  // Perturbed stored vectors (hits) interleaved with fresh random ones
  // (misses), so both outcome paths reach steady state during warm-up.
  std::vector<FeatureVec> queries;
  for (std::size_t i = 0; i < 32; ++i) {
    FeatureVec q = stored[i * 7];
    q[0] += 0.01f;
    normalize(q);
    queries.push_back(std::move(q));
    FeatureVec r = random_vec(rng, 64);
    normalize(r);
    queries.push_back(std::move(r));
  }

  FrameTrace trace;
  auto run_all = [&](SimTime base) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const SimTime now = base + static_cast<SimTime>(i);
      trace.reset(now);
      trace.begin_span(Rung::kLocalCache, now);
      (void)cache.lookup({.features = queries[i],
                          .now = now,
                          .threshold_scale = 1.0f,
                          .trace = &trace});
      trace.end_span(RungOutcome::kMiss, now);
    }
  };
  run_all(2000);  // warm-up: scratch buffers get created

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  run_all(3000);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  // Both paths actually ran.
  EXPECT_GT(registry.counter_value("cache/hit"), 0u);
  EXPECT_GT(registry.counter_value("cache/miss"), 0u);
  const auto* hist = registry.find_histogram("cache/lookup_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2 * queries.size());
}

TEST(LshHotPath, QueryIntoMatchesQuery) {
  LshParams params;
  params.probes_per_table = 1;
  PStableLshIndex index{16, params};
  Rng rng{77};
  for (VecId id = 0; id < 500; ++id) index.insert(id, random_vec(rng, 16));
  std::vector<Neighbor> out;
  for (int i = 0; i < 50; ++i) {
    const FeatureVec q = random_vec(rng, 16);
    const auto a = index.query(q, 5);
    index.query_into(q, 5, out);
    ASSERT_EQ(a.size(), out.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, out[j].id);
      EXPECT_FLOAT_EQ(a[j].distance, out[j].distance);
    }
  }
}

// ------------------------------------------------------ MiniCnn hot path

TEST(MiniCnnHotPath, WarmEmbedIntoPerformsZeroAllocations) {
  // The staged forward pass reuses the caller's ForwardState; once warmed,
  // embedding a stream of native-size frames must never touch the heap
  // (the same discipline as the LSH query path).
  SceneGenerator::Config scfg;
  scfg.num_classes = 4;
  scfg.image_size = MiniCnn::kInputSide;  // no resize: the pure hot path
  SceneGenerator scenes{scfg};
  MiniCnn cnn{64, 7};
  std::vector<Image> imgs;
  for (int cls = 0; cls < 4; ++cls) {
    imgs.push_back(scenes.render(cls, ViewParams{}));
  }

  MiniCnn::ForwardState state;
  FeatureVec out;
  for (const Image& img : imgs) cnn.embed_into(img, state, out);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (const Image& img : imgs) cnn.embed_into(img, state, out);
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace apx
