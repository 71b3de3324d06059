// A1 (Ablation 1) — the recall-vs-latency frontier of the three local
// index backends: fixed/adaptive bucketed p-stable LSH vs query-aware
// QALSH, as the cache densifies from 10k to 1M entries.
//
// The workload is the cache's steady state: a bounded object population
// (64 clusters) accumulating near-duplicate views, so clusters grow into
// dense hotspots as n grows. Most queries are fresh views of a cached
// object (tiny k-th-neighbour distance); a minority are drifted views
// whose nearest neighbour sits ~25x further out. That drift tail is the
// fixed-width killer: a bucketed index must widen its ONE global width
// until the tail's neighbours collide, and at that width every easy query
// drags in its whole hotspot (candidates grow linearly with n). QALSH
// sizes the search radius per query — the controller's start radius keeps
// the easy majority at a narrow first round, and only the drifted tail
// pays extra virtual-rehash rounds — so the median stays cheap at 1M.
//
// Every backend is scored against the same exact ground truth (computed
// once per dataset) and reports recall@1 alongside wall-clock p50/p99 and
// mean candidates. The committed BENCH_qalsh.json exhibit compares, per
// size, the best p-stable operating point reaching 0.95 recall@1 against
// the best QALSH point reaching it.

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/common.hpp"
#include "src/ann/adaptive_lsh.hpp"
#include "src/ann/exact_knn.hpp"
#include "src/ann/qalsh.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace apx;
using namespace apx::bench;

constexpr std::size_t kDim = 32;
constexpr std::size_t kClusters = 64;
constexpr double kViewSigma = 0.01;   ///< per-dim spread of cached views
constexpr double kEasySigma = 0.003;  ///< fresh view of a cached entry
constexpr double kHardSigma = 0.13;   ///< drifted view (~40x the easy d_1)

FeatureVec cluster_point(std::size_t cluster, Rng& rng) {
  Rng crng{cluster * 7717 + 1};
  FeatureVec v(kDim);
  for (float& x : v) x = static_cast<float>(crng.normal());
  normalize(v);
  for (float& x : v) x += static_cast<float>(rng.normal(0.0, kViewSigma));
  return v;
}

/// A query re-observes a random stored view; every tenth query has
/// drifted far enough that its neighbourhood is ~40x wider.
FeatureVec query_point(const std::vector<FeatureVec>& data, std::size_t q,
                       Rng& rng) {
  FeatureVec v = data[rng.uniform_u64(data.size())];
  const double sigma = q % 10 == 0 ? kHardSigma : kEasySigma;
  for (float& x : v) x += static_cast<float>(rng.normal(0.0, sigma));
  return v;
}

struct Frontier {
  double recall = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_candidates = 0.0;
};

/// Warms the backend (its width/radius controller sees real traffic), then
/// times every query and scores the batch against the shared ground truth.
Frontier probe(NnIndex& index, const GroundTruth& truth,
               const std::vector<FeatureVec>& queries) {
  using Clock = std::chrono::steady_clock;
  std::vector<Neighbor> out;
  QueryStats st;
  const std::size_t warm = std::min<std::size_t>(64, queries.size());
  std::vector<QueryStats> seen(warm);
  for (std::size_t i = 0; i < warm; ++i) {
    index.query_into(queries[i], 1, out, &seen[i]);
  }
  // The cache folds each lookup batch's query stats back into the index;
  // give every backend the same signal (a no-op for p-stable, the width
  // controller for A-LSH, the start-radius retune for QALSH).
  index.observe_queries(seen);
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<double> ns(queries.size());
  double candidates = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto t0 = Clock::now();
    index.query_into(queries[i], 1, results[i], &st);
    const auto t1 = Clock::now();
    ns[i] = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    candidates += static_cast<double>(st.candidates);
  }
  Frontier f;
  f.recall = recall_at_k(results, truth);
  f.mean_candidates = candidates / static_cast<double>(queries.size());
  f.p50_ns = percentile(ns, 50.0);
  f.p99_ns = percentile(ns, 99.0);
  return f;
}

struct Row {
  std::string name;
  enum class Family { kPStable, kAdaptive, kQalsh } family;
  Frontier f;
};

/// Best p50 among rows of `family` reaching `min_recall`; falls back to the
/// family's highest-recall row when none does (reported as-is: the exhibit
/// then shows the family simply cannot reach the recall target).
const Row* best_at_recall(const std::vector<Row>& rows,
                          Row::Family family, double min_recall) {
  const Row* best = nullptr;
  const Row* fallback = nullptr;
  for (const Row& row : rows) {
    if (row.family != family) continue;
    if (fallback == nullptr || row.f.recall > fallback->f.recall) {
      fallback = &row;
    }
    if (row.f.recall >= min_recall &&
        (best == nullptr || row.f.p50_ns < best->f.p50_ns)) {
      best = &row;
    }
  }
  return best != nullptr ? best : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_qalsh.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  banner("A1", "index backend recall-vs-latency frontier",
         "bucketed LSH trades recall for candidates with one global width; "
         "QALSH holds recall per query and keeps the median cheap");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};

  BenchJson json("a1_qalsh_frontier", kDim, sizes.back());
  TextTable table;
  table.header({"size", "backend", "recall@1", "p50(us)", "p99(us)",
                "mean candidates"});

  for (const std::size_t size : sizes) {
    Rng rng{42};
    std::vector<FeatureVec> data;
    data.reserve(size);
    for (std::size_t id = 0; id < size; ++id) {
      data.push_back(cluster_point(id % kClusters, rng));
    }
    const std::size_t nq = size >= 1'000'000 ? 200 : 300;
    Rng qrng{7};
    std::vector<FeatureVec> queries;
    queries.reserve(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      queries.push_back(query_point(data, q, qrng));
    }
    ExactKnnIndex truth{kDim};
    for (VecId id = 0; id < size; ++id) truth.insert(id, data[id]);
    const GroundTruth gt = exact_ground_truth(truth, queries, 1);

    std::vector<Row> rows;
    for (const float width : {0.25f, 0.5f, 1.0f, 2.0f, 4.0f}) {
      LshParams p;
      p.num_tables = 4;
      p.hashes_per_table = 8;
      p.bucket_width = width;
      PStableLshIndex index{kDim, p};
      for (VecId id = 0; id < size; ++id) index.insert(id, data[id]);
      char name[32];
      std::snprintf(name, sizeof(name), "pstable_w%g",
                    static_cast<double>(width));
      rows.push_back({name, Row::Family::kPStable,
                      probe(index, gt, queries)});
    }
    {
      AdaptiveLshParams p;
      p.lsh.num_tables = 4;
      p.lsh.hashes_per_table = 8;
      p.lsh.bucket_width = 4.0f;  // starts bad on purpose; the EMA adapts
      p.min_queries_between_rebuilds = 32;
      AdaptiveLshIndex index{kDim, p};
      for (VecId id = 0; id < size; ++id) index.insert(id, data[id]);
      rows.push_back({"a-lsh", Row::Family::kAdaptive,
                      probe(index, gt, queries)});
    }
    for (const float c : {1.5f, 2.0f, 3.0f}) {
      QalshParams p;
      p.c = c;
      QalshIndex index{kDim, p};
      for (VecId id = 0; id < size; ++id) index.insert(id, data[id]);
      index.flush();  // bulk load done: no unsorted tails during queries
      char name[32];
      std::snprintf(name, sizeof(name), "qalsh_c%g",
                    static_cast<double>(c));
      rows.push_back({name, Row::Family::kQalsh,
                      probe(index, gt, queries)});
    }

    const std::string size_label =
        size % 1'000'000 == 0 ? std::to_string(size / 1'000'000) + "M"
                              : std::to_string(size / 1'000) + "k";
    for (const Row& row : rows) {
      table.row({size_label, row.name, TextTable::num(row.f.recall, 3),
                 TextTable::num(row.f.p50_ns / 1000.0, 1),
                 TextTable::num(row.f.p99_ns / 1000.0, 1),
                 TextTable::num(row.f.mean_candidates, 1)});
      json.extra(size_label + "_" + row.name + "_recall",
                 row.f.recall);
    }
    const Row* pstable =
        best_at_recall(rows, Row::Family::kPStable, 0.95);
    const Row* qalsh = best_at_recall(rows, Row::Family::kQalsh, 0.95);
    const Row* alsh = best_at_recall(rows, Row::Family::kAdaptive, 0.95);
    if (pstable != nullptr && qalsh != nullptr) {
      json.metric("p50_at_recall95_" + size_label,
                  pstable->f.p50_ns, qalsh->f.p50_ns);
      json.extra(size_label + "_pstable_pick_recall",
                 pstable->f.recall);
      json.extra(size_label + "_qalsh_pick_recall",
                 qalsh->f.recall);
    }
    if (alsh != nullptr) {
      json.extra(size_label + "_alsh_p50_ns", alsh->f.p50_ns);
    }
  }

  std::printf("%s", table.render().c_str());
  if (!json.write(json_path)) return 1;
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
