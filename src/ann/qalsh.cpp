#include "src/ann/qalsh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx {

namespace {

/// Ascending (projection, slot): the canonical line order. The slot
/// tie-break makes merges deterministic for equal projections.
struct EntryLess {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    return a.proj < b.proj || (a.proj == b.proj && a.slot < b.slot);
  }
};

/// P(|N(0, sigma)| <= h) for sigma = 1: the p-stable collision probability
/// of a window of half-width h at unit distance.
double collision_prob(double h) noexcept {
  return std::erf(h / std::sqrt(2.0));
}

}  // namespace

QalshIndex::QalshIndex(std::size_t dim, const QalshParams& params)
    : dim_(dim), params_(params) {
  if (dim == 0 || !(params.c > 1.0f) ||
      !(params.delta > 0.0f && params.delta < 1.0f) ||
      !(params.beta > 0.0f && params.beta <= 1.0f) || !(params.r0 > 0.0f)) {
    throw std::invalid_argument("QalshIndex: bad parameters");
  }
  // Derive the scheme [Huang et al., PVLDB'15 §4]: the window unit w
  // minimizes the hash count for ratio c; m projections and collision
  // threshold l separate distance-1 collisions (probability p1) from
  // distance-c collisions (p2) with failure probability delta and
  // false-positive fraction beta.
  const double c = static_cast<double>(params.c);
  const double w =
      std::sqrt(8.0 * c * c * std::log(c) / (c * c - 1.0));
  const double p1 = collision_prob(w / 2.0);
  const double p2 = collision_prob(w / (2.0 * c));
  const double ln2b = std::log(2.0 / static_cast<double>(params.beta));
  const double ln1d = std::log(1.0 / static_cast<double>(params.delta));
  const double gap = p1 - p2;
  const double md =
      std::ceil((std::sqrt(ln2b) + std::sqrt(ln1d)) *
                (std::sqrt(ln2b) + std::sqrt(ln1d)) / (2.0 * gap * gap));
  if (!(md >= 1.0) || md > 4096.0) {
    throw std::invalid_argument(
        "QalshIndex: derived projection count out of range "
        "(c too close to 1, or delta/beta too tight)");
  }
  const double eta = std::sqrt(ln2b / ln1d);
  const double alpha = (eta * p1 + p2) / (1.0 + eta);
  scheme_.w = static_cast<float>(w);
  scheme_.p1 = static_cast<float>(p1);
  scheme_.p2 = static_cast<float>(p2);
  scheme_.m = static_cast<std::size_t>(md);
  scheme_.l = std::min(
      scheme_.m,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(alpha * md))));
  start_radius_ = params.r0;

  Rng rng{params.seed};
  proj_.resize(scheme_.m * dim);
  for (float& x : proj_) x = static_cast<float>(rng.normal());
  lines_.resize(scheme_.m);
  scratch_.proj_q.resize(scheme_.m);
  scratch_.left.resize(scheme_.m);
  scratch_.right.resize(scheme_.m);
  scratch_.pending_left.resize(scheme_.m);
}

QalshIndex::Slot QalshIndex::claim_slot(VecId id, const FeatureVec& v) {
  Slot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = id;
    alive_[slot] = 1;
  } else {
    slot = static_cast<Slot>(slot_ids_.size());
    slot_ids_.push_back(id);
    alive_.push_back(1);
    arena_.resize(arena_.size() + dim_);
    if (quantized()) {
      code_arena_.resize(code_arena_.size() + dim_);
      sq8_offset_.resize(sq8_offset_.size() + 1);
      sq8_scale_.resize(sq8_scale_.size() + 1);
      sq8_recon_norm_sq_.resize(sq8_recon_norm_sq_.size() + 1);
    }
  }
  std::copy(v.begin(), v.end(),
            arena_.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(slot) * dim_));
  if (quantized()) {
    const Sq8Stats st = sq8_encode(
        v, code_arena_.data() + static_cast<std::size_t>(slot) * dim_);
    sq8_offset_[slot] = st.offset;
    sq8_scale_[slot] = st.scale;
    sq8_recon_norm_sq_[slot] = st.recon_norm_sq;
  }
  return slot;
}

void QalshIndex::insert(VecId id, const FeatureVec& v) {
  if (v.size() != dim_) {
    // A longer vector would be copied past its arena row.
    throw std::invalid_argument("QalshIndex::insert: bad vector size");
  }
  // Validate before any state changes: a non-finite projection would poison
  // the sorted line order (and sq8_encode rejects it anyway), and throwing
  // after the slot was claimed would leave the id map inconsistent.
  for (const float x : v) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument("QalshIndex::insert: non-finite value");
    }
  }
  const auto [it, inserted] = id_to_slot_.try_emplace(id, Slot{0});
  if (!inserted) {
    // A silent duplicate would stack a second slot under the same id and
    // leave the first one stale in every line — corrupt under NDEBUG.
    throw std::invalid_argument("QalshIndex::insert: duplicate id");
  }
  const Slot slot = claim_slot(id, v);
  it->second = slot;
  // One matrix-vector pass over the flat projection matrix, then append to
  // every line's pending tail (merged in batches, below).
  dot_batch(v, proj_.data(), scheme_.m, scratch_.proj_q.data());
  for (std::size_t i = 0; i < scheme_.m; ++i) {
    lines_[i].pending.push_back({scratch_.proj_q[i], slot});
  }
  // Amortized merge: a per-insert merge would be O(n) each;
  // batching max(64, n/64) inserts amortizes the merge while bounding the
  // unsorted tail queries must linearly scan — capped at 4096 so tail
  // scans stay bounded even in very large indexes.
  if (lines_[0].pending.size() >
      std::max<std::size_t>(
          64, std::min<std::size_t>(4096, id_to_slot_.size() / 64))) {
    merge_pending();
  }
}

void QalshIndex::flush() {
  if (!lines_.empty() && !lines_[0].pending.empty()) merge_pending();
}

void QalshIndex::merge_pending() {
  // std::merge into a second array, not std::inplace_merge: with GCC 12's
  // libstdc++ the latter's temporary buffer trips ASan's alloc-dealloc
  // mismatch check (operator new vs free), failing the asan-ubsan suite.
  // EntryLess is a total order (slots are unique per line), so both merges
  // produce the same array.
  std::vector<Entry> merged;
  for (HashLine& line : lines_) {
    std::sort(line.pending.begin(), line.pending.end(), EntryLess{});
    merged.resize(line.sorted.size() + line.pending.size());
    std::merge(line.sorted.begin(), line.sorted.end(), line.pending.begin(),
               line.pending.end(), merged.begin(), EntryLess{});
    line.sorted.swap(merged);  // the old array is reused for the next line
    line.pending.clear();
  }
  ++merges_;
  if (metrics_ != nullptr) metrics_->inc(merges_counter_);
}

bool QalshIndex::remove(VecId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const Slot slot = it->second;
  // Tombstone only: the slot's line entries stay in place (sweeps skip dead
  // slots at candidacy) and the slot is NOT reusable until compaction has
  // filtered those entries — reuse before that would alias a fresh vector
  // with a stale projection.
  alive_[slot] = 0;
  dead_slots_.push_back(slot);
  id_to_slot_.erase(it);
  if (dead_slots_.size() >
      std::max<std::size_t>(64, id_to_slot_.size() / 4)) {
    compact();
  }
  return true;
}

void QalshIndex::compact() {
  for (HashLine& line : lines_) {
    // Stable filters: the surviving sorted order is preserved as-is.
    std::erase_if(line.sorted,
                  [this](const Entry& e) { return alive_[e.slot] == 0; });
    std::erase_if(line.pending,
                  [this](const Entry& e) { return alive_[e.slot] == 0; });
  }
  free_slots_.insert(free_slots_.end(), dead_slots_.begin(),
                     dead_slots_.end());
  dead_slots_.clear();
  ++compactions_;
  if (metrics_ != nullptr) metrics_->inc(compactions_counter_);
}

void QalshIndex::score_from(std::span<const float> q, std::size_t from,
                            std::size_t k) const {
  QueryScratch& sc = scratch_;
  const std::size_t total = sc.candidates.size();
  if (total == from) return;
  if (sc.distances.size() < total) sc.distances.resize(total);
  const std::span<const std::uint32_t> fresh{sc.candidates.data() + from,
                                             total - from};
  if (quantized()) {
    float q_norm_sq = 0.0f;
    float q_sum = 0.0f;
    for (const float x : q) {
      q_norm_sq += x * x;
      q_sum += x;
    }
    adc_l2_sq_gather(q, q_norm_sq, q_sum, code_arena_.data(),
                     sq8_offset_.data(), sq8_scale_.data(),
                     sq8_recon_norm_sq_.data(), fresh,
                     sc.distances.data() + from);
  } else {
    l2_sq_gather(q, arena_.data(), fresh, sc.distances.data() + from);
  }
  // Feed the k-element max-heap of best (squared) distances — the running
  // k-th-best the C1 termination check reads in O(1).
  for (std::size_t i = from; i < total; ++i) {
    const float d = sc.distances[i];
    if (sc.heap.size() < k) {
      sc.heap.push_back(d);
      std::push_heap(sc.heap.begin(), sc.heap.end());
    } else if (d < sc.heap.front()) {
      std::pop_heap(sc.heap.begin(), sc.heap.end());
      sc.heap.back() = d;
      std::push_heap(sc.heap.begin(), sc.heap.end());
    }
  }
}

void QalshIndex::collect(std::span<const float> q, std::size_t k,
                         QueryStats& st) const {
  QueryScratch& sc = scratch_;
  const float* proj_q = sc.proj_q.data();
  const std::size_t m = scheme_.m;
  const std::uint16_t l = static_cast<std::uint16_t>(scheme_.l);
  const std::size_t n = id_to_slot_.size();

  // Stamp-reset collision-frequency table over arena slots: no clearing
  // between queries (a stamp survives until the 32-bit generation wraps,
  // at which point the table is rewritten once).
  if (sc.freq.size() < slot_count()) {
    sc.freq.resize(slot_count(), 0);
    sc.stamp.resize(slot_count(), 0);
  }
  if (++sc.generation == 0) {
    std::fill(sc.stamp.begin(), sc.stamp.end(), 0u);
    sc.generation = 1;
  }
  const std::uint32_t gen = sc.generation;

  sc.candidates.clear();
  sc.candidates.reserve(sc.last_candidates);
  sc.heap.clear();

  // Query-centric cursor init: each line's two pointers start at the
  // query's own projection and only ever move outward.
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<Entry>& sorted = lines_[i].sorted;
    const float pq = proj_q[i];
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), pq,
        [](const Entry& e, float val) { return e.proj < val; });
    const auto idx = static_cast<std::uint32_t>(it - sorted.begin());
    sc.left[i] = idx;
    sc.right[i] = idx;
    sc.pending_left[i] =
        static_cast<std::uint32_t>(lines_[i].pending.size());
  }

  // C2 candidate budget: k true positives plus the beta*n false-positive
  // allowance the scheme was derived for.
  const std::size_t want =
      k + static_cast<std::size_t>(
              std::ceil(static_cast<double>(params_.beta) *
                        static_cast<double>(n)));
  const float c = params_.c;
  float radius = start_radius_;
  float prev_hw = -1.0f;  // below any |diff|, so round 1 sweeps (0, hw]
  std::size_t scored = 0;
  bool done = false;

  while (!done) {
    ++st.rounds;
    // Virtual rehashing: the collision window at radius R is
    // |h(o) - h(q)| <= w*R/2 — widening R touches no stored state.
    const float hw = 0.5f * scheme_.w * radius;
    bool exhausted = true;
    for (std::size_t i = 0; i < m && !done; ++i) {
      const HashLine& line = lines_[i];
      const float pq = proj_q[i];
      const auto touch = [&](Slot slot) {
        ++st.collisions;
        if (sc.stamp[slot] != gen) {
          sc.stamp[slot] = gen;
          sc.freq[slot] = 0;
        }
        if (++sc.freq[slot] == l && alive_[slot] != 0) {
          sc.candidates.push_back(slot);
        }
      };
      std::uint32_t rt = sc.right[i];
      while (rt < line.sorted.size() && line.sorted[rt].proj - pq <= hw) {
        touch(line.sorted[rt].slot);
        ++rt;
      }
      sc.right[i] = rt;
      std::uint32_t lt = sc.left[i];
      while (lt > 0 && pq - line.sorted[lt - 1].proj <= hw) {
        touch(line.sorted[lt - 1].slot);
        --lt;
      }
      sc.left[i] = lt;
      if (sc.pending_left[i] > 0) {
        // The unmerged tail has no sorted order: scan it per round, each
        // entry counted exactly once when the growing window first covers
        // it (the (prev_hw, hw] windows partition the projection axis).
        std::uint32_t left_cnt = sc.pending_left[i];
        for (const Entry& e : line.pending) {
          const float d = std::abs(e.proj - pq);
          if (d <= hw && d > prev_hw) {
            touch(e.slot);
            --left_cnt;
          }
        }
        sc.pending_left[i] = left_cnt;
      }
      if (lt > 0 || rt < line.sorted.size() || sc.pending_left[i] > 0) {
        exhausted = false;
      }
      // C2, checked per line so a dense round can't overshoot the budget
      // by more than one line's sweep.
      if (sc.candidates.size() >= want) {
        st.stop = SweepStop::kC2;
        done = true;
      }
    }
    // Score this round's new candidates in one gather pass.
    if (sc.candidates.size() > scored) {
      score_from(q, scored, k);
      scored = sc.candidates.size();
    }
    if (done) break;
    // C1: k candidates found and the k-th best already lies within c*R —
    // by the QALSH argument the true nearest neighbour is then covered at
    // ratio c. Distances are squared, so compare against (c*R)^2. On the
    // quantized path the check reads ADC distances: candidate *selection*
    // stays approximate, the returned distances are re-ranked exactly.
    if (k > 0 && sc.heap.size() >= k) {
      const float bound = c * radius;
      if (sc.heap.front() <= bound * bound) {
        st.stop = SweepStop::kC1;
        break;
      }
    }
    if (exhausted) {
      // Every line fully swept: every live slot reached frequency m >= l,
      // so the candidate set is the whole index and the result is exact.
      st.stop = SweepStop::kExhausted;
      break;
    }
    prev_hw = hw;
    radius *= c;
  }
  sc.last_candidates = sc.candidates.size();
}

void QalshIndex::finalize(std::span<const float> q, std::size_t k,
                          std::vector<Neighbor>& out, QueryStats& st) const {
  QueryScratch& sc = scratch_;
  out.clear();
  const std::size_t n = sc.candidates.size();
  st.candidates = n;
  st.rerank_survivors = 0;
  if (n == 0 || k == 0) return;
  const auto by_distance_then_id = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.id < b.id);
  };
  if (!quantized()) {
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(
          {slot_ids_[sc.candidates[i]], std::sqrt(sc.distances[i])});
    }
    const std::size_t take = std::min(k, out.size());
    std::partial_sort(out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(take),
                      out.end(), by_distance_then_id);
    out.resize(take);
    return;
  }
  // Quantized path: sc.distances holds ADC scores. Keep the rerank_k best
  // (at least k), re-score them exactly — identical discipline to the LSH
  // family's score_quantized, so `local(q8)` semantics carry over.
  const std::size_t rerank =
      std::min(std::max(params_.quantize.rerank_k, k), n);
  if (sc.rank_order.size() < n) sc.rank_order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) sc.rank_order[i] = i;
  std::partial_sort(
      sc.rank_order.begin(),
      sc.rank_order.begin() + static_cast<std::ptrdiff_t>(rerank),
      sc.rank_order.begin() + static_cast<std::ptrdiff_t>(n),
      [&sc](std::uint32_t a, std::uint32_t b) {
        return sc.distances[a] < sc.distances[b] ||
               (sc.distances[a] == sc.distances[b] &&
                sc.candidates[a] < sc.candidates[b]);
      });
  if (sc.survivors.size() < rerank) sc.survivors.resize(rerank);
  for (std::size_t i = 0; i < rerank; ++i) {
    sc.survivors[i] = sc.candidates[sc.rank_order[i]];
  }
  st.rerank_survivors = rerank;
  if (sc.exact.size() < rerank) sc.exact.resize(rerank);
  l2_sq_gather(q, arena_.data(), {sc.survivors.data(), rerank},
               sc.exact.data());
  out.reserve(rerank);
  for (std::size_t i = 0; i < rerank; ++i) {
    out.push_back({slot_ids_[sc.survivors[i]], std::sqrt(sc.exact[i])});
  }
  const std::size_t take = std::min(k, out.size());
  std::partial_sort(out.begin(),
                    out.begin() + static_cast<std::ptrdiff_t>(take),
                    out.end(), by_distance_then_id);
  out.resize(take);
}

void QalshIndex::query_impl(std::span<const float> q, std::size_t k,
                            std::vector<Neighbor>& out,
                            QueryStats* stats) const {
  QueryStats st;
  st.stop = SweepStop::kExhausted;  // nothing to sweep counts as exhausted
  if (k == 0 || id_to_slot_.empty()) {
    out.clear();
  } else {
    dot_batch(q, proj_.data(), scheme_.m, scratch_.proj_q.data());
    collect(q, k, st);
    finalize(q, k, out, st);
    if (!out.empty()) st.farthest = out.back().distance;
  }
  if (stats != nullptr) *stats = st;
}

void QalshIndex::observe_queries(std::span<const QueryStats> stats) {
  for (const QueryStats& st : stats) {
    if (metrics_ != nullptr) {
      metrics_->record(candidates_hist_, static_cast<double>(st.candidates));
      if (quantized()) {
        metrics_->record(rerank_hist_,
                         static_cast<double>(st.rerank_survivors));
      }
      metrics_->record(collisions_hist_, static_cast<double>(st.collisions));
      metrics_->record(rounds_hist_, static_cast<double>(st.rounds));
      switch (st.stop) {
        case SweepStop::kC1: metrics_->inc(c1_counter_); break;
        case SweepStop::kC2: metrics_->inc(c2_counter_); break;
        case SweepStop::kExhausted: metrics_->inc(exhausted_counter_); break;
        case SweepStop::kNone: break;
      }
    }
    const double dk = static_cast<double>(st.farthest);
    if (dk <= 0.0) continue;
    if (has_ema_) {
      dk_ema_ += kEmaAlpha * (dk - dk_ema_);
    } else {
      dk_ema_ = dk;
      has_ema_ = true;
    }
  }
  if (has_ema_) retune_start_radius();
}

void QalshIndex::retune_start_radius() {
  // Start one expansion below the observed k-th-neighbour distance: the
  // schedule then terminates in ~2 rounds instead of climbing from r0.
  // Skipping rounds is safe — collision frequencies at radius R are
  // identical whatever schedule reached R (each entry is counted exactly
  // once when the window first covers it), so recall is unaffected; only
  // the skipped rounds' C1/C2 early-outs are forfeited. The adaptation
  // goes both ways: on near-duplicate traffic the start radius drops well
  // below r0 (the first round's half-width — and with it the number of
  // entries touched — scales with the radius), and on drifted traffic it
  // climbs so easy rounds are not wasted.
  const float target = static_cast<float>(dk_ema_) / params_.c;
  start_radius_ = std::max(1.0e-4f, std::min(target, 1.0e6f));
}

FeatureVec QalshIndex::reconstructed(VecId id) const {
  if (!quantized()) return {};
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return {};
  const Slot slot = it->second;
  const std::uint8_t* codes =
      code_arena_.data() + static_cast<std::size_t>(slot) * dim_;
  FeatureVec v(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    v[i] = sq8_offset_[slot] +
           sq8_scale_[slot] * static_cast<float>(codes[i]);
  }
  return v;
}

void QalshIndex::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  candidates_hist_ = metrics.histogram("ann/candidates", count_bounds());
  if (quantized()) {
    rerank_hist_ = metrics.histogram("ann/rerank_survivors", count_bounds());
  }
  // The "ann/qalsh" subsystem group (tools/metrics_schema.json): registered
  // whole at attach time so exports carry every instrument (as zeros when
  // idle) and the all-or-nothing schema check holds.
  collisions_hist_ = metrics.histogram("ann/qalsh/collisions", count_bounds());
  rounds_hist_ = metrics.histogram("ann/qalsh/rounds", count_bounds());
  c1_counter_ = metrics.counter("ann/qalsh/c1_stop");
  c2_counter_ = metrics.counter("ann/qalsh/c2_stop");
  exhausted_counter_ = metrics.counter("ann/qalsh/exhausted");
  merges_counter_ = metrics.counter("ann/qalsh/merges");
  compactions_counter_ = metrics.counter("ann/qalsh/compactions");
}

}  // namespace apx
