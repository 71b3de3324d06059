#include "src/ann/lsh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"

namespace apx {

PStableLshIndex::PStableLshIndex(std::size_t dim, const LshParams& params)
    : dim_(dim), params_(params) {
  if (dim == 0 || params.num_tables == 0 || params.hashes_per_table == 0 ||
      params.bucket_width <= 0.0f) {
    throw std::invalid_argument("PStableLshIndex: bad parameters");
  }
  Rng rng{params.seed};
  tables_.resize(params.num_tables);
  for (auto& table : tables_) {
    table.projections.resize(params.hashes_per_table * dim);
    table.offsets.resize(params.hashes_per_table);
    for (std::size_t h = 0; h < params.hashes_per_table; ++h) {
      float* row = table.projections.data() + h * dim;
      for (std::size_t i = 0; i < dim; ++i) {
        row[i] = static_cast<float>(rng.normal());
      }
      table.offsets[h] =
          static_cast<float>(rng.uniform(0.0, params.bucket_width));
    }
  }
  scratch_.projected.resize(params.hashes_per_table);
  scratch_.coords.resize(params.hashes_per_table);
  scratch_.fractions.resize(params.hashes_per_table);
  scratch_.order.resize(params.hashes_per_table);
  scratch_.keys.resize(tables_.size() * (1 + probes()));
}

namespace {

/// Finalizer from MurmurHash3: full 64-bit avalanche in three multiplies.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Word-at-a-time key over the quantized projections: one avalanche per
/// coordinate (chained, so position matters) instead of the old FNV-1a
/// byte loop (8 xor-multiplies per coordinate).
inline std::uint64_t hash_coords(std::span<const std::int64_t> coords) noexcept {
  std::uint64_t key = 0x9e3779b97f4a7c15ULL ^ coords.size();
  for (const std::int64_t q : coords) {
    key = mix64(key ^ static_cast<std::uint64_t>(q));
  }
  return key;
}

}  // namespace

std::uint64_t PStableLshIndex::compute_coords(const Table& table,
                                              std::span<const float> v,
                                              bool want_fractions) const {
  QueryScratch& sc = scratch_;
  const std::size_t k = params_.hashes_per_table;
  // One matrix-vector pass over the table's contiguous projection rows.
  dot_batch(v, table.projections.data(), k, sc.projected.data());
  const float inv_w = 1.0f / params_.bucket_width;
  for (std::size_t h = 0; h < k; ++h) {
    const float scaled = (sc.projected[h] + table.offsets[h]) * inv_w;
    const float floor_val = std::floor(scaled);
    sc.coords[h] = static_cast<std::int64_t>(floor_val);
    if (want_fractions) sc.fractions[h] = scaled - floor_val;
  }
  return hash_coords(sc.coords);
}

void PStableLshIndex::link_slot(Slot slot) {
  const std::span<const float> v = slot_vec(slot);
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const std::uint64_t key =
        compute_coords(tables_[t], v, /*want_fractions=*/false);
    tables_[t].buckets[key].push_back(slot);
    slot_keys_[static_cast<std::size_t>(slot) * tables_.size() + t] = key;
  }
}

void PStableLshIndex::insert(VecId id, const FeatureVec& v) {
  if (v.size() != dim_) {
    // A longer vector would be copied past its arena row.
    throw std::invalid_argument("PStableLshIndex::insert: bad vector size");
  }
  if (quantized()) {
    // Validate before any state changes: sq8_encode rejects non-finite
    // input, and throwing after the slot was claimed would leave the id
    // map and tables inconsistent.
    for (const float x : v) {
      if (!std::isfinite(x)) {
        throw std::invalid_argument(
            "PStableLshIndex::insert: non-finite value on quantized index");
      }
    }
  }
  const auto [it, inserted] = id_to_slot_.try_emplace(id, Slot{0});
  if (!inserted) {
    // A silent duplicate would stack a second slot under the same id and
    // leave the first one stale in every table — corrupt under NDEBUG.
    throw std::invalid_argument("PStableLshIndex::insert: duplicate id");
  }
  Slot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = id;
  } else {
    slot = static_cast<Slot>(slot_ids_.size());
    slot_ids_.push_back(id);
    arena_.resize(arena_.size() + dim_);
    slot_keys_.resize(slot_keys_.size() + tables_.size());
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
    // Encode into the slot's code row; a reused slot's stale codes are
    // overwritten here, so codes and floats can never diverge.
    const Sq8Stats st = sq8_encode(
        v, code_arena_.data() + static_cast<std::size_t>(slot) * dim_);
    sq8_offset_[slot] = st.offset;
    sq8_scale_[slot] = st.scale;
    sq8_recon_norm_sq_[slot] = st.recon_norm_sq;
  }
  it->second = slot;
  link_slot(slot);
}

bool PStableLshIndex::remove(VecId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const Slot slot = it->second;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    auto& table = tables_[t];
    const std::uint64_t key =
        slot_keys_[static_cast<std::size_t>(slot) * tables_.size() + t];
    const auto bucket_it = table.buckets.find(key);
    if (bucket_it != table.buckets.end()) {
      auto& slots = bucket_it->second;
      slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
      if (slots.empty()) table.buckets.erase(bucket_it);
    }
  }
  free_slots_.push_back(slot);
  id_to_slot_.erase(it);
  return true;
}

void PStableLshIndex::hash_query(const Table& table, std::span<const float> q,
                                 std::uint64_t* keys) const {
  QueryScratch& sc = scratch_;
  const std::size_t p = probes();
  keys[0] = compute_coords(table, q, /*want_fractions=*/p > 0);
  if (p == 0) return;
  // Query-directed multiprobe: flip the coordinates whose projections sit
  // closest to a quantization boundary, one at a time, toward that boundary.
  for (std::uint32_t i = 0; i < sc.order.size(); ++i) sc.order[i] = i;
  std::sort(sc.order.begin(), sc.order.end(),
            [&sc](std::uint32_t a, std::uint32_t b) {
              const float da =
                  std::min(sc.fractions[a], 1.0f - sc.fractions[a]);
              const float db =
                  std::min(sc.fractions[b], 1.0f - sc.fractions[b]);
              return da < db;
            });
  for (std::size_t i = 0; i < p; ++i) {
    const std::uint32_t h = sc.order[i];
    const std::int64_t delta = sc.fractions[h] < 0.5f ? -1 : 1;
    sc.coords[h] += delta;
    keys[1 + i] = hash_coords(sc.coords);
    sc.coords[h] -= delta;  // restore for the next single-flip probe
  }
}

void PStableLshIndex::gather_score(std::span<const float> q, std::size_t k,
                                   std::vector<Neighbor>& out,
                                   QueryStats& st) const {
  QueryScratch& sc = scratch_;
  out.clear();

  // Generation-stamped seen mask over arena slots: dedup is O(candidates)
  // with no sorting and no clearing between queries (a stamp survives until
  // the 32-bit generation wraps, at which point the mask is rewritten once).
  if (sc.seen.size() < slot_count()) sc.seen.resize(slot_count(), 0);
  if (++sc.generation == 0) {
    std::fill(sc.seen.begin(), sc.seen.end(), 0u);
    sc.generation = 1;
  }
  const std::uint32_t gen = sc.generation;

  sc.candidates.clear();
  sc.candidates.reserve(sc.last_candidates);  // typical steady-state size

  const std::size_t per_table = 1 + probes();
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& buckets = tables_[t].buckets;
    for (std::size_t j = 0; j < per_table; ++j) {
      const auto it = buckets.find(sc.keys[t * per_table + j]);
      if (it == buckets.end()) continue;
      for (const Slot slot : it->second) {
        if (sc.seen[slot] != gen) {
          sc.seen[slot] = gen;
          sc.candidates.push_back(slot);
        }
      }
    }
  }
  st.candidates = sc.candidates.size();
  st.rerank_survivors = 0;
  sc.last_candidates = st.candidates;
  if (sc.candidates.empty()) return;

  if (quantized()) {
    score_quantized(q, k, out, st);
    return;
  }

  // Batched scoring: one gather pass over the contiguous arena.
  if (sc.distances.size() < sc.candidates.size()) {
    sc.distances.resize(sc.candidates.size());
  }
  l2_sq_gather(q, arena_.data(), sc.candidates, sc.distances.data());

  out.reserve(sc.candidates.size());
  for (std::size_t i = 0; i < sc.candidates.size(); ++i) {
    out.push_back(
        {slot_ids_[sc.candidates[i]], std::sqrt(sc.distances[i])});
  }
  const std::size_t take = std::min(k, out.size());
  std::partial_sort(out.begin(),
                    out.begin() + static_cast<std::ptrdiff_t>(take),
                    out.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance && a.id < b.id);
                    });
  out.resize(take);
}

void PStableLshIndex::query_impl(std::span<const float> q, std::size_t k,
                                 std::vector<Neighbor>& out,
                                 QueryStats* stats) const {
  const std::size_t per_table = 1 + probes();
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    hash_query(tables_[t], q, scratch_.keys.data() + t * per_table);
  }
  QueryStats st;
  gather_score(q, k, out, st);
  if (!out.empty()) st.farthest = out.back().distance;
  if (stats != nullptr) *stats = st;
}

void PStableLshIndex::observe_queries(std::span<const QueryStats> stats) {
  if (metrics_ == nullptr) return;
  for (const QueryStats& st : stats) {
    metrics_->record(candidates_hist_, static_cast<double>(st.candidates));
    if (quantized()) {
      metrics_->record(rerank_hist_,
                       static_cast<double>(st.rerank_survivors));
    }
  }
}

void PStableLshIndex::score_quantized(std::span<const float> q,
                                      std::size_t k,
                                      std::vector<Neighbor>& out,
                                      QueryStats& st) const {
  QueryScratch& sc = scratch_;
  const std::size_t n = sc.candidates.size();

  // Stage 1 — ADC scan: one uint8 gather pass over the code arena. The
  // per-query terms |q|^2 and sum(q) fold every per-slot affine correction
  // into O(1) arithmetic around the u8 dot product.
  float q_norm_sq = 0.0f;
  float q_sum = 0.0f;
  for (const float x : q) {
    q_norm_sq += x * x;
    q_sum += x;
  }
  if (sc.distances.size() < n) sc.distances.resize(n);
  adc_l2_sq_gather(q, q_norm_sq, q_sum, code_arena_.data(),
                   sq8_offset_.data(), sq8_scale_.data(),
                   sq8_recon_norm_sq_.data(), sc.candidates,
                   sc.distances.data());

  // Stage 2 — survivor selection: the rerank_k best ADC scores (at least k,
  // so the vote never sees fewer neighbours than the float path would keep).
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

  // Stage 3 — exact re-rank: float-arena gather over the survivors only.
  // Returned distances are exact, so H-kNN thresholds and vote semantics
  // match the float path; only candidate *selection* was approximate.
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
                    out.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance && a.id < b.id);
                    });
  out.resize(take);
}

FeatureVec PStableLshIndex::reconstructed(VecId id) const {
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

void PStableLshIndex::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  candidates_hist_ = metrics.histogram("ann/candidates", count_bounds());
  if (quantized()) {
    rerank_hist_ = metrics.histogram("ann/rerank_survivors", count_bounds());
  }
}

void PStableLshIndex::rebuild_with_width(float new_width) {
  if (new_width <= 0.0f) {
    throw std::invalid_argument("rebuild_with_width: width <= 0");
  }
  // Rescale offsets proportionally so they stay uniform in [0, w).
  const float scale = new_width / params_.bucket_width;
  params_.bucket_width = new_width;
  for (auto& table : tables_) {
    table.buckets.clear();
    for (float& off : table.offsets) off *= scale;
  }
  for (const auto& [id, slot] : id_to_slot_) {
    link_slot(slot);
  }
}

}  // namespace apx
