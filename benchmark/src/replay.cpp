#include "benchmark/src/replay.hpp"

#include <functional>
#include <unordered_map>

#include "src/ann/factory.hpp"
#include "src/ann/hknn.hpp"
#include "src/cache/approx_cache.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/sim/runner.hpp"

namespace apxbench {

namespace {

// Replayed inserts have no DNN confidence; any fixed value serves, since
// only eviction scores read it.
constexpr float kReplayConfidence = 0.9f;

void replay_device(const apx::ScenarioConfig& cfg, std::size_t dim,
                   const std::vector<const RecordedKey*>& keys, Tracer& tracer,
                   ReplayResult& out) {
  const apx::ApproxCacheConfig& cache_cfg = cfg.pipeline.cache;
  apx::ApproxCache cache(dim, cache_cfg, apx::make_eviction(cfg.eviction));
  for (const RecordedKey* key : keys) {
    apx::CacheResult res;
    {
      ScopedSpan span(&tracer, SpanName::kCacheLookup, key->device,
                      key->frame);
      res = cache.lookup({.features = key->features, .now = key->now});
    }
    if (!res.vote.has_value()) {
      ScopedSpan span(&tracer, SpanName::kCacheInsert, key->device,
                      key->frame);
      cache.insert(key->features, key->label, kReplayConfidence, key->now);
    }
  }

  const std::unique_ptr<apx::NnIndex> index = apx::make_index(
      cache_cfg.index, dim, cache_cfg.alsh, cache_cfg.qalsh);
  std::unordered_map<apx::VecId, apx::Label> labels;
  cache.for_each([&](const apx::CacheEntry& entry) {
    index->insert(entry.id, entry.feature);
    labels.emplace(entry.id, entry.label);
  });
  const std::function<apx::Label(apx::VecId)> label_of =
      [&labels](apx::VecId id) { return labels.at(id); };
  std::vector<apx::Neighbor> neighbors;
  for (const RecordedKey* key : keys) {
    apx::QueryStats stats;
    {
      ScopedSpan span(&tracer, SpanName::kAnnQuery, key->device, key->frame);
      index->query_into(key->features, cache_cfg.hknn.k, neighbors, &stats);
    }
    ++out.ann_queries;
    out.ann_candidates += stats.candidates;
    ScopedSpan span(&tracer, SpanName::kAnnVote, key->device, key->frame);
    (void)apx::hknn_vote(neighbors, label_of, cache_cfg.hknn);
  }
}

}  // namespace

ReplayResult replay_keys(const FleetInputs& inputs,
                         const std::vector<RecordedKey>& keys,
                         Tracer& tracer) {
  const apx::ScenarioConfig& cfg = inputs.config;
  const std::size_t dim = inputs.extractor->dim();
  ReplayResult out;
  for (int d = 0; d < cfg.num_devices; ++d) {
    std::vector<const RecordedKey*> device_keys;
    for (const RecordedKey& key : keys) {
      if (key.device == d) device_keys.push_back(&key);
    }
    replay_device(cfg, dim, device_keys, tracer, out);
  }

  // One region edge service sees every device's keys in the order they were
  // extracted, which is simulated-time order. It runs on every workload so
  // its cost is defined everywhere; only crowd's ladder has an edge rung.
  apx::EdgeParams edge_params = cfg.pipeline.edge;
  edge_params.cache = cfg.pipeline.cache;
  apx::EdgeCacheService edge(dim, edge_params);
  for (const RecordedKey& key : keys) {
    apx::CacheResult res;
    {
      ScopedSpan span(&tracer, SpanName::kEdgeQuery, key.device, key.frame);
      res = edge.query(key.features, key.now);
    }
    if (!res.vote.has_value()) {
      ScopedSpan span(&tracer, SpanName::kEdgeFeed, key.device, key.frame);
      edge.feed(key.features, key.label, kReplayConfidence, key.now,
                static_cast<std::uint32_t>(key.device));
    }
  }
  return out;
}

}  // namespace apxbench
