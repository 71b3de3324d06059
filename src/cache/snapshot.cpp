#include "src/cache/snapshot.hpp"

#include <algorithm>

#include "src/util/serialize.hpp"

namespace apx {
namespace {

constexpr std::uint32_t kMagic = 0x41504358;  // "APCX"
constexpr std::uint8_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> save_snapshot(const ApproxCache& cache,
                                        SimTime now) {
  Writer w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.varint(cache.dim());
  w.varint(cache.size());
  // Deterministic order: collect and sort by id.
  std::vector<const CacheEntry*> entries;
  entries.reserve(cache.size());
  cache.for_each([&entries](const CacheEntry& e) { entries.push_back(&e); });
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->id < b->id;
            });
  for (const CacheEntry* e : entries) {
    w.f32_vec(e->feature);
    w.i64(e->label);
    w.f32(e->confidence);
    w.i64(std::max<SimDuration>(0, now - e->insert_time));  // age
    w.u8(static_cast<std::uint8_t>(e->origin));
    w.u8(e->hop_count);
    w.u32(e->source_device);
    w.u32(e->access_count);
  }
  return w.take();
}

std::size_t load_snapshot(ApproxCache& cache,
                          const std::vector<std::uint8_t>& bytes,
                          SimTime now) {
  Reader r{bytes};
  if (r.u32() != kMagic) throw CodecError("snapshot: bad magic");
  if (r.u8() != kVersion) throw CodecError("snapshot: unsupported version");
  const std::uint64_t dim = r.varint();
  if (dim != cache.dim()) throw CodecError("snapshot: dimension mismatch");
  const std::uint64_t count = r.varint();
  std::size_t restored = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    FeatureVec feature = r.f32_vec();
    // A corrupted snapshot can decode into non-finite floats, which the
    // cache rejects; report them as the codec error they are.
    if (!valid_key(feature, dim)) throw CodecError("snapshot: bad entry key");
    const auto label = static_cast<Label>(r.i64());
    const float confidence = r.f32();
    const SimDuration age = std::max<SimDuration>(0, r.i64());
    const auto origin = static_cast<EntryOrigin>(r.u8());
    const std::uint8_t hops = r.u8();
    const std::uint32_t source = r.u32();
    r.u32();  // access_count: informational; fresh caches restart at 0
    cache.insert(std::move(feature), label, confidence,
                 std::max<SimTime>(0, now - age), origin, hops, source);
    ++restored;
  }
  if (!r.done()) throw CodecError("snapshot: trailing bytes");
  return restored;
}

}  // namespace apx
