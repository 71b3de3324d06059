#include "benchmark/src/spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace apxbench {

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kRender: return "image.render";
    case SpanName::kImuSynth: return "imu.synth";
    case SpanName::kImuEstimate: return "imu.estimate";
    case SpanName::kEvent: return "core.event";
    case SpanName::kProcess: return "core.process";
    case SpanName::kExtract: return "features.extract";
    case SpanName::kInfer: return "dnn.infer";
    case SpanName::kCacheLookup: return "cache.lookup";
    case SpanName::kCacheInsert: return "cache.insert";
    case SpanName::kAnnQuery: return "ann.query";
    case SpanName::kAnnVote: return "ann.vote";
    case SpanName::kEdgeQuery: return "edge.query";
    case SpanName::kEdgeFeed: return "edge.feed";
  }
  return "?";
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t Tracer::begin(SpanName name, std::int32_t device,
                            std::int64_t frame) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.device = device;
  span.frame = frame;
  spans_.push_back(span);
  open_.push_back(span.id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  spans_[id - 1].end_ns = t;
  // Spans close in LIFO order (ScopedSpan), so `id` is the innermost.
  open_.pop_back();
}

std::int64_t Tracer::root_ns(SpanName name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.name == name) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

void SelfTimes::add(const Tracer& tracer) {
  const std::vector<std::int64_t> self = tracer.self_ns();
  for (std::size_t i = 0; i < self.size(); ++i) {
    const auto n = static_cast<std::size_t>(tracer.spans()[i].name);
    us_[n].push_back(static_cast<double>(self[i]) / 1000.0);
    sorted_[n] = false;
  }
}

std::size_t SelfTimes::count(SpanName name) const {
  return us_[static_cast<std::size_t>(name)].size();
}

double SelfTimes::quantile_us(SpanName name, double q) {
  const auto n = static_cast<std::size_t>(name);
  std::vector<double>& v = us_[n];
  if (v.empty()) return 0.0;
  if (!sorted_[n]) {
    std::sort(v.begin(), v.end());
    sorted_[n] = true;
  }
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed,
                 const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  std::uint64_t offset = 0;
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const Span& s : tracer->spans()) {
      std::fprintf(f,
                   "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                   "\"device\": %d, \"frame\": %lld, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}",
                   first ? "" : ",",
                   static_cast<unsigned long long>(offset + s.id),
                   static_cast<unsigned long long>(
                       s.parent == 0 ? 0 : offset + s.parent),
                   to_string(s.name), s.device,
                   static_cast<long long>(s.frame),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
    offset += tracer->spans().size();
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace apxbench
