#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/util/table.hpp"

namespace apx {
namespace {

/// Shortest round-trippable formatting, so exports are byte-stable for
/// byte-stable inputs (the parallel-vs-sequential determinism contract).
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

double MetricsRegistry::Histogram::mean() const noexcept {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double MetricsRegistry::Histogram::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= rank) {
      // Interpolate within [lo, hi), clamped to the observed min/max so
      // sparse histograms do not report values outside the sample range.
      const double lo = i == 0 ? min : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max;
      const double frac =
          buckets[i] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(buckets[i]);
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min, max);
    }
    seen = next;
  }
  return max;
}

MetricsRegistry::CounterId MetricsRegistry::counter(const std::string& name) {
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return it->second;
  const auto id = static_cast<CounterId>(counters_.size());
  counters_.push_back(NamedCounter{name, 0});
  counter_ids_.emplace(name, id);
  return id;
}

MetricsRegistry::HistogramId MetricsRegistry::histogram(
    const std::string& name, std::span<const double> bounds) {
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) {
    const Histogram& existing = histograms_[it->second];
    if (!std::equal(existing.bounds.begin(), existing.bounds.end(),
                    bounds.begin(), bounds.end())) {
      throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                  "' re-registered with different bounds");
    }
    return it->second;
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("MetricsRegistry: bounds must be ascending");
  }
  const auto id = static_cast<HistogramId>(histograms_.size());
  Histogram h;
  h.name = name;
  h.bounds.assign(bounds.begin(), bounds.end());
  h.buckets.assign(bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
  histogram_ids_.emplace(name, id);
  return id;
}

void MetricsRegistry::record(HistogramId id, double value) noexcept {
  Histogram& h = histograms_[id];
  const auto it =
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
  ++h.buckets[static_cast<std::size_t>(it - h.bounds.begin())];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
}

std::uint64_t MetricsRegistry::counter_value(
    const std::string& name) const noexcept {
  const auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counters_[it->second].value;
}

const MetricsRegistry::Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const noexcept {
  const auto it = histogram_ids_.find(name);
  return it == histogram_ids_.end() ? nullptr : &histograms_[it->second];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Match by name (sorted id maps), not by handle: two registries may have
  // registered the same instruments in different orders.
  for (const auto& [name, id] : other.counter_ids_) {
    inc(counter(name), other.counters_[id].value);
  }
  for (const auto& [name, id] : other.histogram_ids_) {
    const Histogram& src = other.histograms_[id];
    Histogram& dst = histograms_[histogram(name, src.bounds)];
    for (std::size_t i = 0; i < dst.buckets.size(); ++i) {
      dst.buckets[i] += src.buckets[i];
    }
    if (src.count > 0) {
      if (dst.count == 0) {
        dst.min = src.min;
        dst.max = src.max;
      } else {
        dst.min = std::min(dst.min, src.min);
        dst.max = std::max(dst.max, src.max);
      }
      dst.count += src.count;
      dst.sum += src.sum;
    }
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"schema\": \"apx-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, id] : counter_ids_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": " + std::to_string(counters_[id].value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, id] : histogram_ids_) {
    const Histogram& h = histograms_[id];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += fmt_double(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + fmt_double(h.sum);
    out += ", \"min\": " + fmt_double(h.min);
    out += ", \"max\": " + fmt_double(h.max);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::summary() const {
  std::string out;
  if (!histogram_ids_.empty()) {
    TextTable table;
    table.header({"histogram", "count", "mean", "p50", "p95", "max"});
    for (const auto& [name, id] : histogram_ids_) {
      const Histogram& h = histograms_[id];
      table.row({name, std::to_string(h.count), TextTable::num(h.mean()),
                 TextTable::num(h.quantile(0.5)),
                 TextTable::num(h.quantile(0.95)), TextTable::num(h.max)});
    }
    out += table.render();
  }
  if (!counter_ids_.empty()) {
    if (!out.empty()) out += "\n";
    TextTable table;
    table.header({"counter", "value"});
    for (const auto& [name, id] : counter_ids_) {
      table.row({name, std::to_string(counters_[id].value)});
    }
    out += table.render();
  }
  return out;
}

namespace {
// One shared set of bounds per quantity so instruments and shards agree.
constexpr double kLatencyUsBounds[] = {
    10,     20,     50,      100,     200,     500,      1000,    2000,
    5000,   10000,  20000,   50000,   100000,  200000,   500000,  1000000,
    2000000, 5000000};
constexpr double kDistanceBounds[] = {0.025, 0.05, 0.075, 0.1,  0.15, 0.2,
                                      0.3,   0.4,  0.5,   0.65, 0.8,  1.0,
                                      1.25,  1.5,  2.0};
constexpr double kCountBounds[] = {1,  2,   4,   8,   16,   32,  64,
                                   128, 256, 512, 1024, 2048, 4096};
}  // namespace

std::span<const double> latency_us_bounds() noexcept {
  return kLatencyUsBounds;
}
std::span<const double> distance_bounds() noexcept { return kDistanceBounds; }
std::span<const double> count_bounds() noexcept { return kCountBounds; }

}  // namespace apx
