// apxbench: the end-to-end benchmark (see benchmark/README.md).
//
//   apxbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-file PATH]
//   apxbench --smoke [--trace-file PATH]
//
// A run is R repeats (fixed for a workload and --seconds), each on its own
// seed drawn from --seed. A repeat has two untraced legs: the simulator leg
// runs ExperimentRunner, and the ladder leg replays the same world's
// pre-generated inputs through a mirror of the runner's fleet. The ladder
// leg must reproduce the simulator leg exactly (the correctness gate).
// --trace 1 instead reports per-layer metrics from traced re-runs of the
// ladder leg plus a key replay, and writes the spans to --trace-file.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {name: {"value": x, "unit": u}, ...}}

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "benchmark/src/alloc_count.hpp"
#include "benchmark/src/inputs.hpp"
#include "benchmark/src/ladder.hpp"
#include "benchmark/src/replay.hpp"
#include "benchmark/src/spans.hpp"
#include "benchmark/src/workloads.hpp"
#include "src/sim/runner.hpp"

namespace apxbench {
namespace {

constexpr int kMinRepeats = 3;
/// Each repeat runs at least kMinLadderLegs ladder legs, and more until they
/// have taken this share of the simulator leg's wall time, so a cheap
/// ladder (roam's) is timed over more than a few milliseconds.
constexpr int kMinLadderLegs = 3;
constexpr double kLadderShare = 0.3;
/// Traced legs whose spans feed the per-layer percentiles (memory bound).
constexpr int kMaxTracedLegs = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1000;
  double seconds = 25.0;
  bool trace = false;
  std::string trace_file;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, not in the JSON
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// The correctness gate: the ladder leg must reproduce every device's
/// frames, drops, per-source counts, correct count, latency samples and
/// energy exactly. Adds each device's offered frames to `attempted`, and to
/// `failed` when that device differs.
void gate(const std::vector<apx::ExperimentMetrics>& ladder,
          const std::vector<apx::ExperimentMetrics>& simulator,
          Result& result) {
  if (ladder.size() != simulator.size()) {
    throw std::logic_error("gate: device count differs");
  }
  for (std::size_t d = 0; d < ladder.size(); ++d) {
    const apx::ExperimentMetrics& a = ladder[d];
    const apx::ExperimentMetrics& b = simulator[d];
    const std::uint64_t offered = b.frames() + b.dropped();
    result.attempted += offered;
    const bool same = a.frames() == b.frames() && a.dropped() == b.dropped() &&
                      a.sources().items() == b.sources().items() &&
                      a.accuracy() == b.accuracy() &&
                      a.latencies_ms().sorted() == b.latencies_ms().sorted() &&
                      a.mean_total_energy_mj() == b.mean_total_energy_mj();
    if (!same) {
      result.failed += offered;
      std::fprintf(stderr,
                   "gate: device %zu differs: frames %zu/%zu dropped %zu/%zu "
                   "accuracy %.6f/%.6f (ladder/simulator)\n",
                   d, a.frames(), b.frames(), a.dropped(), b.dropped(),
                   a.accuracy(), b.accuracy());
    }
  }
}

/// A world's ladder time: for each event chunk the fastest leg's time,
/// summed. Slow phases of a shared host last seconds but leave quiet
/// milliseconds inside them, so per-chunk minima over legs taken at
/// different moments stay close to the quiet-host time; whole-leg times do
/// not.
double fastest_chunks_s(const std::vector<std::vector<std::int64_t>>& legs) {
  for (const auto& leg : legs) {
    if (leg.size() != legs.front().size()) {
      throw std::logic_error("ladder legs stepped different event counts");
    }
  }
  std::int64_t total = 0;
  for (std::size_t c = 0; c < legs.front().size(); ++c) {
    std::int64_t fastest = legs.front()[c];
    for (const auto& leg : legs) fastest = std::min(fastest, leg[c]);
    total += fastest;
  }
  return static_cast<double>(total) * 1e-9;
}

Result run_untraced(const Workload& w, int repeats) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> peak_heap_mb;
  double simulator_s = 0.0;
  double ladder_s = 0.0;
  double offered = 0.0;
  apx::ExperimentMetrics pooled;
  for (int r = 0; r < repeats; ++r) {
    const apx::ScenarioConfig cfg = w.config_for(r);
    // Runner constructions are timed at several moments of the repeat (one
    // beside every ladder leg, plus the one that runs), so setup_s samples
    // a shared host's quiet and slow phases alike.
    const auto time_setup = [&] {
      const std::int64_t start = now_ns();
      auto runner = std::make_unique<apx::ExperimentRunner>(cfg);
      setup_s.push_back(seconds_since(start));
      return runner;
    };
    const FleetInputs inputs = generate_inputs(cfg);
    // One ladder leg runs before the simulator leg and the rest after it,
    // so the legs sample different moments of a shared host.
    time_setup();
    const LadderResult first_leg = run_ladder(inputs);

    const std::int64_t heap_before = reset_peak_heap();
    const std::unique_ptr<apx::ExperimentRunner> runner = time_setup();
    const std::int64_t start = now_ns();
    const apx::ExperimentMetrics metrics = runner->run();
    const double leg_s = seconds_since(start);
    peak_heap_mb.push_back(
        static_cast<double>(peak_heap_bytes() - heap_before) / (1 << 20));
    simulator_s += leg_s;
    offered += static_cast<double>(metrics.frames() + metrics.dropped());
    pooled.merge(metrics);

    gate(first_leg.device_metrics, runner->device_metrics(), result);
    std::vector<std::vector<std::int64_t>> leg_chunks = {first_leg.chunk_ns};
    double spent = first_leg.loop_s;
    for (int leg = 1; leg < kMinLadderLegs || spent < kLadderShare * leg_s;
         ++leg) {
      time_setup();
      LadderResult ladder = run_ladder(inputs);
      gate(ladder.device_metrics, runner->device_metrics(), result);
      spent += ladder.loop_s;
      leg_chunks.push_back(std::move(ladder.chunk_ns));
    }
    ladder_s += fastest_chunks_s(leg_chunks);
  }

  const auto frames = static_cast<double>(pooled.frames());
  const std::string per_repeat =
      "over " + std::to_string(repeats) + " repeats";
  const double dnn_ms = apx::to_ms(w.config.model.mean_latency);
  result.metrics = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size())},
      {"simulator_fps", offered / simulator_s, "frames/s", per_repeat},
      {"ladder_fps", offered / ladder_s, "frames/s", per_repeat},
      {"peak_heap_mb", median(peak_heap_mb), "MB",
       "runner construction + simulator leg"},
      // The median frame is answered by a reuse rung whose simulated cost
      // is a model constant, so p50 reads the same for every seed; it is
      // printed beside p99 but not reported as a metric.
      {"frame_latency_p99_ms", pooled.latency_quantile_ms(0.99), "ms",
       "n=" + std::to_string(pooled.frames()) + " frames, " +
           std::to_string(static_cast<std::size_t>(frames * 0.01)) +
           " beyond; p50 " + json_number(pooled.latency_quantile_ms(0.5)) +
           " ms"},
      // The paper's headline: mean frame latency against running the DNN on
      // every frame. The mean itself swings with how many frames a seed
      // sends to the DNN, far more than this ratio does.
      {"latency_reduction", 1.0 - pooled.mean_latency_ms() / dnn_ms,
       "fraction",
       "mean " + json_number(pooled.mean_latency_ms()) + " ms vs DNN " +
           json_number(dnn_ms) + " ms"},
      {"accuracy", pooled.accuracy(), "fraction", ""},
      {"reuse_ratio", pooled.reuse_ratio(), "fraction", ""},
      {"served_frac", ratio(frames, frames + static_cast<double>(
                                                 pooled.dropped())),
       "fraction",
       std::to_string(pooled.dropped()) + " offered frames dropped"},
  };
  return result;
}

/// Decides whether another traced repeat fits before the deadline, judging
/// by the slowest repeat so far.
class RepeatClock {
 public:
  RepeatClock(double seconds, int min_repeats)
      : deadline_ns_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)),
        min_repeats_(min_repeats) {}

  bool another() {
    const std::int64_t t = now_ns();
    if (repeats_ > 0) slowest_ns_ = std::max(slowest_ns_, t - last_ns_);
    last_ns_ = t;
    if (repeats_ < min_repeats_ || t + slowest_ns_ <= deadline_ns_) {
      ++repeats_;
      return true;
    }
    return false;
  }
  int repeats() const noexcept { return repeats_; }

 private:
  std::int64_t deadline_ns_;
  int min_repeats_;
  int repeats_ = 0;
  std::int64_t last_ns_ = 0;
  std::int64_t slowest_ns_ = 0;
};

Result run_traced(const Workload& w, double seconds, int min_repeats,
                  const std::string& trace_file) {
  Result result;
  RepeatClock clock(seconds, min_repeats);
  const apx::ScenarioConfig cfg = w.config_for(0);
  Tracer gen_tracer;
  const FleetInputs inputs = generate_inputs(cfg, &gen_tracer);
  const std::size_t offered = inputs.offered();

  apx::ExperimentRunner runner(cfg);
  const apx::ExperimentMetrics pooled = runner.run();
  const apx::MetricsRegistry& reg = runner.metrics();
  const auto count = [&reg](const std::string& name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto rung_hit_ratio = [&count](const std::string& rung) {
    const double hits = count("pipeline/rung_hit/" + rung);
    return ratio(hits, hits + count("pipeline/rung_miss/" + rung));
  };

  // Untraced and traced ladder legs alternate; the first traced leg's
  // spans and keys are kept for the trace file and the key replay. Every
  // traced leg records keys, so all pay the same tracing overhead.
  std::vector<double> untraced_s, traced_s, coverage_pct;
  SelfTimes self;
  Tracer first_tracer;
  std::vector<RecordedKey> keys;
  LadderResult first_untraced, first_traced;
  while (clock.another()) {
    LadderResult plain = run_ladder(inputs);
    gate(plain.device_metrics, runner.device_metrics(), result);
    untraced_s.push_back(plain.loop_s);

    Tracer tracer;
    tracer.reserve(first_tracer.spans().empty()
                       ? offered * 32
                       : first_tracer.spans().size() + 1024);
    std::vector<RecordedKey> repeat_keys;
    LadderResult traced = run_ladder(inputs, &tracer, &repeat_keys);
    gate(traced.device_metrics, runner.device_metrics(), result);
    traced_s.push_back(traced.loop_s);
    coverage_pct.push_back(
        100.0 * static_cast<double>(tracer.root_ns(SpanName::kEvent)) /
        (traced.loop_s * 1e9));
    if (clock.repeats() <= kMaxTracedLegs) self.add(tracer);
    if (clock.repeats() == 1) {
      first_tracer = std::move(tracer);
      keys = std::move(repeat_keys);
      first_untraced = std::move(plain);
      first_traced = std::move(traced);
    }
  }
  const auto traced_legs =
      static_cast<double>(std::min(clock.repeats(), kMaxTracedLegs));

  Tracer replay_tracer;
  const ReplayResult replay = replay_keys(inputs, keys, replay_tracer);
  self.add(replay_tracer);
  self.add(gen_tracer);
  write_trace(trace_file, w.name, cfg.seed,
              {&gen_tracer, &first_tracer, &replay_tracer});

  const auto frames = static_cast<double>(pooled.frames());
  const auto us = [&self](SpanName name, double q) {
    return self.quantile_us(name, q);
  };
  const auto per_leg_frame = [&](SpanName name) {
    return ratio(static_cast<double>(self.count(name)) / traced_legs, frames);
  };
  const apx::Counter& net = first_untraced.net;
  const double delivered = static_cast<double>(net.get("rx"));
  const double lost =
      static_cast<double>(net.get("dropped_loss") + net.get("dropped_range"));
  result.metrics = {
      {"image.render_us_p50", us(SpanName::kRender, 0.5), "us", ""},
      {"imu.synth_us_p50", us(SpanName::kImuSynth, 0.5), "us", ""},
      {"imu.estimate_us_p50", us(SpanName::kImuEstimate, 0.5), "us", ""},
      {"imu.gate_hit_ratio", rung_hit_ratio("imu-gate"), "fraction", ""},
      {"video.temporal_hit_ratio", rung_hit_ratio("temporal"), "fraction", ""},
      {"features.extract_us_p50", us(SpanName::kExtract, 0.5), "us", ""},
      {"features.extract_us_p99", us(SpanName::kExtract, 0.99), "us", ""},
      {"features.extracts_per_frame", per_leg_frame(SpanName::kExtract),
       "count", ""},
      {"dnn.infers_per_frame", per_leg_frame(SpanName::kInfer), "count", ""},
      {"dnn.infer_us_p50", us(SpanName::kInfer, 0.5), "us",
       "the oracle's cost, not a real DNN"},
      {"core.process_us_p50", us(SpanName::kProcess, 0.5), "us", "self"},
      {"core.process_us_p99", us(SpanName::kProcess, 0.99), "us", "self"},
      {"core.event_us_p50", us(SpanName::kEvent, 0.5), "us", "self"},
      {"core.event_us_p99", us(SpanName::kEvent, 0.99), "us", "self"},
      {"core.events_per_frame",
       ratio(static_cast<double>(first_untraced.events), frames), "count", ""},
      {"core.allocs_per_frame",
       ratio(static_cast<double>(first_untraced.allocs), frames), "count",
       "untraced ladder leg"},
      {"cache.lookup_us_p50", us(SpanName::kCacheLookup, 0.5), "us", ""},
      {"cache.lookup_us_p99", us(SpanName::kCacheLookup, 0.99), "us", ""},
      {"cache.insert_us_p50", us(SpanName::kCacheInsert, 0.5), "us", ""},
      {"cache.insert_us_p99", us(SpanName::kCacheInsert, 0.99), "us", ""},
      {"cache.evict_scores_per_evict",
       ratio(static_cast<double>(first_traced.evict_scores),
             count("cache/evict")),
       "count", ""},
      {"ann.query_us_p50", us(SpanName::kAnnQuery, 0.5), "us", ""},
      {"ann.query_us_p99", us(SpanName::kAnnQuery, 0.99), "us", ""},
      {"ann.vote_us_p50", us(SpanName::kAnnVote, 0.5), "us", ""},
      {"ann.candidates_per_query",
       ratio(static_cast<double>(replay.ann_candidates),
             static_cast<double>(replay.ann_queries)),
       "count", ""},
      {"cache.hit_ratio",
       ratio(count("cache/hit"), count("cache/hit") + count("cache/miss")),
       "fraction", ""},
      {"cache.inserts_per_frame", ratio(count("cache/insert"), frames),
       "count", ""},
      {"cache.evicts_per_frame", ratio(count("cache/evict"), frames), "count",
       ""},
      {"p2p.lookups_per_frame", ratio(count("p2p/lookup_sent"), frames),
       "count", ""},
      {"p2p.hit_ratio", rung_hit_ratio("p2p"), "fraction", ""},
      {"p2p.merged_per_frame", ratio(count("p2p/merged"), frames), "count",
       ""},
      {"p2p.degraded_ratio",
       ratio(count("p2p/degraded"), count("p2p/lookup_sent")), "fraction", ""},
      {"net.tx_bytes_per_frame",
       ratio(static_cast<double>(net.get("tx_bytes")), frames), "B", ""},
      {"net.drop_ratio", ratio(lost, delivered + lost), "fraction", ""},
      {"edge.query_us_p50", us(SpanName::kEdgeQuery, 0.5), "us",
       "standalone replay on every workload"},
      {"edge.feed_us_p50", us(SpanName::kEdgeFeed, 0.5), "us",
       "standalone replay on every workload"},
      {"edge.hit_ratio", rung_hit_ratio("edge"), "fraction", ""},
      {"edge.admit_ratio",
       ratio(count("edge/srv_admit"), count("edge/srv_feed")), "fraction", ""},
      {"sim.frame_latency_mean_ms", pooled.mean_latency_ms(), "ms",
       "simulated device time"},
      {"sim.energy_mj_per_frame", pooled.mean_total_energy_mj(), "mJ",
       "simulated device energy"},
      {"sim.trace_overhead_pct",
       100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%",
       "traced vs untraced ladder leg"},
      {"sim.traced_coverage_pct", median(coverage_pct), "%",
       "event spans / traced ladder-leg wall"},
  };
  return result;
}

void print_result(const std::string& title, const Result& r) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-30s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload") {
      opt.workload = value(i);
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value(i));
      if (!(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) {
        throw std::invalid_argument("--seconds must be in [0, 3600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = v == "1";
    } else if (arg == "--trace-file") {
      opt.trace_file = value(i);
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument '" + std::string(arg) +
                                  "'");
    }
  }
  if (!opt.smoke && opt.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return opt;
}

/// Both modes on every workload with a few simulated seconds: exercises
/// both legs, the gate, the key replay and the trace writer.
int run_smoke(const Options& opt) {
  const std::string trace_file = opt.trace_file.empty()
                                     ? "benchmark/out/smoke-trace.json"
                                     : opt.trace_file;
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, opt.seed, /*smoke=*/true);
    const Result plain = run_untraced(w, 1);
    print_result("smoke " + name + " (untraced)", plain);
    const Result traced = run_traced(w, 0.0, 1, trace_file);
    print_result("smoke " + name + " (traced)", traced);
    ok = ok && plain.failed == 0 && traced.failed == 0;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace apxbench

int main(int argc, char** argv) {
  using namespace apxbench;
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.smoke) return run_smoke(opt);
    const Workload w = make_workload(opt.workload, opt.seed);
    const std::string title = "apxbench " + w.name +
                              " seed=" + std::to_string(opt.seed) +
                              (opt.trace ? " (traced)" : "");
    const Result r =
        opt.trace
            ? run_traced(w, opt.seconds, kMinRepeats,
                         opt.trace_file.empty()
                             ? "benchmark/out/trace-" + w.name + ".json"
                             : opt.trace_file)
            : run_untraced(w, w.repeats_for(opt.seconds, kMinRepeats));
    print_result(title, r);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apxbench: %s\n", e.what());
    return 2;
  }
}
