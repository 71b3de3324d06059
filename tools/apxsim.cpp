// apxsim — command-line scenario driver. Runs any library scenario without
// writing code: pick a pipeline configuration, workload shape, model, and
// knobs; get the pooled metrics (human table or CSV row).
//
//   $ apxsim --config full --devices 6 --duration 90 --compare
//   $ apxsim --config adaptive --confusion 0.4 --csv
//
// Run with --help for every flag.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "src/obs/report.hpp"
#include "src/sim/runner.hpp"
#include "src/util/table.hpp"

namespace {

using namespace apx;

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
};

void usage() {
  std::puts(
      "apxsim — approximate-caching scenario driver\n"
      "\n"
      "  --config NAME      nocache | exact | local | imu | video | full |\n"
      "                     adaptive | edge (default: full)\n"
      "  --ladder SPEC      explicit reuse-ladder composition instead of a\n"
      "                     preset: comma-separated rungs, cheapest first,\n"
      "                     ending in dnn. Rungs: imu temporal warm local\n"
      "                     exact p2p edge dnn; local(q8) scans the cache on\n"
      "                     SQ8 codes with exact re-rank; edge(...) takes\n"
      "                     shards= capacity= ttl= error_budget=. e.g.\n"
      "                       --ladder imu,temporal,local(q8),p2p,dnn\n"
      "                       --ladder 'imu,temporal,local,p2p,edge(shards=4,"
      "ttl=30s),dnn'\n"
      "  --devices N        co-located devices (default 4)\n"
      "  --duration S       simulated seconds (default 60)\n"
      "  --classes N        object classes (default 64)\n"
      "  --zipf S           popularity skew exponent (default 0.9)\n"
      "  --confusion F      class confusability 0..1 (default 0)\n"
      "  --model NAME       mobilenet | resnet50 | inception (default mobilenet)\n"
      "  --extractor NAME   downsample | histogram | hog | cnn (default cnn)\n"
      "  --eviction NAME    lru | lfu | utility (default utility)\n"
      "  --stationary F     mobility weight (default 0.4)\n"
      "  --minor F          mobility weight (default 0.4)\n"
      "  --major F          mobility weight (default 0.2)\n"
      "  --threshold F      H-kNN max distance (default: auto from the\n"
      "                     extractor's metric geometry)\n"
      "  --capacity N       cache entries per device (default 512)\n"
      "  --churn S          mean in/out-of-range period, seconds (default off)\n"
      "  --loss F           radio loss probability (default 0.01)\n"
      "  --faults SPEC      deterministic fault injection; comma-separated\n"
      "                     clauses, times in seconds:\n"
      "                       burst:LOSS[:MEANLEN]  Gilbert-Elliott burst loss\n"
      "                       spike:PROB:EXTRA_MS   delay spikes\n"
      "                       partition:MODE:START:DUR[:PERIOD]\n"
      "                                             MODE = split | full\n"
      "                       crash:MEAN_UP:DOWN    crash/restart cycle\n"
      "                       corrupt:PROB          in-flight corruption\n"
      "                     e.g. --faults burst:0.2:8,crash:30:5\n"
      "  --quantize-wire    ship features 8-bit quantized\n"
      "  --real-classifier  centroid classifier instead of the oracle\n"
      "  --seed N           RNG seed (default 1)\n"
      "  --compare          also run the no-cache baseline, print reduction\n"
      "  --csv              emit one CSV row (with header) instead of a table\n"
      "  --trace-out FILE   record a binary trace (analyze with apxtrace)\n"
      "  --metrics          print the per-rung latency breakdown and the\n"
      "                     full metrics registry summary\n"
      "  --metrics-out FILE write the metrics registry as JSON\n"
      "  --help             this text");
}

PipelineConfig config_by_name(const std::string& name, bool& ok) {
  ok = true;
  if (name == "nocache") return make_nocache_config();
  if (name == "exact") return make_exactcache_config();
  if (name == "local") return make_approx_local_config();
  if (name == "imu") return make_approx_imu_config();
  if (name == "video") return make_approx_video_config();
  if (name == "full") return make_full_system_config();
  if (name == "adaptive") return make_adaptive_config();
  if (name == "edge") return make_edge_config();
  ok = false;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      return 2;
    }
    key = key.substr(2);
    if (key == "help") {
      usage();
      return 0;
    }
    if (key == "quantize-wire" || key == "real-classifier" ||
        key == "compare" || key == "csv" || key == "metrics") {
      // A std::string, not the bare literal: GCC 12 at -O3 flags the
      // literal's assignment with a false -Wrestrict.
      args.values[key] = std::string{"1"};
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return 2;
    }
  }

  if (args.has("config") && args.has("ladder")) {
    std::fprintf(stderr, "--config and --ladder are mutually exclusive\n");
    return 2;
  }
  ScenarioConfig cfg = default_scenario();
  std::string config_name = args.get("config", "full");
  if (args.has("ladder")) {
    const std::string spec = args.get("ladder", "");
    try {
      cfg.pipeline = make_ladder_config(spec);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --ladder spec: %s\n", e.what());
      return 2;
    }
    // '+'-joined so the name stays a single CSV field.
    config_name = "ladder:" + spec;
    for (char& c : config_name) {
      if (c == ',') c = '+';
    }
  } else {
    bool config_ok = false;
    cfg.pipeline = config_by_name(config_name, config_ok);
    if (!config_ok) {
      std::fprintf(stderr, "unknown --config %s\n", config_name.c_str());
      return 2;
    }
  }

  cfg.num_devices = static_cast<int>(args.num("devices", 4));
  cfg.duration =
      static_cast<SimDuration>(args.num("duration", 60) * kSecond);
  cfg.scene.num_classes = static_cast<int>(args.num("classes", 64));
  cfg.zipf_s = args.num("zipf", 0.9);
  cfg.scene.class_confusion = static_cast<float>(args.num("confusion", 0.0));
  cfg.p_stationary = args.num("stationary", 0.4);
  cfg.p_minor = args.num("minor", 0.4);
  cfg.p_major = args.num("major", 0.2);
  if (args.has("threshold")) {
    cfg.auto_threshold = false;
    cfg.pipeline.cache.hknn.max_distance =
        static_cast<float>(args.num("threshold", 0.5));
  }
  cfg.pipeline.cache.capacity =
      static_cast<std::size_t>(args.num("capacity", 512));
  cfg.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  cfg.medium.loss_prob = args.num("loss", 0.01);
  if (args.has("faults")) {
    try {
      cfg.faults = parse_fault_spec(args.get("faults", ""));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --faults spec: %s\n", e.what());
      return 2;
    }
  }
  cfg.peer.quantize_wire_features = args.has("quantize-wire");
  cfg.use_real_classifier = args.has("real-classifier");
  if (args.has("churn")) {
    cfg.churn_period =
        static_cast<SimDuration>(args.num("churn", 0) * kSecond);
  }
  const std::string trace_out = args.get("trace-out", "");
  cfg.record_trace = !trace_out.empty();

  const std::string model = args.get("model", "mobilenet");
  if (model == "mobilenet") {
    cfg.model = mobilenet_v2_profile();
  } else if (model == "resnet50") {
    cfg.model = resnet50_profile();
  } else if (model == "inception") {
    cfg.model = inception_v3_profile();
  } else {
    std::fprintf(stderr, "unknown --model %s\n", model.c_str());
    return 2;
  }

  const std::string extractor = args.get("extractor", "cnn");
  if (extractor == "downsample") {
    cfg.extractor = ExtractorKind::kDownsample;
  } else if (extractor == "histogram") {
    cfg.extractor = ExtractorKind::kHistogram;
  } else if (extractor == "hog") {
    cfg.extractor = ExtractorKind::kHog;
  } else if (extractor == "cnn") {
    cfg.extractor = ExtractorKind::kCnn;
  } else {
    std::fprintf(stderr, "unknown --extractor %s\n", extractor.c_str());
    return 2;
  }

  const std::string eviction = args.get("eviction", "utility");
  if (eviction == "lru") {
    cfg.eviction = EvictionKind::kLru;
  } else if (eviction == "lfu") {
    cfg.eviction = EvictionKind::kLfu;
  } else if (eviction == "utility") {
    cfg.eviction = EvictionKind::kUtility;
  } else {
    std::fprintf(stderr, "unknown --eviction %s\n", eviction.c_str());
    return 2;
  }

  double baseline_ms = 0.0;
  if (args.has("compare")) {
    ScenarioConfig base = cfg;
    base.pipeline = make_nocache_config();
    base.record_trace = false;
    baseline_ms = run_scenario(base).mean_latency_ms();
  }

  ExperimentRunner runner{cfg};
  const ExperimentMetrics m = runner.run();
  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out{metrics_out};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << runner.metrics().to_json() << '\n';
    std::fprintf(stderr, "metrics: %zu counters, %zu histograms -> %s\n",
                 runner.metrics().counter_count(),
                 runner.metrics().histogram_count(), metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    const auto bytes = runner.trace().serialize();
    std::ofstream out{trace_out, std::ios::binary};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::fprintf(stderr, "trace: %zu events -> %s (%zu bytes)\n",
                 runner.trace().size(), trace_out.c_str(), bytes.size());
  }

  if (args.has("csv")) {
    std::printf(
        "config,devices,duration_s,classes,seed,frames,dropped,mean_ms,"
        "p50_ms,p95_ms,p99_ms,accuracy,reuse,energy_mj_per_frame,"
        "reduction_pct\n");
    std::printf("%s,%d,%.0f,%d,%llu,%zu,%zu,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f,"
                "%.2f,%.1f\n",
                config_name.c_str(), cfg.num_devices,
                to_seconds(cfg.duration), cfg.scene.num_classes,
                static_cast<unsigned long long>(cfg.seed), m.frames(),
                m.dropped(), m.mean_latency_ms(), m.latency_quantile_ms(0.5),
                m.latency_quantile_ms(0.95), m.latency_quantile_ms(0.99),
                m.accuracy(), m.reuse_ratio(), m.mean_total_energy_mj(),
                baseline_ms > 0 ? m.reduction_vs_percent(baseline_ms) : 0.0);
    return 0;
  }

  std::printf("scenario: %s, %d devices, %.0f s, %d classes (seed %llu)\n\n",
              config_name.c_str(), cfg.num_devices, to_seconds(cfg.duration),
              cfg.scene.num_classes,
              static_cast<unsigned long long>(cfg.seed));
  TextTable table;
  table.header({"metric", "value"});
  table.row({"frames", std::to_string(m.frames())});
  table.row({"dropped", std::to_string(m.dropped())});
  table.row({"mean latency", TextTable::num(m.mean_latency_ms()) + " ms"});
  table.row({"p95 latency",
             TextTable::num(m.latency_quantile_ms(0.95)) + " ms"});
  table.row({"accuracy", TextTable::num(m.accuracy(), 4)});
  table.row({"reuse ratio", TextTable::num(m.reuse_ratio(), 4)});
  table.row({"energy/frame",
             TextTable::num(m.mean_total_energy_mj(), 2) + " mJ"});
  if (baseline_ms > 0) {
    table.row({"reduction vs no-cache",
               TextTable::num(m.reduction_vs_percent(baseline_ms), 1) + "%"});
  }
  std::printf("%s\nsource breakdown:\n", table.render().c_str());
  for (const auto& [source, count] : m.sources().items()) {
    std::printf("  %-13s %6llu (%.1f%%)\n", source.c_str(),
                static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) /
                    static_cast<double>(m.frames()));
  }
  if (args.has("metrics")) {
    const std::string rungs = per_rung_summary(runner.metrics());
    if (!rungs.empty()) {
      std::printf("\nper-rung breakdown:\n%s", rungs.c_str());
    }
    std::printf("\nmetrics registry:\n%s", runner.metrics().summary().c_str());
  }
  return 0;
}
