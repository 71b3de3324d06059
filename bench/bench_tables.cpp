// The table pass: every table-style exhibit of DESIGN.md §3 (T1-T4, F1-F5,
// F9, A2, A3, A5) in one run, in that order, each behind its banner and
// expected shape. Each distinct simulation (scenario, pipeline, seed set)
// runs once: the evaluation scenario's configuration ladder feeds T1's
// mixed-mobility / MobileNet table, T2's separable world, T3, T4, F4 and
// F5's mixed row.
//
// Writes BENCH_tables.json to the working directory: per exhibit, its
// printed notes and every table as {title, header, rows}, holding the same
// cell strings stdout shows. EXPERIMENTS.md cites that file.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "src/ann/hknn.hpp"
#include "src/device/battery.hpp"
#include "src/dnn/zoo.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace apx;
using namespace apx::bench;

/// One printed table, kept as cells so the JSON records what stdout shows.
struct Table {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// One exhibit: banner title, printed notes and tables, in print order.
struct Exhibit {
  std::string id;
  std::string title;
  std::vector<std::string> notes;
  std::vector<Table> tables;
};

/// Pooled run_seeds() metrics of one configuration_ladder() rung.
struct LadderRun {
  std::string name;
  ExperimentMetrics m;
};
using Ladder = std::vector<LadderRun>;

Ladder run_ladder(const ScenarioConfig& scenario) {
  Ladder ladder;
  for (const auto& [name, pipeline] : configuration_ladder()) {
    ScenarioConfig cfg = scenario;
    cfg.pipeline = pipeline;
    ladder.push_back({name, run_seeds(cfg)});
  }
  return ladder;
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Prints the banner and opens the exhibit's record.
Exhibit open_exhibit(const char* id, const char* title, const char* claim) {
  banner(id, title, claim);
  return Exhibit{id, title, {}, {}};
}

/// Prints a "--- title ---" subheading and opens its table.
Table subtable(std::string title, std::vector<std::string> header) {
  std::printf("--- %s ---\n", title.c_str());
  return Table{std::move(title), std::move(header), {}};
}

/// Prints `text` as is and records it without its surrounding newlines.
void note(Exhibit& exhibit, const std::string& text) {
  std::fputs(text.c_str(), stdout);
  const std::size_t first = text.find_first_not_of('\n');
  exhibit.notes.push_back(
      text.substr(first, text.find_last_not_of('\n') + 1 - first));
}

/// Prints `table` followed by `tail` and records it.
void emit(Exhibit& exhibit, Table table, const char* tail = "") {
  TextTable text;
  text.header(table.header);
  for (const auto& row : table.rows) text.row(row);
  std::printf("%s%s", text.render().c_str(), tail);
  exhibit.tables.push_back(std::move(table));
}

/// Appends the mean ms / reuse / accuracy / accuracy delta cells that F2,
/// A3 and A5 report against a no-cache baseline.
std::vector<std::string> quality_row(std::vector<std::string> row,
                                     const ExperimentMetrics& m,
                                     const ExperimentMetrics& baseline) {
  row.insert(row.end(), {TextTable::num(m.mean_latency_ms()),
                         TextTable::num(m.reuse_ratio(), 3),
                         TextTable::num(m.accuracy(), 4),
                         TextTable::num(m.accuracy() - baseline.accuracy(), 4)});
  return row;
}

Exhibit t1(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "T1", "mean latency per configuration",
      "latency falls monotonically down the ladder; full system reaches "
      "~85-94% reduction on the high-locality workload");

  struct Workload {
    const char* name;
    ScenarioConfig scenario;
  };
  const Workload workloads[] = {
      {"mixed-mobility", evaluation_scenario()},
      {"high-locality", high_locality_scenario()},
  };
  for (const auto& workload : workloads) {
    for (const ModelProfile& model :
         {mobilenet_v2_profile(), resnet50_profile()}) {
      Table table = subtable(
          format("workload: %s, model: %s (%.0f ms/inference)", workload.name,
                 model.name.c_str(), to_ms(model.mean_latency)),
          {"configuration", "mean ms", "p50 ms", "p95 ms", "p99 ms", "reuse",
           "reduction"});
      ScenarioConfig cfg = workload.scenario;
      cfg.model = model;
      // The evaluation scenario already runs MobileNetV2, its default model.
      const bool shared = &workload == &workloads[0] &&
                          model.name == workload.scenario.model.name;
      const Ladder ladder = shared ? evaluation : run_ladder(cfg);
      const double baseline_ms = ladder[0].m.mean_latency_ms();
      for (const auto& [name, m] : ladder) {
        table.rows.push_back(
            {name, TextTable::num(m.mean_latency_ms()),
             TextTable::num(m.latency_quantile_ms(0.50)),
             TextTable::num(m.latency_quantile_ms(0.95)),
             TextTable::num(m.latency_quantile_ms(0.99)),
             TextTable::num(m.reuse_ratio(), 3),
             format("%.1f%%", m.reduction_vs_percent(baseline_ms))});
      }
      emit(ex, std::move(table), "\n");
    }
  }
  return ex;
}

Exhibit t2(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "T2", "accuracy per configuration",
      "full-system accuracy within a few points of no-cache, on both the "
      "separable and the confusable world");

  ScenarioConfig confusable = evaluation_scenario();
  confusable.scene.class_confusion = 0.4f;
  confusable.scene.group_size = 4;
  struct World {
    const char* name;
    float confusion;
    Ladder ladder;
  };
  // The separable world (no confusion, groups of 4) is the evaluation
  // scenario's scene as it stands.
  const World worlds[] = {{"separable", 0.0f, evaluation},
                          {"confusable", 0.4f, run_ladder(confusable)}};
  for (const World& world : worlds) {
    Table table = subtable(
        format("world: %s (class_confusion=%.1f)", world.name,
               world.confusion),
        {"configuration", "accuracy", "delta vs no-cache", "reuse",
         "acc@reuse-paths", "acc@inference"});
    const double baseline_acc = world.ladder[0].m.accuracy();
    for (const auto& [name, m] : world.ladder) {
      // Attribute correctness to paths: reuse-path accuracy vs DNN-path
      // accuracy shows whether reuse, not the model, loses the points.
      double reuse_correct = 0.0, reuse_answered = 0.0;
      for (const ResultSource source :
           {ResultSource::kImuFastPath, ResultSource::kTemporalReuse,
            ResultSource::kLocalCacheHit, ResultSource::kPeerCacheHit}) {
        const double fraction = m.source_fraction(source);
        reuse_answered += fraction;
        reuse_correct += fraction * m.accuracy_by_source(source);
      }
      table.rows.push_back(
          {name, TextTable::num(m.accuracy(), 4),
           TextTable::num(m.accuracy() - baseline_acc, 4),
           TextTable::num(m.reuse_ratio(), 3),
           reuse_answered > 0.0
               ? TextTable::num(reuse_correct / reuse_answered, 4)
               : "-",
           TextTable::num(m.accuracy_by_source(ResultSource::kFullInference),
                          4)});
    }
    emit(ex, std::move(table), "\n");
  }
  return ex;
}

Exhibit t3(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "T3", "energy per frame per configuration",
      "compute energy falls with reuse; radio adds little; net saving "
      "grows down the ladder");

  Table table{ex.title,
              {"configuration", "compute mJ/frame", "radio mJ/frame",
               "total mJ/frame", "saving"},
              {}};
  const double baseline_total = evaluation[0].m.mean_total_energy_mj();
  for (const auto& [name, m] : evaluation) {
    const double compute = m.mean_compute_energy_mj();
    const double total = m.mean_total_energy_mj();
    table.rows.push_back(
        {name, TextTable::num(compute, 2), TextTable::num(total - compute, 3),
         TextTable::num(total, 2),
         format("%.1f%%", baseline_total > 0.0
                              ? 100.0 * (1.0 - total / baseline_total)
                              : 0.0)});
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit t4(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "T4", "battery lifetime per configuration",
      "lifetime grows down the ladder, saturating at the idle+camera floor");

  const BatteryParams battery;  // 3000 mAh @ 3.85 V, ~1.35 W baseline
  const double fps = 10.0;
  // The ceiling nothing can beat: recognition for free.
  note(ex, format("baseline rails only (idle+camera): %.2f h ceiling\n\n",
                  continuous_recognition_hours(battery, 0.0, fps)));

  Table table{ex.title,
              {"configuration", "mJ/frame", "recognition W", "lifetime h",
               "vs no-cache"},
              {}};
  const double nocache_hours = continuous_recognition_hours(
      battery, evaluation[0].m.mean_total_energy_mj(), fps);
  for (const auto& [name, m] : evaluation) {
    const double per_frame = m.mean_total_energy_mj();
    const double hours = continuous_recognition_hours(battery, per_frame, fps);
    const double delta_pct =
        nocache_hours > 0.0 ? 100.0 * (hours / nocache_hours - 1.0) : 0.0;
    table.rows.push_back(
        {name, TextTable::num(per_frame, 1),
         TextTable::num(per_frame * fps / 1000.0, 2),
         TextTable::num(hours, 2),
         format("%s%.1f%%", delta_pct >= 0.0 ? "+" : "", delta_pct)});
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit f1() {
  Exhibit ex = open_exhibit(
      "F1", "latency & reuse vs number of nearby devices",
      "latency falls / reuse rises with peers, then saturates");

  Table table{ex.title,
              {"devices", "mean ms", "p95 ms", "reuse", "peer-assisted",
               "adverts", "merged entries"},
              {}};
  for (const int devices : {1, 2, 3, 4, 6, 8}) {
    // Churn-heavy regime: devices keep encountering objects they have not
    // personally seen, which is where collaboration pays — a peer's entry
    // (~10 ms round trip) replaces a full inference.
    ScenarioConfig cfg = photo_app_scenario();
    cfg.zipf_s = 1.0;
    cfg.duration = 120 * kSecond;
    cfg.p_stationary = 0.2;
    cfg.p_minor = 0.6;
    cfg.p_major = 0.2;
    cfg.num_devices = devices;
    cfg.model = resnet50_profile();  // collaboration pays when inference is dear
    cfg.pipeline = make_full_system_config();
    cfg.seed = 2000;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    const MetricsRegistry& p2p = runner.metrics();
    // "Peer-assisted" pools direct peer-cache hits with local hits on
    // entries that arrived via gossip (counted as merges).
    table.rows.push_back(
        {std::to_string(devices), TextTable::num(m.mean_latency_ms()),
         TextTable::num(m.latency_quantile_ms(0.95)),
         TextTable::num(m.reuse_ratio(), 3),
         TextTable::num(m.source_fraction(ResultSource::kPeerCacheHit), 4),
         std::to_string(p2p.counter_value("p2p/advert_sent")),
         std::to_string(p2p.counter_value("p2p/merged"))});
  }
  emit(ex, std::move(table));
  note(ex, "\nNote: with gossip on, most collaboration value lands as "
           "local-cache hits on merged entries; the peer-cache column "
           "counts only synchronous remote round trips.\n");
  return ex;
}

Exhibit f2() {
  Exhibit ex = open_exhibit(
      "F2", "accuracy / latency / reuse vs similarity threshold",
      "latency falls and accuracy decays with looser thresholds; knee in "
      "the middle of the sweep");

  ScenarioConfig base = evaluation_scenario();
  base.scene.class_confusion = 0.35f;
  base.scene.group_size = 4;
  base.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_seeds(base);
  note(ex, format("no-cache reference: %.2f ms, accuracy %.4f\n\n",
                  baseline.mean_latency_ms(), baseline.accuracy()));

  auto sweep = [&](Table table, std::initializer_list<float> thresholds,
                   bool homogeneity) {
    for (const float threshold : thresholds) {
      ScenarioConfig cfg = base;
      cfg.auto_threshold = false;  // this exhibit sweeps it explicitly
      cfg.pipeline = make_full_system_config();
      cfg.pipeline.cache.hknn.max_distance = threshold;
      cfg.pipeline.cache.hknn.require_homogeneity = homogeneity;
      table.rows.push_back(quality_row({TextTable::num(threshold, 2)},
                                       run_seeds(cfg), baseline));
    }
    emit(ex, std::move(table));
  };
  const std::vector<std::string> header{"max_distance", "mean ms", "reuse",
                                        "accuracy", "accuracy delta"};
  // The sweep spans the CNN-embedding geometry: intra-class ~0.02-0.03,
  // inter-class >= ~0.065 (tighter under class confusion) up into the
  // saturated regime where only H-kNN homogeneity protects accuracy.
  sweep({ex.title, header, {}},
        {0.01f, 0.02f, 0.04f, 0.06f, 0.10f, 0.20f, 0.50f}, true);

  // The flat accuracy at loose thresholds is H-kNN doing its job; the
  // plain-kNN contrast shows what it protects against.
  std::printf("\n");
  sweep(subtable(
            "same sweep endpoints with homogeneity DISABLED (plain kNN vote)",
            header),
        {0.04f, 0.20f, 0.50f}, false);
  return ex;
}

Exhibit f3() {
  Exhibit ex = open_exhibit(
      "F3", "reuse & latency vs cache capacity per eviction policy",
      "reuse grows then saturates with capacity; at tight capacity LFU "
      "leads on this Zipf-popular single-device workload (frequency is "
      "the signal; utility's provenance terms pay off under gossip "
      "churn, not here)");

  struct Policy {
    const char* name;
    EvictionKind kind;
  };
  const Policy policies[] = {{"lru", EvictionKind::kLru},
                             {"lfu", EvictionKind::kLfu},
                             {"utility", EvictionKind::kUtility}};
  for (const auto& policy : policies) {
    Table table = subtable(format("eviction: %s", policy.name),
                           {"capacity", "reuse", "mean ms", "evictions"});
    for (const std::size_t capacity : {8u, 16u, 32u, 64u, 128u, 256u}) {
      // Static-image workload: with temporal locality removed, reuse comes
      // entirely from the cache, so capacity actually binds (a video
      // stream's working set is just the object currently in view, which
      // even a 16-entry cache covers).
      ScenarioConfig cfg = photo_app_scenario();
      cfg.zipf_s = 1.1;
      cfg.duration = 240 * kSecond;
      cfg.pipeline = make_full_system_config();
      cfg.pipeline.cache.capacity = capacity;
      cfg.eviction = policy.kind;
      cfg.seed = 3000;
      ExperimentRunner runner{cfg};
      const ExperimentMetrics m = runner.run();
      table.rows.push_back(
          {std::to_string(capacity), TextTable::num(m.reuse_ratio(), 3),
           TextTable::num(m.mean_latency_ms()),
           std::to_string(runner.metrics().counter_value("cache/evict"))});
    }
    emit(ex, std::move(table), "\n");
  }
  return ex;
}

Exhibit f4(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "F4", "per-frame latency CDF per configuration",
      "full system bimodal: big fast mode + small inference mode; "
      "no-cache unimodal at the model latency");

  const double percentiles[] = {0.01, 0.05, 0.10, 0.25, 0.50,
                                0.75, 0.90, 0.95, 0.99};
  Table table{ex.title, {"configuration"}, {}};
  for (const double p : percentiles) {
    table.header.push_back(format("p%d", static_cast<int>(p * 100)));
  }
  for (const auto& [name, m] : evaluation) {
    std::vector<std::string> row{name};
    for (const double p : percentiles) {
      row.push_back(TextTable::num(m.latency_quantile_ms(p), 2));
    }
    table.rows.push_back(std::move(row));
  }
  emit(ex, std::move(table));
  note(ex, "\n(all values in ms; read each row as the latency CDF of one "
           "configuration)\n");
  return ex;
}

Exhibit f5(const Ladder& evaluation) {
  Exhibit ex = open_exhibit(
      "F5", "latency / accuracy / source mix vs motion intensity",
      "reuse falls gracefully with motion; accuracy stays flat because "
      "gating disables unsafe paths");

  struct Mix {
    const char* name;
    double stationary, minor, major;
  };
  const Mix mixes[] = {
      {"all-stationary", 1.00, 0.00, 0.00},
      {"mostly-still", 0.70, 0.25, 0.05},
      {"mixed", 0.40, 0.40, 0.20},
      {"mostly-moving", 0.15, 0.45, 0.40},
      {"all-major", 0.00, 0.00, 1.00},
  };
  Table table{ex.title,
              {"mobility", "mean ms", "reuse", "accuracy", "fastpath",
               "temporal", "cache", "inference"},
              {}};
  const ScenarioConfig base = evaluation_scenario();
  for (const Mix& mix : mixes) {
    ScenarioConfig cfg = base;
    cfg.p_stationary = mix.stationary;
    cfg.p_minor = mix.minor;
    cfg.p_major = mix.major;
    cfg.pipeline = make_full_system_config();
    // The evaluation scenario's own mix reads its full-system result.
    const bool shared = mix.stationary == base.p_stationary &&
                        mix.minor == base.p_minor && mix.major == base.p_major;
    const ExperimentMetrics m = shared ? evaluation.back().m : run_seeds(cfg);
    table.rows.push_back(
        {mix.name, TextTable::num(m.mean_latency_ms()),
         TextTable::num(m.reuse_ratio(), 3), TextTable::num(m.accuracy(), 3),
         TextTable::num(m.source_fraction(ResultSource::kImuFastPath), 3),
         TextTable::num(m.source_fraction(ResultSource::kTemporalReuse), 3),
         TextTable::num(m.source_fraction(ResultSource::kLocalCacheHit) +
                            m.source_fraction(ResultSource::kPeerCacheHit),
                        3),
         TextTable::num(m.source_fraction(ResultSource::kFullInference), 3)});
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit f9() {
  Exhibit ex = open_exhibit(
      "F9", "dropped frames & latency vs camera frame rate",
      "no-cache saturates near 1/inference-latency; the full system "
      "absorbs 30 fps");

  Table table{ex.title,
              {"fps", "configuration", "offered", "processed", "dropped %",
               "mean ms"},
              {}};
  const std::vector<NamedConfig> configs = configuration_ladder();
  for (const double fps : {5.0, 10.0, 20.0, 30.0}) {
    for (const NamedConfig& named : {configs.front(), configs.back()}) {
      ScenarioConfig cfg = evaluation_scenario();
      cfg.duration = 30 * kSecond;
      cfg.video.fps = fps;
      cfg.pipeline = named.config;
      cfg.seed = 6000;
      const ExperimentMetrics m = run_scenario(cfg);
      const std::size_t offered = m.frames() + m.dropped();
      table.rows.push_back(
          {TextTable::num(fps, 0), named.name, std::to_string(offered),
           std::to_string(m.frames()),
           TextTable::num(offered > 0
                              ? 100.0 * static_cast<double>(m.dropped()) /
                                    static_cast<double>(offered)
                              : 0.0,
                          1),
           TextTable::num(m.mean_latency_ms())});
    }
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit a2() {
  Exhibit ex = open_exhibit(
      "A2", "H-kNN vs plain kNN vs 1-NN on confusable data",
      "H-kNN cuts wrong reuse sharply at modest abstention cost; 1-NN worst");

  // Synthetic cache neighbourhoods with a controlled fraction of mislabeled
  // near neighbours; per decision rule: wrong reuse (reused a wrong label),
  // right reuse, abstention.
  struct Outcome {
    int reused_right = 0;
    int reused_wrong = 0;
    int abstained = 0;

    void tally(const std::optional<HknnVote>& vote, Label truth) {
      if (!vote.has_value()) {
        ++abstained;
      } else if (vote->label == truth) {
        ++reused_right;
      } else {
        ++reused_wrong;
      }
    }
  };

  HknnParams params;
  params.k = 4;
  params.homogeneity_threshold = 0.8f;
  params.max_distance = 0.5f;
  HknnParams one_nn = params;
  one_nn.k = 1;

  Table table{ex.title,
              {"contamination", "rule", "wrong-reuse", "right-reuse",
               "abstain"},
              {}};
  for (const double contamination : {0.0, 0.1, 0.25, 0.4}) {
    Outcome hknn_out, knn_out, nn1_out;
    Rng rng{77};
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      const Label truth = 1;
      const Label wrong = 2;
      // A neighbourhood of 5 candidates around the query; each is
      // mislabeled with the contamination probability. Distances are small
      // (all "look like" valid matches) — exactly the dangerous case.
      std::vector<Neighbor> neighbors;
      std::vector<Label> labels;
      for (VecId id = 0; id < 5; ++id) {
        neighbors.push_back(
            {id, static_cast<float>(rng.uniform(0.02, 0.30))});
        labels.push_back(rng.chance(contamination) ? wrong : truth);
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [](const Neighbor& a, const Neighbor& b) {
                  return a.distance < b.distance;
                });
      auto label_of = [&](VecId id) {
        return labels[static_cast<std::size_t>(id)];
      };
      hknn_out.tally(hknn_vote(neighbors, label_of, params), truth);
      knn_out.tally(plain_knn_vote(neighbors, label_of, params), truth);
      nn1_out.tally(plain_knn_vote(neighbors, label_of, one_nn), truth);
    }
    for (const auto& [rule, out] : {std::pair{"h-knn", &hknn_out},
                                    std::pair{"plain-knn", &knn_out},
                                    std::pair{"1-nn", &nn1_out}}) {
      const double n = trials;
      table.rows.push_back({TextTable::num(contamination, 2), rule,
                            TextTable::num(out->reused_wrong / n, 4),
                            TextTable::num(out->reused_right / n, 4),
                            TextTable::num(out->abstained / n, 4)});
    }
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit a3() {
  Exhibit ex = open_exhibit(
      "A3", "feature extractor ablation",
      "cnn-embed best reuse quality; cheaper extractors trade reuse for "
      "hit-path cost");

  struct Row {
    const char* name;
    ExtractorKind kind;
  };
  const Row extractors[] = {
      {"downsample", ExtractorKind::kDownsample},
      {"histogram", ExtractorKind::kHistogram},
      {"hog", ExtractorKind::kHog},
      {"cnn-embed", ExtractorKind::kCnn},
  };

  ScenarioConfig base = evaluation_scenario();
  base.scene.class_confusion = 0.25f;  // make hit *quality* matter
  base.scene.group_size = 4;
  base.pipeline = make_nocache_config();
  const ExperimentMetrics baseline = run_seeds(base);
  note(ex, format("no-cache reference: %.2f ms, accuracy %.4f\n\n",
                  baseline.mean_latency_ms(), baseline.accuracy()));

  Table table{ex.title,
              {"extractor", "extract ms", "mean ms", "reuse", "accuracy",
               "accuracy delta"},
              {}};
  for (const Row& row : extractors) {
    ScenarioConfig cfg = base;
    cfg.extractor = row.kind;
    cfg.pipeline = make_full_system_config();
    table.rows.push_back(quality_row(
        {row.name,
         TextTable::num(to_ms(make_extractor(row.kind)->latency()), 1)},
        run_seeds(cfg), baseline));
  }
  emit(ex, std::move(table));
  return ex;
}

Exhibit a5() {
  Exhibit ex = open_exhibit(
      "A5", "adaptive threshold vs fixed thresholds across worlds",
      "the controller is never far from the per-world best fixed "
      "threshold on either axis");

  struct World {
    const char* name;
    float confusion;
  };
  for (const World world :
       {World{"easy", 0.0f}, World{"medium", 0.3f}, World{"hard", 0.5f}}) {
    Table table = subtable(
        format("world: %s (confusion %.1f)", world.name, world.confusion),
        {"policy", "mean ms", "reuse", "accuracy", "accuracy delta"});
    ScenarioConfig base = evaluation_scenario();
    base.scene.class_confusion = world.confusion;
    base.scene.group_size = 4;
    base.pipeline = make_nocache_config();
    const ExperimentMetrics baseline = run_seeds(base, 2);

    auto add_row = [&](std::string policy, const PipelineConfig& pipeline,
                       float max_distance) {
      ScenarioConfig cfg = base;
      cfg.auto_threshold = false;
      cfg.pipeline = pipeline;
      cfg.pipeline.cache.hknn.max_distance = max_distance;
      table.rows.push_back(
          quality_row({std::move(policy)}, run_seeds(cfg, 2), baseline));
    };
    for (const float fixed : {0.03f, 0.08f, 0.50f}) {
      add_row("fixed " + TextTable::num(fixed, 2), make_full_system_config(),
              fixed);
    }
    add_row("adaptive", make_adaptive_config(), 0.08f);  // the adapted base
    emit(ex, std::move(table), "\n");
  }
  return ex;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    out += (out.size() > 1 ? ", " : "") + quote(item);
  }
  return out + "]";
}

/// Writes every exhibit, one table row per line, as
///   {"bench": "tables", "exhibits": [{"id", "title", "notes",
///     "tables": [{"title", "header", "rows"}]}]}
bool write_json(const std::vector<Exhibit>& exhibits, const char* path) {
  std::string out = "{\n  \"bench\": \"tables\",\n  \"exhibits\": [";
  for (const Exhibit& ex : exhibits) {
    out += &ex == &exhibits.front() ? "\n" : ",\n";
    out += "    {\"id\": " + quote(ex.id) + ", \"title\": " + quote(ex.title) +
           ",\n     \"notes\": " + list(ex.notes) + ",\n     \"tables\": [";
    for (const Table& table : ex.tables) {
      out += &table == &ex.tables.front() ? "\n" : ",\n";
      out += "      {\"title\": " + quote(table.title) +
             ",\n       \"header\": " + list(table.header) +
             ",\n       \"rows\": [";
      for (const auto& row : table.rows) {
        out += (&row == &table.rows.front() ? "\n         " : ",\n         ") +
               list(row);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  FILE* f = std::fopen(path, "w");
  const bool ok = f != nullptr && std::fputs(out.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) == 0 && ok) return true;
  std::fprintf(stderr, "cannot write %s\n", path);
  return false;
}

}  // namespace

int main() {
  // The evaluation scenario's configuration ladder, run once for every
  // exhibit that reads it.
  const Ladder evaluation = run_ladder(evaluation_scenario());

  const std::vector<Exhibit> exhibits{
      t1(evaluation), t2(evaluation), t3(evaluation), t4(evaluation),
      f1(),           f2(),           f3(),           f4(evaluation),
      f5(evaluation), f9(),           a2(),           a3(),
      a5()};
  return write_json(exhibits, "BENCH_tables.json") ? 0 : 1;
}
