// Museum tour: the poster's flagship collaborative scenario. A group of
// visitors walks through a gallery pointing their phones at exhibits; the
// same artworks are recognized again and again across the group, so cache
// entries computed by one phone save DNN runs on every other phone.
//
//   $ ./museum_tour [visitors] [minutes]
//
// Compares the group's experience with and without P2P sharing, and prints
// the per-device breakdown.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/sim/runner.hpp"
#include "src/util/table.hpp"

namespace {

apx::ScenarioConfig museum(int visitors, double minutes) {
  apx::ScenarioConfig cfg = apx::default_scenario();
  cfg.num_devices = visitors;
  cfg.duration = static_cast<apx::SimDuration>(minutes * 60) * apx::kSecond;
  cfg.seed = 2026;
  // A gallery: a modest set of exhibits, strongly popular highlights,
  // visitors who stop in front of works (stationary) and stroll between
  // them (minor/major motion).
  cfg.scene.num_classes = 48;
  cfg.zipf_s = 1.1;
  cfg.p_stationary = 0.55;
  cfg.p_minor = 0.35;
  cfg.p_major = 0.10;
  cfg.co_located = true;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const int visitors = argc > 1 ? std::atoi(argv[1]) : 6;
  const double minutes = argc > 2 ? std::atof(argv[2]) : 2.0;
  if (visitors < 1 || minutes <= 0) {
    std::fprintf(stderr, "usage: museum_tour [visitors >= 1] [minutes > 0]\n");
    return 1;
  }

  std::printf("Museum tour: %d visitors, %.1f minutes in the gallery\n\n",
              visitors, minutes);

  apx::ScenarioConfig cfg = museum(visitors, minutes);
  cfg.pipeline = apx::make_nocache_config();
  const apx::ExperimentMetrics nocache = apx::run_scenario(cfg);

  cfg.pipeline = apx::make_full_system_config();
  cfg.pipeline.enable_p2p = false;
  const apx::ExperimentMetrics solo = apx::run_scenario(cfg);

  cfg.pipeline.enable_p2p = true;
  apx::ExperimentRunner collaborative{cfg};
  const apx::ExperimentMetrics shared = collaborative.run();

  apx::TextTable table;
  table.header({"config", "mean ms", "p99 ms", "reuse", "accuracy",
                "reduction"});
  auto row = [&](const char* name, const apx::ExperimentMetrics& m) {
    table.row({name, apx::TextTable::num(m.mean_latency_ms()),
               apx::TextTable::num(m.latency_quantile_ms(0.99)),
               apx::TextTable::num(m.reuse_ratio(), 3),
               apx::TextTable::num(m.accuracy(), 3),
               apx::TextTable::num(
                   m.reduction_vs_percent(nocache.mean_latency_ms()), 1) +
                   "%"});
  };
  row("no-cache", nocache);
  row("solo caching", solo);
  row("collaborative", shared);
  std::printf("%s\n", table.render().c_str());

  std::printf("per-visitor experience (collaborative):\n");
  apx::TextTable devices;
  devices.header({"visitor", "frames", "mean ms", "reuse"});
  int id = 0;
  for (const auto& m : collaborative.device_metrics()) {
    std::string visitor = "#";
    visitor += std::to_string(id++);
    devices.row({visitor, std::to_string(m.frames()),
                 apx::TextTable::num(m.mean_latency_ms()),
                 apx::TextTable::num(m.reuse_ratio(), 3)});
  }
  std::printf("%s\n", devices.render().c_str());

  const apx::MetricsRegistry& p2p = collaborative.metrics();
  std::printf("P2P activity: %llu lookups, %llu adverts, %llu entries merged\n",
              static_cast<unsigned long long>(
                  p2p.counter_value("p2p/lookup_sent")),
              static_cast<unsigned long long>(
                  p2p.counter_value("p2p/advert_sent")),
              static_cast<unsigned long long>(p2p.counter_value("p2p/merged")));
  return 0;
}
