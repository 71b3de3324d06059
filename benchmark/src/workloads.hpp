#pragma once
// The benchmark's workloads. They are defined here rather than taken from
// bench/common.hpp so that clean-ups of the exhibit benches cannot move
// them. Each one is a ScenarioConfig that is a pure function of (name,
// seed, repeat).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/scenario.hpp"

namespace apxbench {

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// The scenario with seed 0; config_for() sets each repeat's seed.
  apx::ScenarioConfig config;
  /// Wall seconds one repeat takes on the reference host (4-core Xeon,
  /// Release build); sets how many repeats fit in a run.
  double repeat_seconds = 1.0;

  /// The scenario of repeat `r`: each repeat simulates its own seed, drawn
  /// from the workload seed, so a run pools several independent worlds.
  apx::ScenarioConfig config_for(int r) const;

  /// Repeats in a run of `seconds`: as many as fit on the reference host,
  /// at least `min_repeats`. A function of the arguments only, so the
  /// simulated metrics never depend on how fast the host is.
  int repeats_for(double seconds, int min_repeats) const;
};

/// Names in their canonical order: museum, kiosk, roam, crowd.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`. `smoke` shortens the simulated
/// duration to a few seconds (the ctest smoke run). Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed,
                       bool smoke = false);

}  // namespace apxbench
