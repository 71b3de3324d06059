#pragma once
// Simulated-time primitives. All latencies and timestamps in the library are
// expressed in simulated microseconds (SimTime), fully decoupled from wall
// clock so experiments are deterministic and fast.

#include <cstdint>

namespace apx {

/// Simulated time in microseconds since the start of an experiment.
using SimTime = std::int64_t;

/// Simulated duration in microseconds.
using SimDuration = std::int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000;
constexpr SimDuration kSecond = 1'000'000;

constexpr double to_ms(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

constexpr double to_seconds(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace apx
