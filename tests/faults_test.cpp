// Chaos/soak suite for the deterministic fault-injection layer
// (src/net/faults.*): spec parsing, the injector's statistical behaviour,
// and 4-device end-to-end runs under every fault class. The end-to-end
// tests assert the robustness contract, not exact numbers: no throw
// escapes the runner, accuracy stays within two points of the fault-free
// run, a fully partitioned fleet converges to standalone latency, and the
// same seed replays to a byte-identical metrics export.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/net/faults.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/runner.hpp"

namespace apx {
namespace {

// ------------------------------------------------------------- Spec parsing

TEST(FaultSpec, EmptyIsNoFaults) {
  const FaultPlan plan = parse_fault_spec("");
  EXPECT_FALSE(plan.any());
}

TEST(FaultSpec, BurstClause) {
  FaultPlan plan = parse_fault_spec("burst:0.2");
  EXPECT_DOUBLE_EQ(plan.burst_loss, 0.2);
  EXPECT_DOUBLE_EQ(plan.burst_mean_len, 8.0);
  plan = parse_fault_spec("burst:0.3:16");
  EXPECT_DOUBLE_EQ(plan.burst_mean_len, 16.0);
  EXPECT_TRUE(plan.any());
}

TEST(FaultSpec, CombinedClauses) {
  const FaultPlan plan =
      parse_fault_spec("burst:0.1,spike:0.05:40,partition:split:5:10:30,"
                       "crash:30:5,corrupt:0.02");
  EXPECT_DOUBLE_EQ(plan.burst_loss, 0.1);
  EXPECT_DOUBLE_EQ(plan.spike_prob, 0.05);
  EXPECT_EQ(plan.spike_extra, 40 * kMillisecond);
  EXPECT_EQ(plan.partition, PartitionMode::kSplit);
  EXPECT_EQ(plan.partition_start, 5 * kSecond);
  EXPECT_EQ(plan.partition_duration, 10 * kSecond);
  EXPECT_EQ(plan.partition_period, 30 * kSecond);
  EXPECT_EQ(plan.crash_mean_uptime, 30 * kSecond);
  EXPECT_EQ(plan.crash_downtime, 5 * kSecond);
  EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.02);
}

TEST(FaultSpec, MalformedSpecsThrow) {
  EXPECT_THROW(parse_fault_spec("bogus:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("burst"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("burst:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("burst:0.2:0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spike:0.05"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spike:2:40"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("partition:diag:0:5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("partition:full:0:0"), std::invalid_argument);
  // period must exceed duration
  EXPECT_THROW(parse_fault_spec("partition:full:0:10:5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash:0:5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("corrupt:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("burst:abc"), std::invalid_argument);
}

// ------------------------------------------------------------- Injector

TEST(FaultInjector, BurstLossMatchesTargetRateAndBurstiness) {
  FaultPlan plan;
  plan.burst_loss = 0.2;
  plan.burst_mean_len = 8.0;
  FaultInjector inj{plan, 42};
  const int n = 50000;
  int lost = 0, bursts = 0;
  bool in_burst = false;
  for (int i = 0; i < n; ++i) {
    const bool drop = inj.burst_lost(/*to=*/0);
    lost += drop ? 1 : 0;
    if (drop && !in_burst) ++bursts;
    in_burst = drop;
  }
  const double rate = static_cast<double>(lost) / n;
  EXPECT_NEAR(rate, 0.2, 0.03);
  // Mean burst length near the configured dwell time (the chain is bursty,
  // not i.i.d.: at 20% loss i.i.d. bursts would average ~1.25 messages).
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_GT(mean_burst, 4.0);
  EXPECT_LT(mean_burst, 14.0);
}

TEST(FaultInjector, IndependentChainsPerReceiver) {
  FaultPlan plan;
  plan.burst_loss = 0.5;
  plan.burst_mean_len = 4.0;
  FaultInjector inj{plan, 7};
  // Both receivers see roughly the target rate; chains advance separately.
  int lost_a = 0, lost_b = 0;
  for (int i = 0; i < 20000; ++i) {
    lost_a += inj.burst_lost(1) ? 1 : 0;
    lost_b += inj.burst_lost(2) ? 1 : 0;
  }
  EXPECT_NEAR(lost_a / 20000.0, 0.5, 0.05);
  EXPECT_NEAR(lost_b / 20000.0, 0.5, 0.05);
}

TEST(FaultInjector, DelaySpikesAreZeroWhenDisabled) {
  FaultInjector inj{FaultPlan{}, 1};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(inj.delay_spike(), 0);
  EXPECT_EQ(inj.counters().get("delay_spike"), 0u);
}

TEST(FaultInjector, DelaySpikesMeanNearConfigured) {
  FaultPlan plan;
  plan.spike_prob = 1.0;
  plan.spike_extra = 50 * kMillisecond;
  FaultInjector inj{plan, 3};
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(inj.delay_spike());
  EXPECT_NEAR(total / n, static_cast<double>(plan.spike_extra),
              0.1 * static_cast<double>(plan.spike_extra));
}

TEST(FaultInjector, PartitionWindowsSplitAndHeal) {
  FaultPlan plan;
  plan.partition = PartitionMode::kSplit;
  plan.partition_start = 10 * kSecond;
  plan.partition_duration = 5 * kSecond;
  plan.partition_period = 20 * kSecond;
  FaultInjector inj{plan, 1};
  // Before the window, nothing is cut.
  EXPECT_FALSE(inj.partitioned(0, 1, 9 * kSecond));
  // Inside: odd/even halves are cut, same-parity pairs still hear each other.
  EXPECT_TRUE(inj.partitioned(0, 1, 12 * kSecond));
  EXPECT_FALSE(inj.partitioned(0, 2, 12 * kSecond));
  // Healed, then partitioned again one period later.
  EXPECT_FALSE(inj.partitioned(0, 1, 16 * kSecond));
  EXPECT_TRUE(inj.partitioned(0, 1, 31 * kSecond));
  EXPECT_EQ(inj.counters().get("partition_drop"), 2u);
}

TEST(FaultInjector, FullPartitionCutsEveryPair) {
  FaultPlan plan;
  plan.partition = PartitionMode::kFull;
  plan.partition_duration = 5 * kSecond;
  FaultInjector inj{plan, 1};
  EXPECT_TRUE(inj.partitioned(0, 2, 1 * kSecond));
  EXPECT_TRUE(inj.partitioned(1, 3, 1 * kSecond));
  EXPECT_FALSE(inj.partitioned(0, 2, 6 * kSecond));
}

TEST(FaultInjector, CorruptionNeverGrowsPayloadAndCounts) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  FaultInjector inj{plan, 9};
  Rng rng{4};
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> payload(1 + rng.uniform_u64(64));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto original = payload;
    ASSERT_TRUE(inj.maybe_corrupt(payload));
    EXPECT_LE(payload.size(), original.size());
    if (payload.size() == original.size()) {
      EXPECT_NE(payload, original);
    }
  }
  std::vector<std::uint8_t> empty;
  EXPECT_FALSE(inj.maybe_corrupt(empty));  // nothing to corrupt
  EXPECT_EQ(inj.counters().get("corrupted"), 500u);
}

TEST(FaultInjector, CrashScheduleIsSortedDisjointAndDeterministic) {
  FaultPlan plan;
  plan.crash_mean_uptime = 10 * kSecond;
  plan.crash_downtime = 3 * kSecond;
  FaultInjector a{plan, 123};
  FaultInjector b{plan, 123};
  const auto& crashes = a.plan_crashes(4, 120 * kSecond);
  EXPECT_FALSE(crashes.empty());
  for (std::size_t i = 1; i < crashes.size(); ++i) {
    EXPECT_LE(crashes[i - 1].down_at, crashes[i].down_at);
  }
  // Per device: downtime windows never overlap and every crash starts
  // within the run.
  for (std::size_t d = 0; d < 4; ++d) {
    SimTime last_up = 0;
    for (const CrashEvent& ev : crashes) {
      if (ev.device != d) continue;
      EXPECT_GE(ev.down_at, last_up);
      EXPECT_EQ(ev.up_at, ev.down_at + plan.crash_downtime);
      EXPECT_LT(ev.down_at, 120 * kSecond);
      last_up = ev.up_at;
    }
  }
  // Same seed, same schedule; the call is idempotent.
  const auto& again = b.plan_crashes(4, 120 * kSecond);
  ASSERT_EQ(again.size(), crashes.size());
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    EXPECT_EQ(again[i].device, crashes[i].device);
    EXPECT_EQ(again[i].down_at, crashes[i].down_at);
  }
  EXPECT_EQ(a.plan_crashes(4, 120 * kSecond).size(), crashes.size());
}

// ------------------------------------------------------------- Chaos runs

/// Pooled metrics plus the registry values the assertions care about, from
/// one 4-device full-system scenario.
struct ChaosRun {
  ExperimentMetrics metrics;
  std::string json;
  std::uint64_t crash = 0, restart = 0, burst_drop = 0, partition_drop = 0,
                corrupted = 0, degraded = 0, backoff_skip = 0, bad_message = 0;
  std::uint64_t edge_degraded = 0, edge_backoff_skip = 0;
  double p2p_rung_max_us = 0.0;
  double edge_round_max_us = 0.0;
};

ScenarioConfig chaos_scenario(const std::string& spec) {
  ScenarioConfig cfg = default_scenario();
  cfg.num_devices = 4;
  cfg.duration = 15 * kSecond;
  cfg.faults = parse_fault_spec(spec);
  return cfg;
}

ChaosRun run_chaos(const ScenarioConfig& cfg) {
  ExperimentRunner runner{cfg};
  ChaosRun out;
  out.metrics = runner.run();
  const MetricsRegistry& reg = runner.metrics();
  out.json = reg.to_json();
  out.crash = reg.counter_value("faults/crash");
  out.restart = reg.counter_value("faults/restart");
  out.burst_drop = reg.counter_value("faults/burst_drop");
  out.partition_drop = reg.counter_value("faults/partition_drop");
  out.corrupted = reg.counter_value("faults/corrupted");
  out.degraded = reg.counter_value("p2p/degraded");
  out.backoff_skip = reg.counter_value("p2p/backoff_skip");
  out.bad_message = reg.counter_value("p2p/bad_message");
  out.edge_degraded = reg.counter_value("edge/degraded");
  out.edge_backoff_skip = reg.counter_value("edge/backoff_skip");
  if (const auto* h = reg.find_histogram("pipeline/rung_us/p2p")) {
    out.p2p_rung_max_us = h->max;
  }
  if (const auto* h = reg.find_histogram("edge/round_us")) {
    out.edge_round_max_us = h->max;
  }
  return out;
}

TEST(ChaosSoak, BurstLossKeepsAccuracyWithinTwoPoints) {
  const ChaosRun clean = run_chaos(chaos_scenario(""));
  const ChaosRun burst = run_chaos(chaos_scenario("burst:0.2:8"));
  EXPECT_GT(burst.burst_drop, 0u);
  EXPECT_NEAR(burst.metrics.accuracy(), clean.metrics.accuracy(), 0.02);
  // Fault-free runs export the fault counters as zeros (stable schema).
  EXPECT_EQ(clean.burst_drop, 0u);
  EXPECT_NE(clean.json.find("faults/burst_drop"), std::string::npos);
}

TEST(ChaosSoak, FullPartitionConvergesToStandaloneLatency) {
  // The whole run is partitioned: the P2P rung must never stall the ladder,
  // so the fleet behaves like the same pipeline with P2P disabled.
  const ChaosRun cut = run_chaos(chaos_scenario("partition:full:0:15"));
  ScenarioConfig standalone = chaos_scenario("");
  standalone.pipeline.enable_p2p = false;
  const ChaosRun solo = run_chaos(standalone);
  EXPECT_GT(cut.partition_drop, 0u);  // beacons kept hitting the wall
  EXPECT_NEAR(cut.metrics.accuracy(), solo.metrics.accuracy(), 0.02);
  EXPECT_LT(std::abs(cut.metrics.mean_latency_ms() -
                     solo.metrics.mean_latency_ms()),
            3.0);
  // Whatever the P2P rung did cost stayed bounded by the lookup timeout.
  const ScenarioConfig probe = chaos_scenario("");
  EXPECT_LE(cut.p2p_rung_max_us,
            static_cast<double>(probe.peer.lookup_timeout) + 2000.0);
}

TEST(ChaosSoak, MidRunPartitionDegradesThenBacksOff) {
  // Neighbours are learned in the first 5 s; when the cell shatters, rounds
  // start timing out (degraded) and after the configured streak the rung
  // backs off instead of paying the timeout every frame.
  const ChaosRun run = run_chaos(chaos_scenario("partition:full:5:10"));
  EXPECT_GT(run.degraded, 0u);
  EXPECT_GT(run.backoff_skip, 0u);
  EXPECT_LE(run.p2p_rung_max_us,
            static_cast<double>(chaos_scenario("").peer.lookup_timeout) +
                2000.0);
}

TEST(ChaosSoak, CrashRestartCyclesSurviveAndRecover) {
  // Moderate churn: each device crashes about once in the window. Heavier
  // schedules turn the run into a cold-start benchmark (every wipe pays a
  // cache-refill accuracy cost), which is measured by EXPERIMENTS.md F6,
  // not asserted here.
  const ChaosRun clean = run_chaos(chaos_scenario(""));
  const ChaosRun churn = run_chaos(chaos_scenario("crash:10:3"));
  EXPECT_GT(churn.crash, 0u);
  EXPECT_EQ(churn.crash, churn.restart);  // every crash came back
  EXPECT_NEAR(churn.metrics.accuracy(), clean.metrics.accuracy(), 0.02);
  // Same sensing schedule: every captured frame is either processed or a
  // counted busy-drop, never silently lost to a crash window.
  EXPECT_EQ(churn.metrics.frames() + churn.metrics.dropped(),
            clean.metrics.frames() + clean.metrics.dropped());
}

TEST(ChaosSoak, RestartedPeersRejoinAndResyncViaHotsetPush) {
  // With hot-set push enabled, a restarted (wiped) device is warmed by the
  // first neighbour that re-discovers it: the fleet keeps collaborating
  // across crash cycles instead of devolving into standalone islands.
  ScenarioConfig cfg = chaos_scenario("crash:6:2");
  cfg.peer.hotset_push_max = 8;
  const ChaosRun churn = run_chaos(cfg);
  EXPECT_GT(churn.crash, 1u);
  EXPECT_EQ(churn.crash, churn.restart);
  ExperimentRunner probe{cfg};
  probe.run();
  // Peer entries flowed after the wipes (merges count only entries that
  // actually joined a cache).
  EXPECT_GT(probe.metrics().counter_value("p2p/merged"), 0u);
}

TEST(ChaosSoak, CorruptionSurfacesAsDropsNeverUb) {
  const ChaosRun clean = run_chaos(chaos_scenario(""));
  const ChaosRun noisy = run_chaos(chaos_scenario("corrupt:0.3"));
  EXPECT_GT(noisy.corrupted, 0u);
  // At a 30% corruption rate some mutations must fail to decode; each one
  // is a counted drop, not a crash (ASAN/UBSAN runs enforce the "never UB"
  // half of the contract).
  EXPECT_GT(noisy.bad_message, clean.bad_message);
  EXPECT_NEAR(noisy.metrics.accuracy(), clean.metrics.accuracy(), 0.02);
}

TEST(ChaosSoak, EverythingAtOnceSameSeedIsByteIdentical) {
  const std::string spec =
      "burst:0.15:8,spike:0.05:30,partition:split:4:3:8,crash:6:2,"
      "corrupt:0.05";
  const ChaosRun a = run_chaos(chaos_scenario(spec));
  const ChaosRun b = run_chaos(chaos_scenario(spec));
  EXPECT_EQ(a.json, b.json);
  EXPECT_DOUBLE_EQ(a.metrics.accuracy(), b.metrics.accuracy());
  EXPECT_DOUBLE_EQ(a.metrics.mean_latency_ms(), b.metrics.mean_latency_ms());
  // And it actually injected every class.
  EXPECT_GT(a.burst_drop, 0u);
  EXPECT_GT(a.partition_drop, 0u);
  EXPECT_GT(a.crash, 0u);
  EXPECT_GT(a.corrupted, 0u);
}

// ------------------------------------------------------------- Edge chaos

ScenarioConfig edge_chaos_scenario(const std::string& spec) {
  ScenarioConfig cfg = chaos_scenario(spec);
  cfg.pipeline = make_edge_config();
  return cfg;
}

TEST(EdgeChaos, FullPartitionConvergesToStandaloneLatency) {
  // The edge link is cut for the whole run (along with P2P — the partition
  // severs every pair). The edge rung's timeout/backoff must keep the
  // ladder moving: the fleet converges to the same latency and accuracy as
  // a pipeline that never had the collaborative rungs.
  const ChaosRun cut = run_chaos(edge_chaos_scenario("partition:full:0:15"));
  ScenarioConfig standalone = chaos_scenario("");
  standalone.pipeline.enable_p2p = false;
  standalone.pipeline.enable_edge = false;
  const ChaosRun solo = run_chaos(standalone);
  EXPECT_GT(cut.partition_drop, 0u);
  EXPECT_GT(cut.edge_degraded, 0u);    // lookups timed out...
  EXPECT_GT(cut.edge_backoff_skip, 0u);  // ...then the client backed off
  EXPECT_NEAR(cut.metrics.accuracy(), solo.metrics.accuracy(), 0.02);
  EXPECT_LT(std::abs(cut.metrics.mean_latency_ms() -
                     solo.metrics.mean_latency_ms()),
            3.0);
  // No edge round outlived the client's lookup timeout.
  const ScenarioConfig probe = edge_chaos_scenario("");
  EXPECT_LE(cut.edge_round_max_us,
            static_cast<double>(probe.pipeline.edge.lookup_timeout) + 2000.0);
}

TEST(EdgeChaos, CrashWipesShardsAndRestartRewarms) {
  // Crash at 6 s: the service must wipe its shards and go silent. Without a
  // restart the run ends empty.
  ScenarioConfig down = edge_chaos_scenario("");
  down.edge_down_at = 6 * kSecond;
  ExperimentRunner down_runner{down};
  down_runner.run();
  EXPECT_EQ(down_runner.edge_cache_size(), 0u);

  // With a restart at 9 s the devices re-warm the empty service through
  // their normal DNN-validated feeds.
  ScenarioConfig cycle = down;
  cycle.edge_up_at = 9 * kSecond;
  ExperimentRunner cycle_runner{cycle};
  cycle_runner.run();
  EXPECT_GT(cycle_runner.edge_cache_size(), 0u);
  const std::uint64_t admitted =
      cycle_runner.metrics().counter_value("edge/srv_admit");
  EXPECT_GT(admitted, 0u);

  // The crash window costs reuse, not correctness: accuracy stays within
  // two points of the fault-free edge run. Pooled over seeds — a
  // single-seed comparison is dominated by reshuffled timing/medium draws
  // (the crash shifts every later event), not by edge-served errors.
  ExperimentMetrics clean, crashed;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ScenarioConfig cfg = edge_chaos_scenario("");
    cfg.seed = seed;
    clean.merge(run_scenario(cfg));
    cfg.edge_down_at = 6 * kSecond;
    cfg.edge_up_at = 9 * kSecond;
    crashed.merge(run_scenario(cfg));
  }
  EXPECT_NEAR(crashed.accuracy(), clean.accuracy(), 0.02);
}

TEST(EdgeChaos, EverythingAtOnceSameSeedIsByteIdentical) {
  const std::string spec =
      "burst:0.15:8,spike:0.05:30,partition:split:4:3:8,crash:6:2,"
      "corrupt:0.05";
  ScenarioConfig cfg = edge_chaos_scenario(spec);
  cfg.edge_down_at = 7 * kSecond;
  cfg.edge_up_at = 10 * kSecond;
  const ChaosRun a = run_chaos(cfg);
  const ChaosRun b = run_chaos(cfg);
  EXPECT_EQ(a.json, b.json);
  EXPECT_DOUBLE_EQ(a.metrics.accuracy(), b.metrics.accuracy());
  EXPECT_GT(a.burst_drop, 0u);
  EXPECT_GT(a.crash, 0u);
  EXPECT_GT(a.corrupted, 0u);
}

TEST(ChaosSoak, FaultFreePathUnchangedByFaultLayer) {
  // A default-constructed FaultPlan must not perturb the run at all: the
  // injector is never constructed, so RNG streams and metrics match a
  // config that never heard of faults.
  ScenarioConfig cfg = chaos_scenario("");
  ASSERT_FALSE(cfg.faults.any());
  const ChaosRun a = run_chaos(cfg);
  const ChaosRun b = run_chaos(cfg);
  EXPECT_EQ(a.json, b.json);
}

}  // namespace
}  // namespace apx
