// F6 (Figure 6) — robustness of the collaborative layer: radio loss sweep,
// in/out-of-range churn sweep, and two fault-injection exhibits (burst loss
// at increasing levels; a partition that heals mid-run). Expected shape:
// graceful degradation — higher loss and faster churn shrink the P2P
// contribution toward the solo-caching level, but never below it (the
// system falls back to local reuse + inference, lost lookups cost only the
// bounded timeout, and sustained timeouts trip the backoff so a cut-off
// device stops paying even that).

#include "bench/common.hpp"

#include "src/net/faults.hpp"
#include "src/sim/trace.hpp"

int main() {
  using namespace apx;
  using namespace apx::bench;

  banner("F6", "robustness to radio loss and range churn",
         "degrades toward (never below) the solo-caching level");

  // Collaboration-dependent workload (the F1/F8 photo app): every frame is
  // a fresh object, so reuse comes from recognition history and the P2P
  // contribution is large enough that losing it is visible.
  auto churny = [] {
    ScenarioConfig cfg = photo_app_scenario();
    cfg.zipf_s = 1.0;
    cfg.duration = 120 * kSecond;
    cfg.model = resnet50_profile();
    cfg.num_devices = 6;
    return cfg;
  };

  {
    ScenarioConfig solo = churny();
    solo.pipeline = make_full_system_config();
    solo.pipeline.enable_p2p = false;
    const ExperimentMetrics m = run_seeds(solo, 2);
    std::printf("solo-caching reference: %.2f ms, reuse %.3f\n\n",
                m.mean_latency_ms(), m.reuse_ratio());
  }

  std::printf("--- radio loss sweep ---\n");
  TextTable loss_table;
  loss_table.header({"loss prob", "mean ms", "reuse", "merged", "timeouts?"});
  for (const double loss : {0.0, 0.05, 0.15, 0.30, 0.60}) {
    ScenarioConfig cfg = churny();
    cfg.medium.loss_prob = loss;
    cfg.pipeline = make_full_system_config();
    cfg.seed = 4000;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    const MetricsRegistry& p2p = runner.metrics();
    // Lookups whose responses were all lost pay the timeout.
    const std::uint64_t sent = p2p.counter_value("p2p/lookup_sent");
    const std::uint64_t resp = p2p.counter_value("p2p/response_recv");
    loss_table.row({TextTable::num(loss, 2),
                    TextTable::num(m.mean_latency_ms()),
                    TextTable::num(m.reuse_ratio(), 3),
                    std::to_string(p2p.counter_value("p2p/merged")),
                    std::to_string(sent) + " lookups / " +
                        std::to_string(resp) + " responses"});
  }
  std::printf("%s\n", loss_table.render().c_str());

  std::printf("--- range churn sweep ---\n");
  TextTable churn_table;
  churn_table.header({"churn period s", "mean ms", "reuse", "merged"});
  for (const double period : {0.0, 20.0, 8.0, 3.0, 1.0}) {
    ScenarioConfig cfg = churny();
    cfg.churn_period = static_cast<SimDuration>(period * kSecond);
    cfg.pipeline = make_full_system_config();
    cfg.seed = 4001;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    churn_table.row({period == 0.0 ? "none" : TextTable::num(period, 0),
                     TextTable::num(m.mean_latency_ms()),
                     TextTable::num(m.reuse_ratio(), 3),
                     std::to_string(
                         runner.metrics().counter_value("p2p/merged"))});
  }
  std::printf("%s\n", churn_table.render().c_str());

  // Bursty loss is harsher than i.i.d. loss at the same rate: a bad-state
  // dwell swallows a whole lookup round (request + every response), so
  // rounds time out instead of thinning. The accuracy column is the
  // headline: it must stay within ~2 points of the 0% row while latency
  // degrades toward (never past) solo.
  std::printf("--- burst loss sweep (Gilbert-Elliott, --faults burst:L) ---\n");
  TextTable burst_table;
  burst_table.header({"burst loss", "mean ms", "accuracy", "reuse",
                      "degraded rounds", "backoff skips"});
  for (const double loss : {0.0, 0.1, 0.2, 0.4, 0.6}) {
    ScenarioConfig cfg = churny();
    cfg.pipeline = make_full_system_config();
    cfg.seed = 4002;
    cfg.faults.burst_loss = loss;
    ExperimentRunner runner{cfg};
    const ExperimentMetrics m = runner.run();
    burst_table.row(
        {TextTable::num(loss, 1), TextTable::num(m.mean_latency_ms()),
         TextTable::num(m.accuracy(), 4), TextTable::num(m.reuse_ratio(), 3),
         std::to_string(runner.metrics().counter_value("p2p/degraded")),
         std::to_string(runner.metrics().counter_value("p2p/backoff_skip"))});
  }
  std::printf("%s\n", burst_table.render().c_str());

  // Partition-heal timeline: the cell shatters at t=40 s and heals at
  // t=80 s. Per-10 s buckets show the three regimes — collaborating, cut
  // off (backoff converges the ladder to standalone latency), and
  // re-collaborating after heal (re-discovery + adverts re-warm the fleet).
  std::printf("--- partition-heal timeline (full partition 40..80 s) ---\n");
  {
    ScenarioConfig cfg = churny();
    cfg.pipeline = make_full_system_config();
    cfg.seed = 4003;
    cfg.record_trace = true;
    cfg.faults.partition = PartitionMode::kFull;
    cfg.faults.partition_start = 40 * kSecond;
    cfg.faults.partition_duration = 40 * kSecond;
    ExperimentRunner runner{cfg};
    runner.run();
    constexpr SimDuration kBucket = 10 * kSecond;
    TextTable timeline;
    timeline.header(
        {"window s", "state", "mean ms", "dnn share", "p2p hits", "frames"});
    for (SimTime lo = 0; lo < cfg.duration; lo += kBucket) {
      double latency_ms_sum = 0.0;
      std::uint64_t frames = 0, p2p_hits = 0, dnn = 0;
      for (const TraceEvent& ev : runner.trace().events()) {
        const SimTime t = ev.result.frame_time;
        if (t < lo || t >= lo + kBucket) continue;
        ++frames;
        latency_ms_sum += static_cast<double>(ev.result.latency) / 1000.0;
        p2p_hits += ev.result.source == ResultSource::kPeerCacheHit ? 1 : 0;
        dnn += ev.result.source == ResultSource::kFullInference ? 1 : 0;
      }
      const bool cut = lo >= cfg.faults.partition_start &&
                       lo < cfg.faults.partition_start +
                                cfg.faults.partition_duration;
      timeline.row(
          {TextTable::num(to_seconds(lo), 0) + "-" +
               TextTable::num(to_seconds(lo + kBucket), 0),
           cut ? "partitioned" : "connected",
           frames == 0 ? "-"
                       : TextTable::num(latency_ms_sum /
                                        static_cast<double>(frames)),
           frames == 0 ? "-"
                       : TextTable::num(static_cast<double>(dnn) /
                                            static_cast<double>(frames),
                                        2),
           std::to_string(p2p_hits), std::to_string(frames)});
    }
    std::printf("%s", timeline.render().c_str());
  }
  return 0;
}
