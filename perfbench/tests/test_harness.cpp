// Self-tests of the benchmark's measurement pieces (src/harness.h).
//
//   cmake --build <build> --target perfbench_tests && <build>/perfbench_tests
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "apps/messages.h"
#include "apps/te_decoupled.h"
#include "cluster/sim.h"
#include "core/context.h"
#include "harness.h"
#include "instrument/registry.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace beehive;

// Latencies go into beehive::HistogramMetric in ns and come back through
// quantile(): percentiles and the sample count from its snapshot, resolved
// within a bucket, so a 10 -> 11 us step shows as one.
TEST(LatencyNs, PercentilesAndSampleCount) {
  HistogramMetric h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(quantile(h.snapshot(), 0.5), 0.0);
  for (int i = 1; i <= 1000; ++i) h.record(i * 1000);  // 1..1000 us
  const LatencyHistogram s = h.snapshot();
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_NEAR(quantile(s, 0.5), 500'000, 500'000 * 0.01);
  EXPECT_NEAR(quantile(s, 0.9), 900'000, 900'000 * 0.01);
  EXPECT_NEAR(quantile(s, 0.99), 990'000, 990'000 * 0.01);

  HistogramMetric a, b;
  for (int i = 0; i < 1000; ++i) {
    a.record(10'000 + i % 50);
    b.record(11'000 + i % 50);
  }
  EXPECT_NEAR(quantile(a.snapshot(), 0.5), 10'025, 100);
  EXPECT_NEAR(quantile(b.snapshot(), 0.5), 11'025, 100);
}

TEST(Pacer, DueTimesComeFromTheIndexWithoutDrift) {
  const Pacer p(1'000, 3.0);  // one event every 333,333,333.3 ns
  EXPECT_EQ(p.due(0), 1'000);
  EXPECT_EQ(p.due(3), 1'000 + 1'000'000'000);
  EXPECT_EQ(p.due(3'000'000), 1'000 + 1'000'000'000'000'000);
}

TEST(Pacer, LatenessIsSendTimeMinusDueTimeAndNeverNegative) {
  const Pacer p(0, 100'000.0);  // 10 us period
  EXPECT_EQ(p.lateness(5, 50'000), 0);
  EXPECT_EQ(p.lateness(5, 40'000), 0);  // early
  EXPECT_EQ(p.lateness(5, 53'500), 3'500);
  EXPECT_EQ(p.lateness(0, 20'000'000), 20'000'000);  // a 20 ms stall
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Ledger, SumAndUnattributedShare) {
  const std::vector<LedgerTerm> terms = {
      {"core.map_ns", 50, 2}, {"apps.handler_ns", 400, 1}, {"x", 10, 0.5}};
  EXPECT_DOUBLE_EQ(ledger_sum_ns(terms), 505.0);
  EXPECT_DOUBLE_EQ(unattributed_pct(505.0, 1.01), 50.0);
  EXPECT_DOUBLE_EQ(unattributed_pct(2000.0, 1.0), -100.0);  // over-explained
  EXPECT_DOUBLE_EQ(unattributed_pct(100.0, 0.0), 0.0);
}

/// Counts FlowMods per (switch, flow).
class FlowModCounter : public App {
 public:
  explicit FlowModCounter(std::map<std::pair<SwitchId, std::uint32_t>, int>* seen)
      : App("test.fm_counter") {
    on<FlowMod>(
        [](const FlowMod& m) {
          return CellSet::single("test.fm", switch_key(m.sw));
        },
        [seen](AppContext&, const FlowMod& m) { ++(*seen)[{m.sw, m.flow}]; });
  }
};

TEST(TeMirror, PredictsEveryFlowModOfTheDecoupledApp) {
  constexpr std::size_t kSwitches = 6;
  constexpr std::size_t kFlows = 20;
  std::map<std::pair<SwitchId, std::uint32_t>, int> seen;
  AppSet apps;
  const TEConfig config;
  apps.emplace<TEDecoupledApp>(config);
  apps.emplace<FlowModCounter>(&seen);
  ClusterConfig cc;
  cc.n_hives = 2;
  cc.hive.metrics_period = 0;
  cc.hive.timers_until = 0;
  SimCluster sim(cc, apps);
  sim.start();
  for (std::size_t s = 0; s < kSwitches; ++s) {
    const auto sw = static_cast<SwitchId>(s + 1);
    sim.hive(s % 2).inject(
        MessageEnvelope::make(SwitchJoined{sw, static_cast<HiveId>(s % 2)}));
  }
  sim.run_to_idle();

  // Rates below the clear mark, inside the hysteresis band and above
  // delta, so alarms, re-arms and suppressed repeats all occur.
  TeMirror mirror(config, kSwitches, kFlows);
  std::map<std::pair<SwitchId, std::uint32_t>, int> predicted;
  std::size_t total = 0;
  Xoshiro256 rng(7);
  const double delta = config.delta_kbps;
  for (int round = 0; round < 40; ++round) {
    for (std::size_t s = 0; s < kSwitches; ++s) {
      FlowStatReply reply;
      reply.sw = static_cast<SwitchId>(s + 1);
      for (std::uint32_t f = 0; f < kFlows; ++f) {
        const double band[] = {0.5, 0.9, 1.2};
        reply.stats.push_back(
            FlowStat{f, delta * band[rng.next_below(3)], 0});
      }
      std::vector<std::uint32_t> alarms;
      total += mirror.apply(s, reply, &alarms);
      for (std::uint32_t f : alarms) ++predicted[{reply.sw, f}];
      sim.hive(s % 2).inject(MessageEnvelope::make(std::move(reply)));
    }
    sim.run_to_idle();
  }
  EXPECT_GT(total, kSwitches * kFlows);  // hysteresis re-armed flows
  EXPECT_EQ(seen, predicted);
}

}  // namespace
}  // namespace perfbench
