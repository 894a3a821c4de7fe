// Tests of the threaded in-process runtime: the same hive/bee/registry
// code as the simulator, but with each hive on its own OS thread. These
// verify that the platform's consistency guarantees survive real
// concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/thread_cluster.h"
#include "core/wire.h"
#include "instrument/flight_recorder.h"
#include "instrument/metrics.h"
#include "tests/test_helpers.h"

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;
using testing::PairIncr;
using testing::SumQuery;

class ThreadClusterTest : public ::testing::Test {
 protected:
  ThreadClusterTest() { apps_.emplace<CounterApp>(); }

  ThreadCluster make(std::size_t n_hives) {
    ThreadClusterConfig config;
    config.n_hives = n_hives;
    config.hive.metrics_period = 0;
    return ThreadCluster(config, apps_);
  }

  void inject(ThreadCluster& cluster, HiveId hive, Incr msg) {
    cluster.post(hive, [&cluster, hive, msg]() {
      cluster.hive(hive).inject(
          MessageEnvelope::make(msg, 0, kNoBee, hive, cluster.now()));
    });
  }

  std::int64_t counter_value(ThreadCluster& cluster, const std::string& key) {
    AppId app = apps_.find_by_name("test.counter")->id();
    std::int64_t value = -1;
    for (const BeeRecord& rec : cluster.registry().live_bees()) {
      if (rec.app != app) continue;
      Bee* bee = cluster.hive(rec.hive).find_bee(rec.id);
      if (bee == nullptr) continue;
      if (auto v = bee->store().dict(CounterApp::kDict).get_as<I64>(key)) {
        EXPECT_EQ(value, -1) << "key " << key << " present on two bees";
        value = v->v;
      }
    }
    return value;
  }

  AppSet apps_;
};

TEST_F(ThreadClusterTest, StartStopIsIdempotent) {
  ThreadCluster cluster = make(2);
  cluster.start();
  cluster.start();
  cluster.stop();
  cluster.stop();
}

TEST_F(ThreadClusterTest, SingleKeyAccumulatesAcrossThreads) {
  ThreadCluster cluster = make(4);
  cluster.start();
  constexpr int kPerHive = 50;
  for (int i = 0; i < kPerHive; ++i) {
    for (HiveId h = 0; h < 4; ++h) inject(cluster, h, Incr{"shared", 1});
  }
  cluster.wait_idle();
  EXPECT_EQ(counter_value(cluster, "shared"), 4 * kPerHive);
  cluster.stop();
}

TEST_F(ThreadClusterTest, ManyKeysLandOnTheirInjectingHives) {
  ThreadCluster cluster = make(4);
  cluster.start();
  for (int i = 0; i < 40; ++i) {
    inject(cluster, static_cast<HiveId>(i % 4),
           Incr{"k" + std::to_string(i), 1});
  }
  cluster.wait_idle();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(counter_value(cluster, "k" + std::to_string(i)), 1);
  }
  // 40 bees, each on the hive that first saw its key.
  EXPECT_EQ(cluster.registry().live_bee_count(), 40u);
  cluster.stop();
}

TEST_F(ThreadClusterTest, ConcurrentMergesPreserveEveryIncrement) {
  ThreadCluster cluster = make(4);
  cluster.start();
  // Interleave per-key increments with pair messages that force merges,
  // from all four threads at once.
  for (int round = 0; round < 10; ++round) {
    for (HiveId h = 0; h < 4; ++h) {
      inject(cluster, h, Incr{"a", 1});
      inject(cluster, h, Incr{"b", 1});
      cluster.post(h, [&cluster, h]() {
        cluster.hive(h).inject(MessageEnvelope::make(
            PairIncr{"a", "b"}, 0, kNoBee, h, cluster.now()));
      });
    }
  }
  cluster.wait_idle();
  // 40 Incr{a} + 40 PairIncr = 80 (same for b). One bee owns both.
  EXPECT_EQ(counter_value(cluster, "a"), 80);
  EXPECT_EQ(counter_value(cluster, "b"), 80);
  cluster.stop();
}

TEST_F(ThreadClusterTest, MigrationUnderLiveTraffic) {
  ThreadCluster cluster = make(3);
  cluster.start();
  inject(cluster, 0, Incr{"m", 1});
  cluster.wait_idle();
  BeeId bee = cluster.registry().live_bees()[0].id;

  // Keep injecting while migrating back and forth.
  for (int i = 0; i < 60; ++i) {
    inject(cluster, static_cast<HiveId>(i % 3), Incr{"m", 1});
    if (i == 20) {
      cluster.post(0, [&cluster, bee]() {
        cluster.hive(0).request_migration(bee, 2);
      });
    }
    if (i == 40) {
      cluster.post(2, [&cluster, bee]() {
        cluster.hive(2).request_migration(bee, 1);
      });
    }
  }
  cluster.wait_idle();
  EXPECT_EQ(counter_value(cluster, "m"), 61);
  auto hive = cluster.registry().hive_of(bee);
  ASSERT_TRUE(hive.has_value());
  cluster.stop();
}

TEST_F(ThreadClusterTest, WholeDictCentralizationUnderConcurrency) {
  ThreadCluster cluster = make(4);
  cluster.start();
  for (int i = 0; i < 32; ++i) {
    inject(cluster, static_cast<HiveId>(i % 4),
           Incr{"c" + std::to_string(i), 1});
  }
  cluster.wait_idle();
  cluster.post(1, [&cluster]() {
    cluster.hive(1).inject(MessageEnvelope::make(SumQuery{1}, 0, kNoBee, 1,
                                                 cluster.now()));
  });
  cluster.wait_idle();
  AppId app = apps_.find_by_name("test.counter")->id();
  std::size_t bees = 0;
  for (const BeeRecord& rec : cluster.registry().live_bees()) {
    if (rec.app == app) ++bees;
  }
  EXPECT_EQ(bees, 1u);
  cluster.stop();
}

TEST_F(ThreadClusterTest, TimersFireOnThreadedRuntime) {
  struct TickerApp : App {
    explicit TickerApp(std::atomic<int>* counter) : App("test.ticker") {
      every(10 * kMillisecond,
            [](const MessageEnvelope&) {
              return CellSet::single("t", "cell");
            },
            [counter](AppContext&, const MessageEnvelope&) {
              counter->fetch_add(1);
            });
    }
  };
  std::atomic<int> ticks{0};
  AppSet apps;
  apps.emplace<TickerApp>(&ticks);
  ThreadClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = 0;
  ThreadCluster cluster(config, apps);
  cluster.start();
  // Wait until the timer demonstrably fired a few times.
  for (int i = 0; i < 200 && ticks.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  EXPECT_GE(ticks.load(), 3);
}

TEST_F(ThreadClusterTest, MeterSeesCrossHiveTraffic) {
  ThreadCluster cluster = make(2);
  cluster.start();
  inject(cluster, 0, Incr{"x", 1});
  cluster.wait_idle();
  inject(cluster, 1, Incr{"x", 1});  // crosses 1 -> 0
  cluster.wait_idle();
  EXPECT_GT(cluster.meter().total_bytes(), 0u);
  EXPECT_EQ(counter_value(cluster, "x"), 2);
  cluster.stop();
}

// ---------------------------------------------------------------------------
// Message-type registration happens before the loops start
// ---------------------------------------------------------------------------

TEST(ThreadClusterRegistry, MetricsReportsNeedNoPreRegistration) {
  // Nothing here registers LocalMetricsReport: the hives' constructors must
  // (ctest runs each case in a fresh process, so this is the first to).
  // With both loops reporting every millisecond while they route traffic,
  // a lazy registration on one loop would race the other loop's lookups —
  // the data race ThreadSanitizer flags.
  AppSet apps;
  apps.emplace<CounterApp>();
  ThreadClusterConfig config;
  config.n_hives = 2;
  config.hive.metrics_period = kMillisecond;
  ThreadCluster cluster(config, apps);
  EXPECT_NE(MsgTypeRegistry::instance().find(msg_type_id<LocalMetricsReport>()),
            nullptr);
  EXPECT_NE(MsgTypeRegistry::instance().find(msg_type_id<TimerTick>()),
            nullptr);
  cluster.start();

  constexpr int kPerHive = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kPerHive; ++i) {
    for (HiveId h = 0; h < 2; ++h) {
      cluster.post(h, [&cluster, &done, h]() {
        cluster.hive(h).inject(MessageEnvelope::make(
            Incr{"r" + std::to_string(h), 1}, 0, kNoBee, h, cluster.now()));
        done.fetch_add(1);
      });
    }
    if (i % 20 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Metrics timers keep the loops from ever going idle: poll instead of
  // wait_idle(), then let a few more report periods pass.
  for (int i = 0; i < 2000 && done.load() < 2 * kPerHive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster.stop();
  EXPECT_EQ(done.load(), 2 * kPerHive);
  EXPECT_EQ(cluster.hive(0).counters().handler_runs +
                cluster.hive(1).counters().handler_runs,
            static_cast<std::uint64_t>(2 * kPerHive));
}

// ---------------------------------------------------------------------------
// Hostile wire input: a malformed frame is dropped and counted, and the
// loop thread keeps serving
// ---------------------------------------------------------------------------

class ThreadClusterWire : public ThreadClusterTest {
 protected:
  /// Two hives with a flight recorder and metrics.
  static ThreadClusterConfig wired_config() {
    ThreadClusterConfig config;
    config.n_hives = 2;
    config.hive.metrics_period = 0;
    config.hive.timers_until = 0;
    config.flight_recorder = true;
    return config;
  }

  /// Starts `cluster` with every counter bee pinned on hive 1, so events
  /// injected at hive 0 cross the wire, and returns the bee of key "w".
  BeeId start_pinned(ThreadCluster& cluster) {
    cluster.registry().set_placement_hook(
        [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
    cluster.start();
    traffic(cluster, "w", 1);
    EXPECT_EQ(cluster.registry().live_bee_count(), 1u);
    return cluster.registry().live_bees().at(0).id;
  }

  /// Injects `n` Incr{key} at hive 0 and waits until every one has run.
  void traffic(ThreadCluster& cluster, const std::string& key, int n) {
    for (int i = 0; i < n; ++i) inject(cluster, 0, Incr{key, 1});
    cluster.wait_idle();
  }

  /// An AppMsg frame delivering Incr{key, 1} to counter bee `bee`.
  Bytes app_frame(BeeId bee, const std::string& key) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(FrameKind::kAppMsg));
    AppMsgFrame{bee, apps_.find_by_name("test.counter")->id(), 0,
                MessageEnvelope::make(Incr{key, 1}).to_wire()}
        .encode(w);
    return std::move(w).take();
  }

  /// A batch frame as the egress batcher builds it.
  static Bytes batch(const std::vector<Bytes>& frames) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(FrameKind::kBatch));
    w.u32(static_cast<std::uint32_t>(frames.size()));
    for (const Bytes& f : frames) {
      w.varint(f.size());
      w.raw(f);
    }
    return std::move(w).take();
  }

  /// Ships `frame` from hive 0 to hive 1 through the runtime's real
  /// frame-delivery path, then waits for quiescence.
  static void send(ThreadCluster& cluster, Bytes frame) {
    cluster.post(0, [&cluster, f = std::move(frame)]() mutable {
      cluster.send_frame(0, 1, std::move(f));
    });
    cluster.wait_idle();
  }

  static void expect_rejected(ThreadCluster& cluster, std::uint64_t frames) {
    EXPECT_EQ(cluster.hive(1).counters().wire_rejected, frames);
    EXPECT_EQ(cluster.hive(0).counters().wire_rejected, 0u);
    EXPECT_NE(cluster.flight_recorder()->render("test").find(
                  "wire frame rejected"),
              std::string::npos);
    EXPECT_NE(cluster.metrics()->prometheus_text().find(
                  "beehive_wire_rejected_total"),
              std::string::npos);
  }
};

TEST_F(ThreadClusterWire, TruncatedFrameIsDroppedAndCounted) {
  ThreadCluster cluster(wired_config(), apps_);
  const BeeId bee = start_pinned(cluster);

  // The only inner frame loses its tail: decoding it underruns.
  Bytes truncated = batch({app_frame(bee, "w")});
  truncated.resize(truncated.size() - 3);
  send(cluster, std::move(truncated));
  send(cluster, batch({app_frame(bee, "w")}));  // the next frame still lands
  traffic(cluster, "w", 50);

  EXPECT_EQ(counter_value(cluster, "w"), 1 + 1 + 50);
  EXPECT_EQ(cluster.hive(1).counters().handler_runs, 52u);
  expect_rejected(cluster, 1);
  cluster.stop();
}

TEST_F(ThreadClusterWire, NestedBatchAndTransportFramesAreRejected) {
  ThreadCluster cluster(wired_config(), apps_);
  const BeeId bee = start_pinned(cluster);

  // Well-formed inside, but the egress batcher never nests batches, and
  // transport frames (unwrapped before any batch) never ride in one.
  send(cluster, batch({batch({app_frame(bee, "w")})}));
  for (FrameKind kind : {FrameKind::kReliable, FrameKind::kAck}) {
    send(cluster, batch({Bytes(1, static_cast<char>(kind))}));
  }
  traffic(cluster, "w", 50);

  EXPECT_EQ(counter_value(cluster, "w"), 1 + 50)
      << "a nested batch's frames must not be delivered";
  expect_rejected(cluster, 3);
  cluster.stop();
}

/// A message the receiver can never decode: stands in for any frame that
/// leaves the sender intact but fails at the receiver.
struct Undecodable {
  static constexpr std::string_view kTypeName = "test.undecodable";
  void encode(ByteWriter& w) const { w.u8(0); }
  static Undecodable decode(ByteReader&) {
    throw DecodeError("undecodable payload");
  }
};

class UndecodableApp : public App {
 public:
  UndecodableApp() : App("test.undecodable") {
    on<Undecodable>(
        [](const Undecodable&) { return CellSet::single("undecodable", "u"); },
        [](AppContext&, const Undecodable&) {});
  }
};

TEST_F(ThreadClusterWire, MalformedFrameUnderTransportIsAckedOnce) {
  apps_.emplace<UndecodableApp>();
  ThreadClusterConfig config = wired_config();
  config.hive.transport.enabled = true;
  // A timeout far above any ack delay, sanitizer builds included: every
  // frame is acked long before it is late, so a duplicate below could only
  // come from a retransmit of a frame that was not late.
  config.hive.transport.rto_initial = 50 * kMillisecond;
  ThreadCluster cluster(config, apps_);
  start_pinned(cluster);

  // One loop turn at hive 0 routes a good message and then an undecodable
  // one to hive 1: both ride one batch under one transport sequence
  // number. Hive 1 must still ack that number, or hive 0 would retransmit
  // it forever, re-running the good frame and stalling the link.
  cluster.post(0, [&cluster]() {
    Hive& hive = cluster.hive(0);
    hive.inject(
        MessageEnvelope::make(Incr{"w", 1}, 0, kNoBee, 0, cluster.now()));
    hive.inject(
        MessageEnvelope::make(Undecodable{}, 0, kNoBee, 0, cluster.now()));
  });
  cluster.wait_idle();
  traffic(cluster, "w", 50);

  EXPECT_EQ(counter_value(cluster, "w"), 1 + 1 + 50)
      << "the frame ahead of the fault must run exactly once";
  EXPECT_EQ(cluster.hive(1).counters().handler_runs, 52u);
  expect_rejected(cluster, 1);
  cluster.stop();
  EXPECT_EQ(cluster.hive(0).transport()->unacked_frames(), 0u);
  // Nothing was lost, so nothing may have been sent twice.
  for (HiveId h = 0; h < 2; ++h) {
    EXPECT_EQ(cluster.hive(h).transport()->counters().dup_frames_dropped, 0u)
        << "hive " << h;
  }
}

TEST_F(ThreadClusterWire, FaultFreeLinkNeverRetransmits) {
  ThreadClusterConfig config = wired_config();
  config.hive.transport.enabled = true;
  // Acks wait up to 5 ms for a piggyback; the timeout is ten times that,
  // far above any ack delay even a sanitizer build shows.
  config.hive.transport.ack_delay = 5 * kMillisecond;
  config.hive.transport.rto_initial = 50 * kMillisecond;
  ThreadCluster cluster(config, apps_);
  start_pinned(cluster);

  // A message every ~0.5 ms for three timeouts: unacked frames are always
  // in flight when a retransmit timer fires, so a timer that resent every
  // unacked frame, late or not, would show up as duplicates here.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  int sent = 0;
  while (std::chrono::steady_clock::now() < until) {
    inject(cluster, 0, Incr{"w", 1});
    ++sent;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  cluster.wait_idle();

  EXPECT_EQ(counter_value(cluster, "w"), 1 + sent);
  EXPECT_GT(cluster.hive(0).transport()->counters().data_frames, 50u);
  for (HiveId h = 0; h < 2; ++h) {
    const TransportCounters& t = cluster.hive(h).transport()->counters();
    EXPECT_EQ(t.retransmits, 0u) << "hive " << h;
    EXPECT_EQ(t.dup_frames_dropped, 0u) << "hive " << h;
  }
  cluster.stop();
}

// ---------------------------------------------------------------------------
// Pooled frame handoff: frames in flight when the cluster stops are freed,
// and a duplicated frame rides a node of its own
// ---------------------------------------------------------------------------

class ThreadClusterFrames : public ThreadClusterWire {};

TEST_F(ThreadClusterFrames, StopWithFramesInFlightFreesThem) {
  ThreadCluster cluster(wired_config(), apps_);
  start_pinned(cluster);
  const std::uint64_t runs_before = cluster.hive(1).counters().handler_runs;

  // Hold hive 1's loop in one task until stop() begins: the frames hive 0
  // sends meanwhile are still queued when the loops end.
  std::atomic<bool> holding{false};
  cluster.post(1, [&cluster, &holding] {
    holding.store(true);
    while (cluster.running()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  while (!holding.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int i = 0; i < 5; ++i) {
    inject(cluster, 0, Incr{"w", 1});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 0; i < 2000 && cluster.frames().in_flight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::size_t in_flight = cluster.frames().in_flight();

  cluster.stop();
  EXPECT_GT(in_flight, 0u) << "the frames must still be queued at stop()";
  EXPECT_EQ(cluster.frames().in_flight(), 0u)
      << "stop() must free every frame still in flight";
  EXPECT_EQ(cluster.hive(1).counters().handler_runs, runs_before)
      << "no frame may be delivered after stop()";
}

TEST_F(ThreadClusterFrames, DuplicatedAndDelayedFramesRideTheirOwnNodes) {
  ThreadClusterConfig config = wired_config();
  config.hive.transport.enabled = true;
  ThreadCluster cluster(config, apps_);
  LinkFaults faults;
  faults.duplicate = 1.0;
  faults.jitter = 0.5;
  faults.jitter_max = 300 * kMicrosecond;
  cluster.faults().set_default_link(faults);
  start_pinned(cluster);
  traffic(cluster, "w", 200);

  // Every frame arrived twice, in its own node with its own bytes; the
  // transport dropped each second copy, so every message ran once.
  EXPECT_EQ(counter_value(cluster, "w"), 1 + 200);
  EXPECT_GT(cluster.faults().stats().frames_duplicated, 0u);
  EXPECT_GT(cluster.hive(1).transport()->counters().dup_frames_dropped, 0u);
  EXPECT_EQ(cluster.hive(1).counters().wire_rejected, 0u);
  EXPECT_EQ(cluster.frames().in_flight(), 0u)
      << "an idle cluster has every node back in its link's spares";
  EXPECT_GT(cluster.frames().spares(0, 1), 0u);
  cluster.stop();
}

}  // namespace
}  // namespace beehive
