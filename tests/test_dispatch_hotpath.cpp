// Tests for the dispatch hot path: batched frame egress (coalescing,
// per-link FIFO, span pairing, determinism under faults), the single-Map
// dispatch contract, untrusted-length clamps, the threaded runtime's
// condition-variable quiescence, allocation budgets for the local and
// remote steady-state routes on both runtimes, for two-cell Maps and for
// emitting handlers with large cells, inline and shared message bodies,
// emission order through the deferred FIFO, and byte-exact rollback and
// redo with the transaction's retained buffers (which never migrate between
// cells).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/sim.h"
#include "cluster/thread_cluster.h"
#include "msg/codec.h"
#include "tests/test_helpers.h"

// ---------------------------------------------------------------------------
// Counting allocator (same harness as bench/micro_dispatch.cpp): replaces
// every global operator new variant so the steady-state allocation tests
// observe each heap round-trip the dispatch path makes. Deletes route to
// free() for all of them, which trips -Wmismatched-new-delete's pattern
// matching — suppressed, the pairing is correct by construction.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return ::operator new(n, al, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace beehive {
namespace {

using testing::CounterApp;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// Test apps
// ---------------------------------------------------------------------------

/// Sequence-numbered message: the order probe for per-link FIFO tests.
struct SeqMsg {
  static constexpr std::string_view kTypeName = "test.seq";
  std::uint32_t seq = 0;

  void encode(ByteWriter& w) const { w.u32(seq); }
  static SeqMsg decode(ByteReader& r) { return {r.u32()}; }
};

/// Routes every SeqMsg to one cell and records arrival order into a
/// test-owned sink (the sim is single-threaded, so no locking).
class OrderApp : public App {
 public:
  explicit OrderApp(std::vector<std::uint32_t>* sink) : App("test.order") {
    on<SeqMsg>(
        [](const SeqMsg&) { return CellSet::single("ord", "all"); },
        [sink](AppContext& ctx, const SeqMsg& m) {
          sink->push_back(m.seq);
          ctx.state().put_as("ord", "all", I64{m.seq});
        });
  }
};

/// CounterApp clone whose Map invocations are counted: the probe for the
/// "Map runs exactly once per mapped message" contract.
class CountingMapApp : public App {
 public:
  explicit CountingMapApp(std::atomic<std::uint64_t>* map_calls)
      : App("test.counting_map") {
    on<Incr>(
        [map_calls](const Incr& m) {
          map_calls->fetch_add(1, std::memory_order_relaxed);
          return CellSet::single("cnt", m.key);
        },
        [](AppContext& ctx, const Incr& m) {
          I64 v = ctx.state().get_as<I64>("cnt", m.key).value_or(I64{});
          v.v += m.amount;
          ctx.state().put_as("cnt", m.key, v);
        });
  }
};

/// A trivially copyable 16-byte message: the envelope stores it inline.
struct Tally {
  static constexpr std::string_view kTypeName = "test.tally";
  std::uint32_t key = 0;
  std::int64_t amount = 0;

  void encode(ByteWriter& w) const {
    w.u32(key);
    w.i64(amount);
  }
  static Tally decode(ByteReader& r) {
    Tally m;
    m.key = r.u32();
    m.amount = r.i64();
    return m;
  }
};

/// Adds every Tally into one counter cell.
class TallyApp : public App {
 public:
  TallyApp() : App("test.tally") {
    on<Tally>([](const Tally&) { return CellSet::single("tally", "all"); },
              [](AppContext& ctx, const Tally& m) {
                I64 v = ctx.state().get_as<I64>("tally", "all").value_or(I64{});
                v.v += m.amount;
                ctx.state().put_as("tally", "all", v);
              });
  }
};

/// Maps every Tally to two cells (a key collocated with a second one, the
/// shape of TE Route's Map) and adds it into the first.
class PairTallyApp : public App {
 public:
  PairTallyApp() : App("test.pair_tally") {
    on<Tally>(
        [](const Tally&) {
          return CellSet{{"pair", "left"}, {"pair", "right"}};
        },
        [](AppContext& ctx, const Tally& m) {
          I64 v = ctx.state().get_as<I64>("pair", "left").value_or(I64{});
          v.v += m.amount;
          ctx.state().put_as("pair", "left", v);
        });
  }
};

/// A ~2 KB cell value whose bulk comes from static fill bytes, so a
/// handler writes one without allocating anything of its own. `seq` makes
/// every value's bytes distinct.
struct Blob {
  static constexpr std::string_view kTypeName = "test.blob";
  static constexpr std::size_t kFillBytes = 2048;
  static constexpr char kFill[kFillBytes] = {};
  std::uint32_t seq = 0;

  void encode(ByteWriter& w) const {
    w.u32(seq);
    w.str(std::string_view(kFill, kFillBytes));
  }
  static Blob decode(ByteReader& r) {
    Blob b{r.u32()};
    r.view(r.varint());
    return b;
  }
};

/// Input of BlobEmitApp: write Blob{seq}, emit SeqMsg{seq}, then throw
/// when `fail` is set.
struct BlobWrite {
  static constexpr std::string_view kTypeName = "test.blob_write";
  std::uint32_t seq = 0;
  bool fail = false;

  void encode(ByteWriter& w) const {
    w.u32(seq);
    w.boolean(fail);
  }
  static BlobWrite decode(ByteReader& r) {
    BlobWrite m;
    m.seq = r.u32();
    m.fail = r.boolean();
    return m;
  }
};

/// Writes a ~2 KB cell and emits one small message (to OrderApp) per
/// BlobWrite.
class BlobEmitApp : public App {
 public:
  BlobEmitApp() : App("test.blob_emit") {
    on<BlobWrite>(
        [](const BlobWrite&) { return CellSet::single("big", "cell"); },
        [](AppContext& ctx, const BlobWrite& m) {
          ctx.state().put_as("big", "cell", Blob{m.seq});
          ctx.emit(SeqMsg{m.seq});
          if (m.fail) throw std::runtime_error("failing after the write");
        });
  }
};

/// Emission-order probes. Fanout{n} emits SeqMsg{base..base+n-1} from one
/// activation; Hop{chain, depth} re-emits itself one level deeper until
/// depth 3. Both record arrivals into test-owned sinks (read after the
/// runtime is idle).
struct Fanout {
  static constexpr std::string_view kTypeName = "test.fanout";
  std::uint32_t base = 0;
  std::uint32_t n = 0;

  void encode(ByteWriter& w) const {
    w.u32(base);
    w.u32(n);
  }
  static Fanout decode(ByteReader& r) {
    Fanout m;
    m.base = r.u32();
    m.n = r.u32();
    return m;
  }
};

struct Hop {
  static constexpr std::string_view kTypeName = "test.hop";
  std::uint32_t chain = 0;
  std::uint32_t depth = 0;

  void encode(ByteWriter& w) const {
    w.u32(chain);
    w.u32(depth);
  }
  static Hop decode(ByteReader& r) {
    Hop m;
    m.chain = r.u32();
    m.depth = r.u32();
    return m;
  }
};

class FanoutApp : public App {
 public:
  FanoutApp() : App("test.fanout") {
    on<Fanout>([](const Fanout&) { return CellSet::single("fan", "all"); },
               [](AppContext& ctx, const Fanout& m) {
                 for (std::uint32_t i = 0; i < m.n; ++i) {
                   ctx.emit(SeqMsg{m.base + i});
                 }
               });
  }
};

class HopApp : public App {
 public:
  static constexpr std::uint32_t kLastDepth = 3;

  explicit HopApp(std::vector<std::pair<std::uint32_t, std::uint32_t>>* sink)
      : App("test.hop") {
    on<Hop>([](const Hop&) { return CellSet::single("hop", "all"); },
            [sink](AppContext& ctx, const Hop& m) {
              sink->emplace_back(m.chain, m.depth);
              if (m.depth < kLastDepth) ctx.emit(Hop{m.chain, m.depth + 1});
            });
  }
};

/// On a Hop, emits SeqMsg{0}, synchronously injects Fanout{100, 2} into
/// its own hive (a reentrant activation that emits too), then emits
/// SeqMsg{1}: the inner activation must not touch the outer one's pending
/// emissions.
class ReentrantApp : public App {
 public:
  /// `sim` is filled in once the cluster exists.
  explicit ReentrantApp(SimCluster* const* sim) : App("test.reentrant") {
    on<Hop>([](const Hop&) { return CellSet::single("re", "all"); },
            [sim](AppContext& ctx, const Hop&) {
              ctx.emit(SeqMsg{0});
              (*sim)->hive(ctx.hive()).inject(MessageEnvelope::make(
                  Fanout{100, 2}, 0, kNoBee, ctx.hive(), ctx.now()));
              ctx.emit(SeqMsg{1});
            });
  }
};

/// Checks the arrivals of one Fanout{0, n} and of `chains` Hop roots
/// injected together against emission order: the fan-out in sequence,
/// and every chain's depth d before any chain's depth d+1.
void expect_emission_order(
    const std::vector<std::uint32_t>& order, std::uint32_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& hops,
    std::uint32_t chains) {
  ASSERT_EQ(order.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(order[i], i) << "one activation's emissions must arrive in "
                              "emission order";
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
  for (std::uint32_t d = 0; d <= HopApp::kLastDepth; ++d) {
    for (std::uint32_t c = 0; c < chains; ++c) expected.emplace_back(c, d);
  }
  EXPECT_EQ(hops, expected) << "3-hop chains must arrive in emission order";
}

ClusterConfig two_hive_config() {
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  return cfg;
}

/// Pins every placement to hive 1 so injections on hive 0 always cross the
/// control channel.
void pin_to_hive_1(SimCluster& sim) {
  sim.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
}

// ---------------------------------------------------------------------------
// Batching semantics
// ---------------------------------------------------------------------------

TEST(DispatchBatching, BurstCoalescesIntoFewWireUnits) {
  AppSet apps;
  apps.emplace<CounterApp>();
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  // Prime placement and caches, then measure the wire units of a burst.
  sim.hive(0).inject(
      MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  sim.meter().reset();

  constexpr int kBurst = 100;
  for (int i = 0; i < kBurst; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(1).counters().handler_runs, 1u + kBurst);
  // All 100 app frames were appended before the single flush event ran, so
  // they crossed as one kBatch unit (plus at most a handful of protocol
  // frames, e.g. replica traffic — none here).
  EXPECT_LE(sim.meter().matrix_messages(0, 1), 3u)
      << "a same-turn burst must coalesce into a few wire units";
  EXPECT_GE(sim.meter().matrix_bytes(0, 1),
            static_cast<std::uint64_t>(kBurst) *
                MessageEnvelope::kFixedHeaderBytes)
      << "batching must not drop the per-message byte accounting";
}

TEST(DispatchBatching, PerLinkFifoOrderPreserved) {
  std::vector<std::uint32_t> order;
  AppSet apps;
  apps.emplace<OrderApp>(&order);
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr std::uint32_t kN = 500;
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(SeqMsg{i}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  ASSERT_EQ(order.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(order[i], i) << "messages on one (source,dest) link must "
                              "arrive in emission order";
  }
}

TEST(DispatchBatching, ChannelSpansPairedWithBatching) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg = two_hive_config();
  cfg.tracing = true;
  SimCluster sim(cfg, apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  std::size_t n_sends = 0;
  std::set<std::uint64_t> sends, recvs;
  for (const TraceEvent& e : sim.trace_events()) {
    if (e.kind == SpanKind::kChannelSend) {
      ++n_sends;
      sends.insert(e.aux);
    }
    if (e.kind == SpanKind::kChannelRecv) recvs.insert(e.aux);
  }
  ASSERT_FALSE(sends.empty()) << "burst must cross the channel";
  EXPECT_EQ(sends.size(), n_sends) << "frame sequence ids must be unique";
  EXPECT_EQ(sends, recvs) << "every sent batch must be received exactly once";
  EXPECT_LT(n_sends, static_cast<std::size_t>(kBurst))
      << "spans must be per wire unit (batch), not per message";
}

TEST(DispatchBatching, SameSeedDeterministicUnderFaults) {
  auto run = []() {
    AppSet apps;
    apps.emplace<CounterApp>();
    ClusterConfig cfg = two_hive_config();
    cfg.seed = 1234;
    cfg.hive.transport.enabled = true;  // batches are the transport's units
    SimCluster sim(cfg, apps);
    sim.faults().set_default_link({.drop = 0.1,
                                   .duplicate = 0.05,
                                   .jitter = 0.2,
                                   .jitter_max = 500 * kMicrosecond,
                                   .reorder = 0.1});
    pin_to_hive_1(sim);
    sim.start();
    for (int i = 0; i < 200; ++i) {
      sim.hive(i % 2).inject(MessageEnvelope::make(
          Incr{"k" + std::to_string(i % 5), 1}, 0, kNoBee,
          static_cast<HiveId>(i % 2), sim.now()));
      if (i % 10 == 9) sim.run_for(300 * kMicrosecond);
    }
    sim.run_to_idle();
    std::uint64_t runs = 0;
    for (HiveId h = 0; h < 2; ++h) {
      runs += sim.hive(h).counters().handler_runs;
    }
    return std::make_tuple(runs, sim.meter().total_bytes(),
                           sim.meter().total_messages(),
                           sim.faults().stats().frames_dropped,
                           sim.faults().stats().frames_duplicated);
  };
  EXPECT_EQ(run(), run()) << "batched egress must stay bit-deterministic "
                             "under an active fault plan";
}

// ---------------------------------------------------------------------------
// Single-Map dispatch
// ---------------------------------------------------------------------------

TEST(SingleMapDispatch, LocalDeliveryRunsMapOnce) {
  std::atomic<std::uint64_t> map_calls{0};
  AppSet apps;
  apps.emplace<CountingMapApp>(&map_calls);
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(0).counters().handler_runs, kN);
  EXPECT_EQ(map_calls.load(), static_cast<std::uint64_t>(kN))
      << "the dispatch Map result must be reused for the handler's access "
         "policy, not recomputed at bind time";
}

TEST(SingleMapDispatch, RemoteDeliveryRunsMapOncePerHive) {
  std::atomic<std::uint64_t> map_calls{0};
  AppSet apps;
  apps.emplace<CountingMapApp>(&map_calls);
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    sim.hive(0).inject(
        MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  EXPECT_EQ(sim.hive(1).counters().handler_runs, kN);
  // Once on the resolving hive (routing) + once on the owning hive (access
  // policy): the Map result is not shipped, so twice total — and no more.
  EXPECT_EQ(map_calls.load(), 2u * kN);
}

// ---------------------------------------------------------------------------
// Untrusted-length clamp
// ---------------------------------------------------------------------------

TEST(DecodeClamp, HugeVectorCountUnderrunsInsteadOfAllocating) {
  ByteWriter w;
  w.varint(std::uint64_t{1} << 60);  // claimed count, no elements follow
  const Bytes wire = std::move(w).take();
  ByteReader r(wire);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_THROW(decode_vector<I64>(r), DecodeError);
  const std::uint64_t spent =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  // The clamp bounds the pre-reserve to the bytes actually present (~10):
  // a corrupt count must not turn into a multi-GB allocation attempt.
  EXPECT_LE(spent, 4u);
}

TEST(DecodeClamp, ReplicaTxnFrameCountClamped) {
  ByteWriter w;
  ReplicaTxnFrame f;
  f.bee = 1;
  f.app = 2;
  f.encode(w);
  Bytes wire = std::move(w).take();
  // Overwrite the (empty) writes count with a huge varint and truncate.
  wire.resize(wire.size() - 1);
  ByteWriter tail;
  tail.varint(std::uint64_t{1} << 50);
  wire += std::move(tail).take();
  ByteReader r(wire);
  EXPECT_THROW(ReplicaTxnFrame::decode(r), DecodeError);
}

// ---------------------------------------------------------------------------
// ThreadCluster quiescence (condition-variable wait_idle)
// ---------------------------------------------------------------------------

TEST(ThreadClusterIdle, WaitIdleReturnsAfterBurst) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ThreadClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.metrics = false;
  cfg.hive.metrics_period = 0;
  cfg.hive.timers_until = 0;  // no timer wakeups: idle is a fixpoint
  ThreadCluster cluster(cfg, apps);
  cluster.start();
  cluster.wait_idle();  // post-start quiescence

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 25; ++i) {
      cluster.post(static_cast<HiveId>(i % 2), [&cluster, i]() {
        cluster.hive(static_cast<HiveId>(i % 2))
            .inject(MessageEnvelope::make(Incr{"k" + std::to_string(i % 3), 1},
                                          0, kNoBee,
                                          static_cast<HiveId>(i % 2), 0));
      });
    }
    cluster.wait_idle();
  }
  std::uint64_t runs = 0;
  for (HiveId h = 0; h < 2; ++h) {
    runs += cluster.hive(h).counters().handler_runs;
  }
  EXPECT_EQ(runs, 20u * 25u) << "wait_idle must imply all posted work "
                                "(and its transitive dispatch) completed";
  cluster.stop();
}

// ---------------------------------------------------------------------------
// Allocation budgets (steady state)
// ---------------------------------------------------------------------------

TEST(DispatchAllocs, LocalSteadyStateIsAllocationFree) {
  AppSet apps;
  apps.emplace<CounterApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(allocs, 0u)
      << "the warmed local dispatch+handler path must not touch the heap";
}

TEST(DispatchAllocs, BoundedLocalSteadyStateIsAllocationFree) {
  // Satellite of DESIGN.md §10: turning on a mailbox bound and a credit
  // window must not cost the local fast path anything — the bound is only
  // consulted on the (cold) hold path, and credit bookkeeping lives in the
  // remote transport.
  AppSet apps;
  CounterApp& app = apps.emplace<CounterApp>();
  app.set_overload({.bounded = true,
                    .mailbox_limit = 64,
                    .policy = OverloadPolicy::kShedNewest});
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  cfg.hive.transport.credit_window = 8;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Incr{"k0", 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(sim.hive(0).counters().shed_total, 0u)
      << "an unloaded bounded mailbox must not shed";
  EXPECT_EQ(allocs, 0u)
      << "bounded mailboxes and credit bookkeeping must add zero "
         "allocations per message on the warmed local path";
}

TEST(DispatchAllocs, RemoteSteadyStateIsAllocationFree) {
  // A trivially copyable body is built, encoded, framed, batched, handed
  // over and decoded without touching the heap: the body lives in the
  // envelope, the egress buffer comes back from the runtime's frame pool
  // and the delivery closure is stored inline.
  AppSet apps;
  apps.emplace<TallyApp>();
  SimCluster sim(two_hive_config(), apps);
  pin_to_hive_1(sim);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Tally{0, 1}, 0, kNoBee, 0, sim.now());
  constexpr std::uint64_t kBurst = 2000;
  for (int warm = 0; warm < 2; ++warm) {  // caches, buffers, frame pool
    for (std::uint64_t i = 0; i < kBurst; ++i) sim.hive(0).inject(msg);
    sim.run_to_idle();
  }

  constexpr std::uint64_t kRounds = 3;
  const std::uint64_t runs_before = sim.hive(1).counters().handler_runs;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kBurst; ++i) sim.hive(0).inject(msg);
    sim.run_to_idle();
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  const std::uint64_t delivered =
      sim.hive(1).counters().handler_runs - runs_before;
  ASSERT_EQ(delivered, kRounds * kBurst);
  EXPECT_EQ(allocs, 0u) << "the warmed remote route must not touch the heap "
                           "for a trivially copyable message";
}

TEST(DispatchAllocs, TwoCellMapIsAllocationFree) {
  AppSet apps;
  apps.emplace<PairTallyApp>();
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  MessageEnvelope msg =
      MessageEnvelope::make(Tally{0, 1}, 0, kNoBee, 0, sim.now());
  for (int i = 0; i < 2000; ++i) sim.hive(0).inject(msg);  // warm everything
  sim.run_to_idle();

  constexpr std::uint64_t kN = 5000;
  const std::uint64_t runs_before = sim.hive(0).counters().handler_runs;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kN; ++i) sim.hive(0).inject(msg);
  sim.run_to_idle();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(sim.hive(0).counters().handler_runs - runs_before, kN);
  EXPECT_EQ(allocs, 0u) << "a two-cell CellSet must stay in inline storage";
}

TEST(ThreadClusterFrames, RemoteSteadyStateIsAllocationFree) {
  // The threaded runtime's remote route once warm: frames ride pooled
  // nodes recycled per link, so batches, handoff closures and decoded
  // bodies cost nothing per message.
  AppSet apps;
  apps.emplace<TallyApp>();
  ThreadClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.metrics = false;
  cfg.hive.metrics_period = 0;
  cfg.hive.timers_until = 0;
  ThreadCluster cluster(cfg, apps);
  cluster.registry().set_placement_hook(
      [](AppId, const CellSet&, HiveId) -> HiveId { return 1; });
  cluster.start();
  cluster.wait_idle();

  const MessageEnvelope in = MessageEnvelope::make(Tally{0, 1}, 0, kNoBee, 0, 0);
  constexpr int kPerRound = 200;
  // The posted closure captures two pointers: stored inline, no allocation.
  auto round = [&cluster, &in] {
    cluster.post(0, [hive = &cluster.hive(0), msg = &in] {
      for (int i = 0; i < kPerRound; ++i) hive->inject(*msg);
    });
    cluster.wait_idle();
  };
  for (int r = 0; r < 20; ++r) round();  // warm buffers, caches, frame pool

  constexpr std::uint64_t kRounds = 50;
  const std::uint64_t runs_before = cluster.hive(1).counters().handler_runs;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t r = 0; r < kRounds; ++r) round();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  const std::uint64_t delivered =
      cluster.hive(1).counters().handler_runs - runs_before;
  cluster.stop();

  ASSERT_EQ(delivered, kRounds * kPerRound);
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(delivered),
            0.01)
      << allocs << " allocs for " << delivered << " remote messages";
}

TEST(DispatchAllocs, ThreadedEmitAndLargeCellIsAllocationFree) {
  // A handler that writes a ~2 KB cell and emits one small message to a
  // second local app: the cell write reuses the transaction's buffers,
  // the emission rides the hive's emission buffer and deferred FIFO, and
  // the emitted body is stored in its envelope.
  std::vector<std::uint32_t> received;
  received.reserve(8000);  // the sink's push_back must not allocate
  AppSet apps;
  apps.emplace<BlobEmitApp>();
  apps.emplace<OrderApp>(&received);
  ThreadClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.metrics = false;
  cfg.hive.metrics_period = 0;
  cfg.hive.timers_until = 0;
  ThreadCluster cluster(cfg, apps);
  cluster.start();
  cluster.wait_idle();

  const MessageEnvelope in =
      MessageEnvelope::make(BlobWrite{1, false}, 0, kNoBee, 0, 0);
  constexpr int kPerRound = 200;
  // The posted closure captures two pointers: stored inline, no allocation.
  auto round = [&cluster, &in] {
    cluster.post(0, [hive = &cluster.hive(0), msg = &in] {
      for (int i = 0; i < kPerRound; ++i) hive->inject(*msg);
    });
    cluster.wait_idle();
  };
  for (int r = 0; r < 10; ++r) round();  // warm buffers, caches, memo

  constexpr std::uint64_t kRounds = 20;
  const std::uint64_t received_before = received.size();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::uint64_t r = 0; r < kRounds; ++r) round();
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  const std::uint64_t emitted = received.size() - received_before;
  cluster.stop();

  ASSERT_EQ(emitted, kRounds * kPerRound);
  EXPECT_EQ(allocs, 0u) << "an emitting handler with a 2 KB cell write must "
                           "not allocate; got "
                        << allocs << " allocs for " << emitted
                        << " emissions";
}

// ---------------------------------------------------------------------------
// Message bodies: inline when small and trivially copyable, shared otherwise
// ---------------------------------------------------------------------------

/// Exactly at the inline limit, and one byte over it.
struct Body32 {
  static constexpr std::string_view kTypeName = "test.body32";
  char bytes[32] = {};
  void encode(ByteWriter& w) const { w.raw({bytes, sizeof(bytes)}); }
  static Body32 decode(ByteReader& r) {
    Body32 m;
    const std::string_view v = r.view(sizeof(m.bytes));
    std::copy(v.begin(), v.end(), m.bytes);
    return m;
  }
};
struct Body33 {
  static constexpr std::string_view kTypeName = "test.body33";
  char bytes[33] = {};
  void encode(ByteWriter& w) const { w.raw({bytes, sizeof(bytes)}); }
  static Body33 decode(ByteReader& r) {
    Body33 m;
    const std::string_view v = r.view(sizeof(m.bytes));
    std::copy(v.begin(), v.end(), m.bytes);
    return m;
  }
};
/// Small, but with a user-provided copy: not trivially copyable.
struct CountedCopy {
  static constexpr std::string_view kTypeName = "test.counted_copy";
  std::uint32_t v = 0;
  CountedCopy() = default;
  explicit CountedCopy(std::uint32_t x) : v(x) {}
  CountedCopy(const CountedCopy& o) : v(o.v) {}
  CountedCopy& operator=(const CountedCopy&) = default;
  void encode(ByteWriter& w) const { w.u32(v); }
  static CountedCopy decode(ByteReader& r) { return CountedCopy(r.u32()); }
};

static_assert(MessageBody::kStoredInline<Body32>);
static_assert(!MessageBody::kStoredInline<Body33>);
static_assert(!MessageBody::kStoredInline<CountedCopy>);
static_assert(MessageBody::kStoredInline<Tally>);

/// Heap allocations `fn` makes.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(EnvelopeBody, InlineBodyOutlivesItsSourceEnvelope) {
  MsgTypeRegistry::instance().ensure<Body32>();
  Body32 body;
  for (std::size_t i = 0; i < sizeof(body.bytes); ++i) {
    body.bytes[i] = static_cast<char>('a' + i % 26);
  }
  MessageEnvelope::make(body);  // warms the per-thread sizing buffer
  std::optional<MessageEnvelope> copy;
  const std::uint64_t allocs = allocations_of([&] {
    MessageEnvelope source = MessageEnvelope::make(body, 7, kNoBee, 1, 5);
    copy = source;
    // Overwrite the source's bytes: the copy must not share them.
    source = MessageEnvelope::make(Body32{}, 7, kNoBee, 1, 5);
  });
  EXPECT_EQ(allocs, 0u) << "making and copying an inline body is heap-free";
  ASSERT_TRUE(copy->has_body());
  EXPECT_EQ(std::string_view(copy->as<Body32>().bytes, 32),
            std::string_view(body.bytes, 32));

  // The wire round trip rebuilds the body inline too.
  const Bytes wire = copy->to_wire();
  std::optional<MessageEnvelope> back;
  EXPECT_EQ(allocations_of([&] { back = MessageEnvelope::from_wire(wire); }),
            0u);
  EXPECT_EQ(std::string_view(back->as<Body32>().bytes, 32),
            std::string_view(body.bytes, 32));
}

TEST(EnvelopeBody, OversizeAndNonTriviallyCopyableBodiesAreShared) {
  MsgTypeRegistry::instance().ensure<Body33>();
  MsgTypeRegistry::instance().ensure<CountedCopy>();
  Body33 big;
  big.bytes[32] = 'z';
  MessageEnvelope::make(big);  // warms the per-thread sizing buffer
  std::optional<MessageEnvelope> a;
  std::optional<MessageEnvelope> b;
  EXPECT_EQ(allocations_of([&] { a = MessageEnvelope::make(big); }), 1u)
      << "one byte over the limit: the body is built once behind a pointer";
  EXPECT_EQ(allocations_of([&] { b = *a; }), 0u) << "copies share it";
  EXPECT_EQ(&a->as<Body33>(), &b->as<Body33>());
  EXPECT_EQ(b->as<Body33>().bytes[32], 'z');

  std::optional<MessageEnvelope> c;
  std::optional<MessageEnvelope> d;
  EXPECT_EQ(allocations_of([&] { c = MessageEnvelope::make(CountedCopy(9)); }),
            1u);
  d = *c;
  EXPECT_EQ(&c->as<CountedCopy>(), &d->as<CountedCopy>());
  EXPECT_EQ(MessageEnvelope::from_wire(d->to_wire()).as<CountedCopy>().v, 9u);
}

TEST(EnvelopeBody, AsThrowsOnTypeMismatch) {
  const MessageEnvelope inline_body = MessageEnvelope::make(Tally{1, 2});
  const MessageEnvelope shared_body = MessageEnvelope::make(Body33{});
  EXPECT_THROW(inline_body.as<Body33>(), std::logic_error);
  EXPECT_THROW(shared_body.as<Tally>(), std::logic_error);
  EXPECT_EQ(inline_body.as<Tally>().amount, 2);
}

// ---------------------------------------------------------------------------
// Deferred-emission FIFO: emission order on both runtimes, and crashes
// ---------------------------------------------------------------------------

TEST(DeferredFifo, SimEmissionsArriveInEmissionOrder) {
  std::vector<std::uint32_t> order;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  AppSet apps;
  apps.emplace<FanoutApp>();
  apps.emplace<OrderApp>(&order);
  apps.emplace<HopApp>(&hops);
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim.start();

  constexpr std::uint32_t kN = 100;
  sim.hive(0).inject(
      MessageEnvelope::make(Fanout{0, kN}, 0, kNoBee, 0, sim.now()));
  constexpr std::uint32_t kChains = 5;
  for (std::uint32_t c = 0; c < kChains; ++c) {
    sim.hive(0).inject(
        MessageEnvelope::make(Hop{c, 0}, 0, kNoBee, 0, sim.now()));
  }
  sim.run_to_idle();

  expect_emission_order(order, kN, hops, kChains);
}

TEST(ThreadClusterDeferredFifo, EmissionsArriveInEmissionOrder) {
  std::vector<std::uint32_t> order;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  AppSet apps;
  apps.emplace<FanoutApp>();
  apps.emplace<OrderApp>(&order);
  apps.emplace<HopApp>(&hops);
  ThreadClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.metrics = false;
  cfg.hive.metrics_period = 0;
  cfg.hive.timers_until = 0;
  ThreadCluster cluster(cfg, apps);
  cluster.start();

  // More emissions than the run-queue ring holds, so the deferred closures
  // also cross the overflow lane.
  constexpr std::uint32_t kN = 3000;
  constexpr std::uint32_t kChains = 5;
  cluster.post(0, [&cluster] {
    Hive& hive = cluster.hive(0);
    hive.inject(MessageEnvelope::make(Fanout{0, kN}, 0, kNoBee, 0, 0));
    for (std::uint32_t c = 0; c < kChains; ++c) {
      hive.inject(MessageEnvelope::make(Hop{c, 0}, 0, kNoBee, 0, 0));
    }
  });
  cluster.wait_idle();
  cluster.stop();

  expect_emission_order(order, kN, hops, kChains);
}

TEST(DeferredFifo, ReentrantActivationKeepsOuterEmissions) {
  std::vector<std::uint32_t> order;
  SimCluster* sim_ptr = nullptr;
  AppSet apps;
  apps.emplace<FanoutApp>();
  apps.emplace<OrderApp>(&order);
  apps.emplace<ReentrantApp>(&sim_ptr);
  ClusterConfig cfg;
  cfg.n_hives = 1;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  sim_ptr = &sim;
  sim.start();

  sim.hive(0).inject(MessageEnvelope::make(Hop{0, 0}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  // The inner activation commits (and defers) first.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{100, 101, 0, 1}));
}

TEST(DeferredFifo, CrashWithPendingEmissionsDeliversNoStaleOnes) {
  std::vector<std::uint32_t> order;
  AppSet apps;
  FanoutApp& fanout = apps.emplace<FanoutApp>();
  apps.emplace<OrderApp>(&order);
  ClusterConfig cfg;
  cfg.n_hives = 3;
  cfg.hive.metrics_period = 0;
  SimCluster sim(cfg, apps);
  // The fanout bee lives on hive 1, the sink on hive 2.
  const AppId fanout_app = fanout.id();
  sim.registry().set_placement_hook(
      [fanout_app](AppId app, const CellSet&, HiveId) -> HiveId {
        return app == fanout_app ? 1 : 2;
      });
  sim.start();

  // Hive 1 runs the fanout handler now; its 5 emissions wait out the
  // dispatch delay in hive 1's deferred FIFO when the hive crashes.
  sim.hive(1).inject(
      MessageEnvelope::make(Fanout{0, 5}, 0, kNoBee, 1, sim.now()));
  ASSERT_EQ(sim.hive(1).counters().handler_runs, 1u);
  sim.fail_hive(1);
  sim.run_to_idle();
  EXPECT_TRUE(order.empty()) << "a crashed hive's pending emissions must "
                                "never be delivered";

  // Recovery moves the fanout bee to hive 2; its emissions route there.
  sim.recover_hive(1);
  sim.hive(0).inject(
      MessageEnvelope::make(Fanout{100, 3}, 0, kNoBee, 0, sim.now()));
  sim.run_to_idle();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{100, 101, 102}));
}

// ---------------------------------------------------------------------------
// Retained transaction buffers: rollback and redo stay byte-exact, and every
// cell keeps its own buffer
// ---------------------------------------------------------------------------

Bytes stored(const StateStore& store) {
  const Dict* d = store.find_dict("big");
  const Bytes* v = d == nullptr ? nullptr : d->get_ptr("cell");
  return v == nullptr ? Bytes{} : *v;
}

TEST(TxnBuffers, RollbackRestoresPriorBytesColdAndWarm) {
  StateStore store;
  {
    Txn seed(store, AccessPolicy::all());
    seed.put_as("big", "cell", Blob{1});
    seed.commit();
  }
  const Bytes prior = encode_to_bytes(Blob{1});
  ASSERT_EQ(stored(store), prior);

  // Cold: a fresh scratch has no encode buffer and no retired undo slot.
  Txn::Scratch scratch;
  {
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("big", "cell", Blob{2});
    txn.put_as("big", "cell", Blob{3});  // overlapping writes to one key
    txn.rollback();
  }
  EXPECT_EQ(stored(store), prior) << "cold rollback must be byte-exact";

  // Warm: every retained buffer has held a 2 KB value.
  for (std::uint32_t seq = 10; seq < 20; ++seq) {
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("big", "cell", Blob{seq});
    txn.commit();
    ASSERT_EQ(stored(store), encode_to_bytes(Blob{seq}));
  }
  {
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("big", "cell", Blob{20});
    txn.put_as("big", "cell", Blob{21});
    txn.rollback();
  }
  EXPECT_EQ(stored(store), encode_to_bytes(Blob{19}))
      << "warm rollback must be byte-exact";
  {
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("big", "cell", Blob{22});
    txn.commit();
  }
  EXPECT_EQ(stored(store), encode_to_bytes(Blob{22}))
      << "a commit after a rollback must store the new value";
}

TEST(TxnBuffers, RedoCarriesExactlyTheStoredBytes) {
  StateStore store;
  Txn::Scratch scratch;
  for (std::uint32_t seq = 0; seq < 20; ++seq) {
    Txn txn(store, AccessPolicy::all(), &scratch);
    txn.put_as("big", "cell", Blob{seq});
    txn.put_as("big", "small", I64{seq});
    txn.commit();
    ASSERT_EQ(txn.writes().size(), 2u);
    EXPECT_EQ(txn.writes()[0].value, encode_to_bytes(Blob{seq}));
    EXPECT_EQ(txn.writes()[0].value, stored(store));
    EXPECT_EQ(txn.writes()[1].value, encode_to_bytes(I64{seq}));
    EXPECT_EQ(txn.writes()[1].value, *store.dict("big").get_ptr("small"));
  }
}

TEST(TxnBuffers, SmallCellsNeverInheritALargeCellsBuffer) {
  // Every bee on a hive shares one scratch, so writes of one 2 KB cell
  // interleave with writes (and rollbacks) of many small cells through the
  // same undo and encode buffers. No small cell may end up holding
  // capacity grown for the large value: store memory would drift toward
  // (cells written) x (largest value on the hive).
  StateStore store;
  Txn::Scratch scratch;
  constexpr std::uint32_t kSmall = 16;
  for (std::uint32_t round = 0; round < 8; ++round) {
    {
      Txn txn(store, AccessPolicy::all(), &scratch);
      txn.put_as("big", "cell", Blob{round});
      txn.commit();
    }
    for (std::uint32_t i = 0; i < kSmall; ++i) {
      Txn txn(store, AccessPolicy::all(), &scratch);
      txn.put_as("small", "k" + std::to_string(i), I64{round});
      if (i % 4 == 3 && round > 0) {
        txn.rollback();  // restores the prior small value
      } else {
        txn.commit();
      }
    }
  }
  const Dict& small = *store.find_dict("small");
  ASSERT_EQ(small.size(), kSmall);
  small.for_each([](const std::string& key, const Bytes& value) {
    EXPECT_LT(value.capacity(), 64u)
        << "small cell " << key << " (" << value.size()
        << " bytes) holds a buffer grown for the 2 KB cell";
  });
  EXPECT_EQ(*small.get_ptr("k3"), encode_to_bytes(I64{0}))
      << "rolled-back writes must leave the first committed value";
  EXPECT_EQ(*small.get_ptr("k0"), encode_to_bytes(I64{7}));
}

TEST(TxnBuffers, FailingHandlerRollsBackAndReplicaMatches) {
  std::vector<std::uint32_t> received;
  AppSet apps;
  BlobEmitApp& app = apps.emplace<BlobEmitApp>();
  apps.emplace<OrderApp>(&received);
  ClusterConfig cfg;
  cfg.n_hives = 2;
  cfg.hive.metrics_period = 0;
  cfg.hive.replication = true;
  SimCluster sim(cfg, apps);
  sim.start();

  auto write = [&sim](std::uint32_t seq, bool fail) {
    sim.hive(0).inject(MessageEnvelope::make(BlobWrite{seq, fail}, 0,
                                             kNoBee, 0, sim.now()));
    sim.run_to_idle();
  };
  write(1, /*fail=*/false);
  write(2, /*fail=*/true);  // buffers barely warm
  for (std::uint32_t seq = 3; seq < 10; ++seq) write(seq, false);
  write(10, /*fail=*/true);  // buffers warm

  BeeId bee = kNoBee;
  for (const BeeRecord& rec : sim.registry().live_bees()) {
    if (rec.app == app.id()) bee = rec.id;
  }
  ASSERT_NE(bee, kNoBee);
  const Bee* primary = sim.hive(0).find_bee(bee);
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(stored(primary->store()), encode_to_bytes(Blob{9}))
      << "failed handlers must leave the last committed bytes";
  EXPECT_EQ(received, (std::vector<std::uint32_t>{1, 3, 4, 5, 6, 7, 8, 9}))
      << "failed handlers' emissions are dropped";
  const StateStore* replica =
      sim.hive(sim.hive(0).replica_target_of(0)).replica_store(bee);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(stored(*replica), stored(primary->store()))
      << "the redo log must ship exactly the stored bytes";
}

}  // namespace
}  // namespace beehive
