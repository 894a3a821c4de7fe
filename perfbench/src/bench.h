// The threaded-runtime benchmark: one generator thread drives a 2-hive
// ThreadCluster with the runtime's default configuration. This header holds
// what the workloads, the generator and the direct layer probes share.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/thread_cluster.h"
#include "core/app.h"
#include "harness.h"
#include "instrument/registry.h"
#include "msg/message.h"
#include "state/txn.h"

namespace perfbench {

using beehive::AppSet;
using beehive::HistogramMetric;
using beehive::HiveId;
using beehive::MessageEnvelope;
using beehive::ThreadCluster;

inline constexpr std::size_t kHives = 2;

/// Heap allocations made outside the generator thread (counted by the
/// benchmark binary's replacement operator new; see main.cpp).
std::uint64_t allocs_off_generator();
/// Marks the calling thread as the generator: its allocations are not
/// counted.
void mark_generator_thread();

/// A counter with one writer thread, on its own cache line; any thread may
/// read it.
struct alignas(64) SoloCounter {
  std::atomic<std::uint64_t> v{0};
  void bump(std::uint64_t n = 1) {
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v.load(std::memory_order_relaxed); }
};

/// One sampled completion the generator announced: the sink for `seq`
/// (the per-key ordinal of the completion) records due -> now. The ingress
/// closure adds its end time when the run is traced.
struct KeySample {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::atomic<std::uint32_t> seq{kNone};
  std::atomic<std::int64_t> due{0};
  std::atomic<std::int64_t> ingress_end{0};
  std::atomic<std::uint32_t> ingress_span{0};
};

/// A span of the traced run: one timed call into a module, recorded from
/// the benchmark's own code into preallocated per-thread memory.
struct Span {
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
  std::uint32_t parent = 0;  ///< span id of the cause, 0 = none
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t event = 0;   ///< sample slot << 32 | its ordinal; or a count
};

enum SpanName : std::uint16_t {
  kSpanPost = 1,
  kSpanIngress,
  kSpanInject,
  kSpanSink,
  kSpanDirect,
};

class SpanLog {
 public:
  static constexpr std::size_t kThreads = kHives + 1;  ///< hives + generator
  static constexpr std::size_t kPerThread = 1u << 17;
  SpanLog();
  /// Returns the span id (never 0), or 0 when that thread's buffer is full.
  std::uint32_t record(std::size_t thread, Span span);
  std::uint64_t dropped() const;
  std::size_t size() const;
  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  std::array<std::vector<Span>, kThreads> buf_;
  std::array<SoloCounter, kThreads> used_;
  std::array<SoloCounter, kThreads> dropped_;
};

/// What the benchmark's own apps and ingress closures write and the
/// generator reads. One instance per run; the counters and sample slots are
/// reset between set-ups. The histograms are not: only the measured phases
/// stamp samples or run traced, so they hold exactly those.
struct Shared {
  std::array<SoloCounter, kHives> done;   ///< completed events, per hive
  std::array<SoloCounter, kHives> bad;    ///< output-check violations
  std::array<SoloCounter, kHives> aux;    ///< te: FlowMods at the sink
  std::array<HistogramMetric, kHives> latency;  ///< due -> completion (ns)
  std::vector<KeySample> samples;           ///< indexed by workload key

  // Traced run only.
  std::atomic<bool> traced{false};
  SpanLog* spans = nullptr;
  std::array<HistogramMetric, kHives> handoff;  ///< post return -> closure start
  std::array<HistogramMetric, kHives> hop;  ///< ingress end -> sample handler
  std::array<SoloCounter, kHives> inject_ns;
  std::array<SoloCounter, kHives> inject_msgs;

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& d : done) n += d.get();
    return n;
  }
  void reset(std::size_t n_samples);
  /// Sink-side sample check for completion `seq` of sample slot `key`.
  void complete_sample(HiveId hive, std::size_t key, std::uint32_t seq);
  /// Span event id of the sample in slot `key`: key << 32 | its ordinal.
  std::uint64_t sample_event(std::size_t key) const {
    return static_cast<std::uint64_t>(key) << 32 |
           samples[key].seq.load(std::memory_order_relaxed);
  }
};

/// One generated event: the hive it is injected at, the prebuilt envelope,
/// and the sample slots the workload stamped for it.
struct Event {
  HiveId hive = 0;
  const MessageEnvelope* env = nullptr;
  std::uint32_t n_stamped = 0;
  std::array<std::uint32_t, 4> stamped{};
};

/// The inputs of the direct (out-of-cluster) layer probes, taken from the
/// workload's own messages and cell values.
struct DirectSpec {
  const beehive::App* app = nullptr;           ///< owner of the ingress handler
  const MessageEnvelope* ingress = nullptr;    ///< a workload message
  /// MessageEnvelope::make of the message the ingress handler emits (the
  /// probe itself on cross_hive); also the message whose frame the wire and
  /// transit probes carry, since that is what crosses hives.
  std::function<MessageEnvelope()> make_emitted;
  std::function<void(beehive::ByteWriter&)> encode;   ///< ingress payload
  std::function<void(std::string_view)> decode;
  std::string dict;       ///< the ingress handler's cell
  std::string key;
  beehive::Bytes value;   ///< that cell's steady-state value
  std::function<void(beehive::Txn&)> rmw;  ///< typed get_as + put_as
  std::vector<beehive::CellSet> resolve_cells;  ///< workload cells to resolve
};

struct DirectResult {
  double map_ns = 0, resolve_hit_ns = 0, resolve_miss_ns = 0;
  double encode_ns = 0, decode_ns = 0, make_ns = 0, wire_ns = 0;
  double txn_rmw_ns = 0, handler_ns = 0;
};
DirectResult measure_direct(const DirectSpec& spec, SpanLog* spans);

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string_view name() const = 0;
  /// Builds the app set and every prebuilt envelope from the seed.
  virtual void prepare(std::uint64_t seed) = 0;
  virtual const AppSet& apps() const = 0;
  /// Clears per-key generator and sink state before a set-up.
  virtual void reset() = 0;
  /// Called between cluster construction and start().
  virtual void configure(ThreadCluster&) {}
  /// Deploys every bee the workload uses and waits until each is in
  /// place. Returns false on timeout.
  virtual bool deploy(ThreadCluster& cluster) = 0;
  /// The next event; when `sample`, stamps its completion(s) as due at
  /// `due_ns`.
  virtual Event next(bool sample, std::int64_t due_ns) = 0;
  /// Events whose completion the ingress closure itself counts (handler
  /// runs synchronously inside inject_batch).
  virtual bool completes_at_ingress() const { return false; }
  /// Downstream messages of completed events still in flight; the closed
  /// loop counts them against its window.
  virtual std::uint64_t in_flight() const { return 0; }
  /// True once every downstream effect of the completed events arrived.
  bool settled() const { return in_flight() == 0; }
  /// Fixed rate of the open-loop phase, events/s.
  virtual double fixed_rate() const = 0;
  /// Events (plus in-flight downstream messages) outstanding in the closed
  /// loop. Chosen so that the tasks one hive's share of the window creates
  /// (emissions, frames) fit its run-queue ring (1024 by default) and the
  /// loop never spills to the overflow lane by the benchmark's own doing.
  virtual std::uint64_t window() const = 0;
  /// Checks outputs after stop(); appends a message per failure.
  virtual void check(ThreadCluster& cluster,
                     std::vector<std::string>& errors) = 0;
  virtual DirectSpec direct_spec() const = 0;
  /// Per-event layer terms of the ledger: the live ingress cost
  /// (`inject_ns`, which covers Map, resolve, the ingress handler and its
  /// emissions or egress encode) plus the downstream hops' layers from the
  /// direct probes.
  virtual std::vector<LedgerTerm> ledger(const DirectResult& d,
                                         double inject_ns) const = 0;
  /// True when the workload's events cross hives (live transit hop); else
  /// the live hop ends at a deferred emission's sink.
  virtual bool remote_route() const = 0;
  /// Number of bees set-up deploys.
  virtual std::size_t bees() const = 0;

  Shared& shared() { return shared_; }

 protected:
  Shared shared_;
};

std::unique_ptr<Workload> make_workload(std::string_view name);

/// Posts every (hive, envelope) pair to its hive in order, in chunks.
void inject_all(ThreadCluster& cluster,
                const std::vector<std::pair<HiveId, MessageEnvelope>>& msgs);
/// Polls `done()` every 10 us, spinning in between, until it holds or
/// `timeout_s` passes.
bool wait_until(const std::function<bool()>& done, double timeout_s);

}  // namespace perfbench
