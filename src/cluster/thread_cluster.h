// Threaded in-process cluster runtime (shared-nothing datapath,
// DESIGN.md §12).
//
// Each hive runs its own event-loop thread fed by a lock-free MPSC ring
// (cluster/runqueue.h): producers CAS a tail slot and publish with a
// release store; the loop drains a whole batch per turn without taking a
// mutex. Delayed tasks ride the same ring stamped with a due time and land
// in a heap owned by the loop thread — no cross-thread lock guards either
// lane. The loop parks on a condition variable only on the empty queue
// edge; producers skip the notify entirely while the loop is running (a
// relaxed `sleeping` flag, Dekker-fenced against the park). A full ring
// spills to a mutex-guarded overflow lane that preserves per-producer FIFO
// (the backpressure handoff; overflowed pushes are counted into
// queue_stats as a pressure signal). Bees keep the one-handler-at-a-time
// discipline while different hives execute genuinely concurrently. Frames
// between hives are in-memory posts, metered on the same ChannelMeter as
// the simulator. This runtime backs the runnable examples and the
// concurrency tests; benches use the deterministic SimCluster.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "cluster/channel.h"
#include "cluster/faults.h"
#include "cluster/frame_handoff.h"
#include "cluster/registry.h"
#include "cluster/runqueue.h"
#include "cluster/runtime_env.h"
#include "core/hive.h"
#include "instrument/blame.h"
#include "instrument/flight_recorder.h"
#include "instrument/health.h"
#include "instrument/registry.h"

namespace beehive {

struct ThreadClusterConfig {
  std::size_t n_hives = 2;
  Duration bw_bucket = kSecond;
  HiveId registry_hive = 0;
  std::uint64_t seed = 42;
  /// Per-hive run-queue ring capacity (rounded up to a power of two).
  /// Pushes beyond it take the mutex-guarded overflow lane — correct but
  /// no longer lock-free, and counted as a pressure signal.
  std::size_t ring_capacity = 1024;
  /// Record span events for the Chrome trace exporter (per-hive
  /// recorders; each hive's spans are written only from its loop thread).
  bool tracing = false;
  std::size_t trace_capacity = 1 << 16;
  /// Tail-based sampling (DESIGN.md §11): retain full span detail for
  /// traces that end slow, shed or failed. Applied to every per-hive
  /// recorder when tracing is on.
  TailSamplerConfig tail;
  /// Own a MetricsRegistry and register every hive's metrics into it; the
  /// registry (and therefore /metrics via net/http_export.h) is safe to
  /// scrape from any thread while hives run.
  bool metrics = true;
  /// Keep a bounded ring of recent log lines and decisions per hive for
  /// post-mortem dumps (instrument/flight_recorder.h).
  bool flight_recorder = false;
  /// Lines retained per hive by the flight recorder.
  std::size_t flight_recorder_lines = 256;
  HiveConfig hive;
};

class ThreadCluster final : public RuntimeEnv {
 public:
  ThreadCluster(ThreadClusterConfig config, const AppSet& apps);
  ~ThreadCluster() override;

  /// Starts every hive's loop thread and arms timers.
  void start();

  /// Stops delivering, joins all threads, then discards every task still
  /// queued and frees every frame still in flight. Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  // -- RuntimeEnv -----------------------------------------------------------

  TimePoint now() const override;
  void schedule_after(HiveId hive, Duration delay,
                      std::function<void()> fn) override;
  using RuntimeEnv::send_frame;
  void send_frame(HiveId from, HiveId to, Bytes& frame) override;
  Xoshiro256& rng() override { return rng_; }
  QueueStats queue_stats(HiveId hive) override;
  std::uint64_t run_depth(HiveId hive) override {
    return hive < nodes_.size() ? nodes_[hive]->queue.size() : 0;
  }

  // -- Access ---------------------------------------------------------------

  /// The cluster's fault plan. Configure before start(); mutating while
  /// hives are running is safe only for partition()/heal() style toggles
  /// made from a single controlling thread (tests).
  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  Hive& hive(HiveId id) { return *nodes_.at(id)->hive; }
  std::size_t n_hives() const { return nodes_.size(); }
  ChannelMeter& meter() { return meter_; }
  RegistryService& registry() { return registry_; }
  /// The pooled frame handoff (in-flight and spare counts, for tests).
  const FrameHandoff& frames() const { return frames_; }

  /// Per-hive span recorder (nullptr when tracing is off).
  TraceRecorder* tracer(HiveId id) {
    return id < tracers_.size() ? tracers_[id].get() : nullptr;
  }

  /// All hives' recorded spans in display order. Call only when the
  /// cluster is stopped or idle (recorders are not locked).
  std::vector<TraceEvent> trace_events() const;

  /// The `top_n` slowest assembled traces with critical-path blame
  /// (instrument/blame.h). Safe from any thread: while the cluster runs,
  /// each recorder is snapshotted on its own loop thread (posted task,
  /// bounded wait); a wedged hive is skipped rather than blocking the
  /// caller. When stopped, recorders are read directly.
  std::vector<AssembledTrace> assembled_traces(std::size_t top_n = 20);
  /// The /traces.json body for those traces.
  std::string traces_json(std::size_t top_n = 20);

  /// The cluster-owned metrics registry (nullptr when config.metrics is
  /// off). Scrape-safe from any thread while the cluster runs.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }

  /// The cluster-owned flight recorder (nullptr unless enabled).
  FlightRecorder* flight_recorder() { return recorder_.get(); }

  /// Every hive's health snapshot (instrument/health.h), as of each hive's
  /// last metrics report. `suspected` marks hives the caller's failure
  /// detector currently suspects. Safe from any thread while hives run —
  /// reads only scrape-safe atomics.
  HealthReport health(const std::vector<HiveId>& suspected = {}) const;
  std::string health_json(const std::vector<HiveId>& suspected = {}) const;

  /// Posts `fn` onto a hive's loop thread (e.g. to inject messages with
  /// correct threading) and returns immediately.
  void post(HiveId hive, std::function<void()> fn);

  /// Blocks until every hive's queue is momentarily empty. Best-effort
  /// quiescence for tests: with timers disabled and no external input this
  /// is a true fixpoint check.
  void wait_idle();

 private:
  struct Task {
    TimePoint at = 0;  ///< 0 = immediate; otherwise absolute due time
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool operator>(const Task& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  struct Node {
    explicit Node(std::size_t ring_capacity) : queue(ring_capacity) {}

    std::unique_ptr<Hive> hive;
    std::thread thread;
    /// The lock-free run queue: every cross-thread submission (immediate
    /// and delayed alike) lands here; the loop drains a full batch per
    /// turn. Delayed tasks are re-queued into `timed` by the loop.
    RunQueue<Task> queue;
    /// Timed lane: owned by the loop thread exclusively — no lock. Sized
    /// separately in `timed_size` (atomic) so wait_idle can observe it.
    std::priority_queue<Task, std::vector<Task>, std::greater<>> timed;
    std::atomic<std::uint64_t> timed_size{0};
    /// Parking. The mutex guards only the sleep/wake edge and idle
    /// signalling — never the hot enqueue/drain path.
    std::mutex mutex;
    std::condition_variable cv;       ///< wakes the loop (work arrived, stop)
    std::condition_variable idle_cv;  ///< signals quiescence to wait_idle()
    /// True while the loop is parked in cv.wait — producers notify only
    /// then (the empty->non-empty edge). seq_cst against the park's
    /// re-check of the ring (Dekker pattern); a bounded wait backstops the
    /// benign race that remains.
    std::atomic<bool> sleeping{false};
    /// True from just before the loop drains until the drained batch has
    /// fully executed. Set *before* the drain so there is no instant where
    /// in-flight work is visible neither in the queue nor here — this is
    /// what keeps wait_idle() from returning early between a drain and the
    /// batch's execution.
    std::atomic<bool> busy{false};
    /// Run-queue pressure accounting (QueueStats): ring+overflow occupancy
    /// high-watermark (sampled at enqueue and drain), lifetime drained
    /// count, and ring-occupancy HWM for the `ringq` column.
    std::atomic<std::uint64_t> q_hwm{0};
    std::atomic<std::uint64_t> q_drained{0};
    std::atomic<std::uint64_t> ring_hwm{0};
  };

  void loop(Node& node);
  /// Runs on the target hive's loop thread: hands the frame to the hive,
  /// then the node back to its link.
  void deliver(WireFrame* frame);
  void pin_loop_thread(std::size_t hive_index);
  /// The race-free idle predicate shared by wait_idle and the loop's idle
  /// signalling (ordering contract documented at the definition).
  static bool node_idle(Node& node);

  /// Gathers every recorder's ring + tail-retained spans, thread-safely
  /// (see assembled_traces).
  std::vector<TraceEvent> snapshot_trace_events();

  /// Scrape-time blame totals, recomputed at most once per second (trace
  /// assembly walks every retained trace — too heavy to run per scrape).
  TraceBlame blame_scrape(std::uint64_t* n_traces);

  ThreadClusterConfig config_;
  ChannelMeter meter_;
  RegistryService registry_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::vector<std::unique_ptr<TraceRecorder>> tracers_;
  Xoshiro256 rng_;  // guarded by rng_mutex_
  std::mutex rng_mutex_;
  FaultPlan faults_;  // decide()/rpc_lost() calls guarded by rng_mutex_
  std::vector<std::unique_ptr<Node>> nodes_;
  FrameHandoff frames_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_seq_{0};
  std::chrono::steady_clock::time_point epoch_;
  // Blame-gauge cache (see blame_scrape). Guarded by blame_mutex_.
  std::mutex blame_mutex_;
  TimePoint blame_at_ = -kSecond;
  TraceBlame blame_totals_;
  std::uint64_t blame_traces_ = 0;
};

}  // namespace beehive
