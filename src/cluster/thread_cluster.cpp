#include "cluster/thread_cluster.h"

#include <algorithm>
#include <cassert>
#include <future>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace beehive {

ThreadCluster::ThreadCluster(ThreadClusterConfig config, const AppSet& apps)
    : config_(config),
      meter_(config.n_hives, config.bw_bucket),
      registry_(config.n_hives, &meter_, config.registry_hive),
      rng_(config.seed),
      frames_(config.n_hives),
      epoch_(std::chrono::steady_clock::now()) {
  assert(config_.n_hives > 0);
  config_.hive.n_hives = config_.n_hives;
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(
        config_.flight_recorder_lines,
        static_cast<std::size_t>(config_.n_hives));
    // No span source here: the per-hive trace recorders are single-writer
    // and unlocked, so a dump from an arbitrary thread must not read them.
    // The trace source IS safe — assembled_traces() snapshots each
    // recorder on its own loop thread with a bounded wait.
    if (config_.tracing) {
      recorder_->set_trace_source(
          [this] { return blame_summary_text(assembled_traces(8)); });
    }
  }
  nodes_.reserve(config_.n_hives);
  if (config_.tracing) tracers_.reserve(config_.n_hives);
  for (HiveId id = 0; id < config_.n_hives; ++id) {
    HiveConfig hc = config_.hive;
    if (config_.tracing) {
      tracers_.push_back(
          std::make_unique<TraceRecorder>(config_.trace_capacity));
      if (config_.tail.enabled) {
        tracers_.back()->configure_tail(config_.tail);
      }
      hc.tracer = tracers_.back().get();
    }
    hc.faults = &faults_;
    hc.metrics = metrics_.get();
    hc.recorder = recorder_.get();
    auto node = std::make_unique<Node>(config_.ring_capacity);
    node->hive = std::make_unique<Hive>(id, apps, registry_, *this, hc);
    nodes_.push_back(std::move(node));
  }
  if (metrics_) {
    // Channel totals as pull-gauges; the meter's own mutex makes the reads
    // thread-safe at scrape time.
    metrics_->gauge_fn(
        "beehive_channel_bytes_total", {},
        [this] { return static_cast<double>(meter_.total_bytes()); },
        "Bytes that crossed the inter-hive control channel.",
        /*counter_semantics=*/true);
    metrics_->gauge_fn(
        "beehive_channel_messages_total", {},
        [this] { return static_cast<double>(meter_.total_messages()); },
        "Frames that crossed the inter-hive control channel.",
        /*counter_semantics=*/true);
    metrics_->gauge_fn(
        "beehive_channel_hotspot_share", {},
        [this] { return meter_.hotspot_share(); },
        "Fraction of inter-hive traffic involving the busiest hive.");
    register_registry_shard_metrics(*metrics_, registry_);
    if (config_.tracing) {
      // Critical-path blame totals over the slowest assembled traces
      // (DESIGN.md §11). Assembly is too heavy per scrape; blame_scrape
      // caches for ~1s. Callbacks run with the registry mutex released.
      struct Bucket {
        const char* name;
        std::uint64_t TraceBlame::* field;
      };
      static constexpr Bucket kBuckets[] = {
          {"queue", &TraceBlame::queue_us},
          {"handler", &TraceBlame::handler_us},
          {"serialize", &TraceBlame::serialize_us},
          {"wire", &TraceBlame::wire_us},
          {"retransmit", &TraceBlame::retransmit_us},
          {"stall", &TraceBlame::stall_us},
      };
      for (const Bucket& b : kBuckets) {
        metrics_->gauge_fn(
            "beehive_blame_us", {{"bucket", b.name}},
            [this, field = b.field] {
              std::uint64_t n = 0;
              return static_cast<double>(blame_scrape(&n).*field);
            },
            "Critical-path microseconds attributed to this bucket across "
            "the slowest assembled traces.");
      }
      metrics_->gauge_fn(
          "beehive_blame_traces", {},
          [this] {
            std::uint64_t n = 0;
            blame_scrape(&n);
            return static_cast<double>(n);
          },
          "Assembled traces behind the beehive_blame_us totals.");
    }
  }
  // Registry RPC attempts traverse the same lossy network as frames. The
  // hook runs under the registry mutex on arbitrary hive threads, so the
  // RNG (and the plan's stats) need the rng mutex.
  registry_.set_rpc_fault_hook([this](HiveId requester) {
    if (!faults_.active()) return false;
    std::lock_guard lock(rng_mutex_);
    return faults_.rpc_lost(requester, config_.registry_hive, rng_);
  });
}

ThreadCluster::~ThreadCluster() { stop(); }

TimePoint ThreadCluster::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadCluster::start() {
  if (running_.exchange(true)) return;
  for (auto& node : nodes_) {
    node->thread = std::thread([this, n = node.get()]() { loop(*n); });
  }
  for (auto& node : nodes_) {
    // Arm timers on the hive's own thread.
    post(node->hive->id(), [h = node->hive.get()]() { h->start(); });
  }
}

void ThreadCluster::stop() {
  if (!running_.exchange(false)) return;
  for (auto& node : nodes_) {
    std::lock_guard lock(node->mutex);
    node->cv.notify_all();
    node->idle_cv.notify_all();  // release wait_idle() callers
  }
  for (auto& node : nodes_) {
    if (node->thread.joinable()) node->thread.join();
  }
  // Nothing runs any more: drop what is still queued (the frame deliveries
  // among it point at nodes freed below), then free the frames in flight.
  std::vector<Task> dropped;
  for (auto& node : nodes_) {
    node->queue.drain(dropped);
    node->timed = {};
    node->timed_size.store(0, std::memory_order_relaxed);
  }
  dropped.clear();
  frames_.release_all();
}

void ThreadCluster::post(HiveId hive, std::function<void()> fn) {
  schedule_after(hive, 0, std::move(fn));
}

void ThreadCluster::schedule_after(HiveId hive, Duration delay,
                                   std::function<void()> fn) {
  assert(hive < nodes_.size());
  Node& node = *nodes_[hive];
  Task task;
  task.at = delay <= 0 ? 0 : now() + delay;
  task.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  task.fn = std::move(fn);
  node.queue.push(std::move(task));

  // Pressure accounting: occupancy watermarks sampled at enqueue (the
  // consumer samples again per drain). Relaxed — monitoring, not ordering.
  const std::uint64_t depth =
      node.queue.size() + node.timed_size.load(std::memory_order_relaxed);
  if (depth > node.q_hwm.load(std::memory_order_relaxed)) {
    node.q_hwm.store(depth, std::memory_order_relaxed);
  }
  const std::uint64_t ring = node.queue.ring_size();
  if (ring > node.ring_hwm.load(std::memory_order_relaxed)) {
    node.ring_hwm.store(ring, std::memory_order_relaxed);
  }

  // Wake the loop only when it is actually parked (the empty->non-empty
  // edge): in steady state `sleeping` is false and the push costs no lock
  // and no syscall. The seq_cst fence orders our ring publish before the
  // sleeping read against the loop's park sequence (set sleeping, fence,
  // re-check ring) — the classic store/load handshake; the loop's bounded
  // wait backstops the (now impossible) missed-wakeup interleaving.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (node.sleeping.load(std::memory_order_relaxed)) {
    std::lock_guard lock(node.mutex);
    node.cv.notify_one();
  }
}

void ThreadCluster::send_frame(HiveId from, HiveId to, Bytes& frame) {
  assert(from < nodes_.size() && to < nodes_.size());
  meter_.record(from, to, frame.size(), now());
  WireFrame* f = frames_.take(from, to, frame);
  // Channel transit spans paired by a cluster-unique frame sequence. The
  // send side records on the source hive's recorder (we are on its loop
  // thread), the receive side on the target's — each recorder stays
  // single-writer.
  f->seq = next_seq_.fetch_add(1);
  if (TraceRecorder* t = tracer(from); t != nullptr) {
    t->record(TraceEvent{now(), SpanKind::kChannelSend, f->size, 0, from,
                         kNoBee, 0, f->kind, f->seq, to});
  }
  // The fault plan decides this frame's fate (drop / duplicate / delay).
  FaultPlan::Delivery fate;
  if (faults_.active()) {
    std::lock_guard lock(rng_mutex_);
    fate = faults_.decide(from, to, /*base_latency=*/0, rng_);
  }
  if (fate.copies == 0) {  // dropped or partitioned
    frames_.give_back(f);
    return;
  }
  // Delivery runs on the target hive's loop thread, preserving the
  // single-threaded-per-hive execution discipline. Duplicates are copied
  // before the original is scheduled: once scheduled, the receiver may
  // hand the node back at any moment.
  for (std::uint8_t copy = 0; copy < fate.copies; ++copy) {
    WireFrame* node = copy + 1 == fate.copies ? f : frames_.duplicate(*f);
    schedule_after(to, fate.extra_delay[copy],
                   [this, node]() { deliver(node); });
  }
}

void ThreadCluster::deliver(WireFrame* f) {
  if (TraceRecorder* t = tracer(f->to); t != nullptr) {
    t->record(TraceEvent{now(), SpanKind::kChannelRecv, f->size, 0, f->from,
                         kNoBee, 0, f->kind, f->seq, f->to});
  }
  nodes_[f->to]->hive->on_wire(f->bytes);
  frames_.give_back(f);
}

QueueStats ThreadCluster::queue_stats(HiveId hive) {
  if (hive >= nodes_.size()) return {};
  Node& node = *nodes_[hive];
  QueueStats qs;
  qs.depth =
      node.queue.size() + node.timed_size.load(std::memory_order_relaxed);
  // Window-watermark semantics: swap the current depth in as the new
  // baseline. A concurrent enqueue's bump can race the reset and be lost
  // across the window boundary — acceptable for a watermark gauge.
  qs.hwm = std::max(node.q_hwm.exchange(qs.depth, std::memory_order_relaxed),
                    qs.depth);
  qs.drained = node.q_drained.load(std::memory_order_relaxed);
  const std::uint64_t ring = node.queue.ring_size();
  qs.ring_hwm =
      std::max(node.ring_hwm.exchange(ring, std::memory_order_relaxed), ring);
  qs.overflowed = node.queue.overflowed();
  return qs;
}

HealthReport ThreadCluster::health(
    const std::vector<HiveId>& suspected) const {
  HealthReport report;
  report.at = now();
  report.hives.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    HiveHealth h = node->hive->health();
    h.suspected = std::find(suspected.begin(), suspected.end(), h.hive) !=
                  suspected.end();
    report.hives.push_back(h);
  }
  report.registry_shards.reserve(registry_.shard_count());
  for (std::uint32_t s = 0; s < registry_.shard_count(); ++s) {
    const RegistryShardStats stats = registry_.shard_stats(s);
    report.registry_shards.push_back({s, stats.ops, stats.lock_waits,
                                      stats.lock_wait_ns / 1000,
                                      stats.invalidations, stats.resolves,
                                      stats.lease_term});
  }
  return report;
}

std::string ThreadCluster::health_json(
    const std::vector<HiveId>& suspected) const {
  return health(suspected).to_json();
}

std::vector<TraceEvent> ThreadCluster::trace_events() const {
  std::vector<const TraceRecorder*> recorders;
  recorders.reserve(tracers_.size());
  for (const auto& t : tracers_) recorders.push_back(t.get());
  return merge_trace_events(recorders);
}

std::vector<TraceEvent> ThreadCluster::snapshot_trace_events() {
  std::vector<TraceEvent> all;
  if (tracers_.empty()) return all;
  if (!running_.load()) {
    // Quiescent: no loop threads are writing, direct reads are safe.
    for (const auto& t : tracers_) {
      std::vector<TraceEvent> events = t->events_with_retained();
      all.insert(all.end(), events.begin(), events.end());
    }
    return all;
  }
  // Running: each recorder is single-writer from its hive's loop thread,
  // so the copy must happen *on* that thread. Bounded wait per hive — a
  // wedged or overloaded loop is skipped (partial assembly beats blocking
  // a scrape forever, and beats a torn read always). The shared_ptr keeps
  // the promise alive if we time out and the task fires later.
  for (HiveId id = 0; id < tracers_.size(); ++id) {
    auto slot = std::make_shared<std::promise<std::vector<TraceEvent>>>();
    std::future<std::vector<TraceEvent>> done = slot->get_future();
    post(id, [t = tracers_[id].get(), slot] {
      slot->set_value(t->events_with_retained());
    });
    if (done.wait_for(std::chrono::seconds(2)) ==
        std::future_status::ready) {
      std::vector<TraceEvent> events = done.get();
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  return all;
}

std::vector<AssembledTrace> ThreadCluster::assembled_traces(
    std::size_t top_n) {
  return assemble_traces(snapshot_trace_events(), top_n);
}

std::string ThreadCluster::traces_json(std::size_t top_n) {
  return beehive::traces_json(assembled_traces(top_n), now());
}

TraceBlame ThreadCluster::blame_scrape(std::uint64_t* n_traces) {
  std::lock_guard lock(blame_mutex_);
  const TimePoint at = now();
  if (at - blame_at_ >= kSecond) {
    std::vector<AssembledTrace> traces = assembled_traces(20);
    blame_totals_ = blame_totals(traces);
    blame_traces_ = traces.size();
    blame_at_ = at;
  }
  if (n_traces != nullptr) *n_traces = blame_traces_;
  return blame_totals_;
}

void ThreadCluster::pin_loop_thread(std::size_t hive_index) {
#if defined(__linux__)
  const unsigned ncores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned core =
      (static_cast<unsigned>(config_.hive.pin_cpu) + hive_index) % ncores;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  // Best-effort: a failure (cgroup cpuset restrictions, exotic kernels)
  // leaves the thread unpinned, which is only a performance concern.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)hive_index;
#endif
}

void ThreadCluster::loop(Node& node) {
  if (config_.hive.pin_cpu >= 0) pin_loop_thread(node.hive->id());
  // Reusable buffers: live on the loop thread only, keep their capacity
  // across iterations — the steady-state drain allocates nothing.
  std::vector<Task> batch;
  std::vector<std::function<void()>> run;
  while (running_.load()) {
    // `busy` goes up BEFORE the drain: from here until the drained batch
    // has executed, in-flight work is visible either in the queue or in
    // this flag — wait_idle() checks both, so it can't slip through the
    // gap between a drain and the batch's execution.
    node.busy.store(true, std::memory_order_seq_cst);
    batch.clear();
    node.queue.drain(batch);
    const TimePoint current = now();

    // Ring-occupancy watermark, sampled pre-drain occupancy via batch size
    // (the producers also sample at enqueue; this catches bursts drained
    // before any scrape).
    const auto drained_now = static_cast<std::uint64_t>(batch.size());
    if (drained_now > node.ring_hwm.load(std::memory_order_relaxed)) {
      node.ring_hwm.store(drained_now, std::memory_order_relaxed);
    }

    // Delayed tasks ride the ring stamped with a due time; file them into
    // the loop-local heap (no lock — only this thread touches it).
    for (Task& t : batch) {
      if (t.at != 0) node.timed.push(std::move(t));
    }
    // Due timed tasks run first (they were scheduled for an earlier
    // instant), ordered by (due time, sequence) ...
    while (!node.timed.empty() && node.timed.top().at <= current) {
      run.push_back(std::move(const_cast<Task&>(node.timed.top()).fn));
      node.timed.pop();
    }
    // ... then this turn's immediate tasks, in arrival (ring) order.
    for (Task& t : batch) {
      if (t.at == 0) run.push_back(std::move(t.fn));
    }
    node.timed_size.store(node.timed.size(), std::memory_order_relaxed);

    if (!run.empty()) {
      node.q_drained.fetch_add(run.size(), std::memory_order_relaxed);
      for (auto& fn : run) fn();
      run.clear();
      node.busy.store(false, std::memory_order_seq_cst);
      // Idle edge: executing the batch may have re-fed our own queue
      // (egress flushes, deferred emissions), so check after the store.
      if (node.queue.empty() && node.timed.empty()) {
        std::lock_guard lock(node.mutex);
        node.idle_cv.notify_all();
      }
      continue;
    }

    node.busy.store(false, std::memory_order_seq_cst);
    // Nothing runnable: park until the next due time or a producer's wake.
    std::unique_lock lock(node.mutex);
    node.sleeping.store(true, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Dekker re-check against a push that raced the park: the producer
    // published to the ring before reading `sleeping`; we set `sleeping`
    // before re-reading the ring. One of the two must see the other.
    if (!node.queue.empty()) {
      node.sleeping.store(false, std::memory_order_seq_cst);
      continue;
    }
    if (node.timed.empty()) {
      node.idle_cv.notify_all();  // truly empty: release wait_idle callers
      node.cv.wait_for(lock, std::chrono::milliseconds(50));
    } else {
      Duration until_due = node.timed.top().at - now();
      if (until_due < 0) until_due = 0;
      node.cv.wait_for(lock,
                       std::min(std::chrono::microseconds(until_due),
                                std::chrono::microseconds(50000)));
    }
    node.sleeping.store(false, std::memory_order_seq_cst);
  }
}

bool ThreadCluster::node_idle(Node& node) {
  // Order matters. (1) queue empty — synchronizes with the consumer's
  // drain, so if emptiness came from a drain, the pre-drain busy=true is
  // visible at (2). (2) not busy — its release store follows every push
  // the executing batch made, so (3) re-reading the queue sees any re-fed
  // work. A bare queue-then-busy read (or busy-then-queue) admits an
  // interleaving where a drained-but-still-executing batch, or its
  // self-pushed follow-up work, goes unseen — the early-return bug this
  // replaces.
  if (!node.queue.empty()) return false;
  if (node.busy.load(std::memory_order_seq_cst)) return false;
  if (!node.queue.empty()) return false;
  return node.timed_size.load(std::memory_order_relaxed) == 0;
}

void ThreadCluster::wait_idle() {
  // Two phases: first park on each node's idle condition (no polling), then
  // take one confirming pass — a node visited early may have been re-fed by
  // a later one, in which case we go around again.
  while (running_.load()) {
    for (auto& node : nodes_) {
      std::unique_lock lock(node->mutex);
      node->idle_cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
        return !running_.load() || node_idle(*node);
      });
    }
    bool idle = true;
    for (auto& node : nodes_) {
      if (!node_idle(*node)) {
        idle = false;
        break;
      }
    }
    if (idle) return;
  }
}

}  // namespace beehive
