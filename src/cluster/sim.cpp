#include "cluster/sim.h"

#include <cassert>
#include <stdexcept>

namespace beehive {

SimCluster::SimCluster(ClusterConfig config, const AppSet& apps)
    : config_(config),
      meter_(config.n_hives, config.bw_bucket),
      registry_(config.n_hives, &meter_, config.registry_hive),
      rng_(config.seed),
      frames_(config.n_hives) {
  assert(config_.n_hives > 0);
  config_.hive.n_hives = config_.n_hives;
  queues_.resize(config_.n_hives);
  if (config_.metrics) metrics_ = std::make_unique<MetricsRegistry>();
  if (config_.flight_recorder) {
    recorder_ = std::make_unique<FlightRecorder>(
        config_.flight_recorder_lines,
        static_cast<std::size_t>(config_.n_hives));
    // Single-threaded runtime: pulling spans from inside a dump is safe.
    if (config_.tracing) {
      recorder_->set_span_source([this] { return trace_events(); });
      recorder_->set_trace_source(
          [this] { return blame_summary_text(assembled_traces(8)); });
    }
  }
  hives_.reserve(config_.n_hives);
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
    hives_.push_back(
        std::make_unique<Hive>(id, apps, registry_, *this, hc));
  }
  if (metrics_) {
    // Control-channel totals are pull-gauges: the meter has its own lock,
    // so they are read at scrape time instead of being pushed.
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
  }
  // Registry RPC attempts traverse the same lossy network as frames.
  registry_.set_rpc_fault_hook([this](HiveId requester) {
    return faults_.active() &&
           faults_.rpc_lost(requester, config_.registry_hive, rng_);
  });
}

SimCluster::~SimCluster() = default;

void SimCluster::start() {
  for (auto& hive : hives_) hive->start();
}

void SimCluster::schedule_after(HiveId hive, Duration delay,
                                std::function<void()> fn) {
  assert(delay >= 0);
  // Pressure accounting: this event sits in `hive`'s slice of the queue
  // until it fires (step() settles the books either way).
  if (hive < queues_.size()) {
    QueueStats& q = queues_[hive];
    q.depth += 1;
    if (q.depth > q.hwm) q.hwm = q.depth;
  }
  events_.push(Event{now_ + delay, next_seq_++, hive, true, std::move(fn)});
}

void SimCluster::send_frame(HiveId from, HiveId to, Bytes& frame) {
  assert(from < hives_.size() && to < hives_.size());
  if (!hive_alive(from) || !hive_alive(to)) {  // crash = silence
    frame.clear();
    return;
  }
  meter_.record(from, to, frame.size(), now_);
  WireFrame* f = frames_.take(from, to, frame);
  // Channel transit spans: send on the source recorder, receive on the
  // destination's, paired by the event sequence number of the delivery.
  f->seq = next_seq_;
  if (TraceRecorder* t = tracer(from); t != nullptr) {
    t->record(TraceEvent{now_, SpanKind::kChannelSend, f->size, 0, from,
                         kNoBee, 0, f->kind, f->seq, to});
  }
  // The fault plan decides this frame's fate (drop / duplicate / delay).
  // Fault-free plans never touch the RNG, so clean runs stay bit-identical
  // to builds without fault injection.
  FaultPlan::Delivery fate;
  if (faults_.active()) {
    fate = faults_.decide(from, to, config_.wire_latency, rng_);
  }
  if (fate.copies == 0) {  // dropped or partitioned
    frames_.give_back(f);
    return;
  }
  for (std::uint8_t copy = 0; copy < fate.copies; ++copy) {
    WireFrame* node = copy + 1 == fate.copies ? f : frames_.duplicate(*f);
    events_.push(Event{now_ + config_.wire_latency + fate.extra_delay[copy],
                       next_seq_++, to, false,
                       [this, node]() { deliver(node); }});
  }
}

void SimCluster::deliver(WireFrame* f) {
  if (hive_alive(f->to)) {
    if (TraceRecorder* t = tracer(f->to); t != nullptr) {
      t->record(TraceEvent{now_, SpanKind::kChannelRecv, f->size, 0, f->from,
                           kNoBee, 0, f->kind, f->seq, f->to});
    }
    hives_[f->to]->on_wire(f->bytes);
  }
  frames_.give_back(f);
}

bool SimCluster::step() {
  if (events_.empty()) return false;
  // Moved out, not copied: the closure may own captured state.
  Event event = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  assert(event.at >= now_ && "event scheduled in the past");
  now_ = event.at;
  if (event.task) {
    if (event.hive < queues_.size()) {
      QueueStats& q = queues_[event.hive];
      if (q.depth > 0) q.depth -= 1;
      q.drained += 1;
    }
    // A crashed hive's pending callbacks (timers, deferred emissions) must
    // not run: liveness is checked at fire time, not at scheduling time.
    if (!hive_alive(event.hive)) return true;
  }
  event.fn();
  return true;
}

void SimCluster::run_until(TimePoint t) {
  while (!events_.empty() && events_.top().at <= t) step();
  if (now_ < t) now_ = t;
}

void SimCluster::run_to_idle() {
  while (step()) {
  }
}

void SimCluster::fail_hive(HiveId hive) {
  if (hive >= hives_.size()) {
    throw std::invalid_argument("fail_hive: no such hive");
  }
  if (hive == config_.registry_hive) {
    // Fault tolerance of the lock service itself is out of the paper's
    // scope (DESIGN.md §2, "Registry") — reject loudly rather than
    // producing a silently wedged cluster.
    throw std::invalid_argument(
        "fail_hive: the registry master cannot be failed");
  }
  failed_.insert(hive);
}

HealthReport SimCluster::health() const {
  HealthReport report;
  report.at = now_;
  report.hives.reserve(hives_.size());
  for (const auto& hive : hives_) {
    HiveHealth h = hive->health();
    h.suspected = !hive_alive(h.hive);
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

std::vector<TraceEvent> SimCluster::trace_events() const {
  std::vector<const TraceRecorder*> recorders;
  recorders.reserve(tracers_.size());
  for (const auto& t : tracers_) recorders.push_back(t.get());
  return merge_trace_events(recorders);
}

std::vector<AssembledTrace> SimCluster::assembled_traces(
    std::size_t top_n) const {
  // Single-threaded runtime: reading the recorders directly is safe.
  std::vector<const TraceRecorder*> recorders;
  recorders.reserve(tracers_.size());
  for (const auto& t : tracers_) recorders.push_back(t.get());
  return assemble_from_recorders(recorders, top_n);
}

std::string SimCluster::traces_json(std::size_t top_n) const {
  return beehive::traces_json(assembled_traces(top_n), now_);
}

std::size_t SimCluster::recover_hive(HiveId hive) {
  if (hive >= hives_.size()) {
    throw std::invalid_argument("recover_hive: no such hive");
  }
  if (hive_alive(hive)) {
    throw std::logic_error("recover_hive: hive " + std::to_string(hive) +
                           " has not failed");
  }
  if (recovered_.contains(hive)) {
    throw std::logic_error("recover_hive: hive " + std::to_string(hive) +
                           " was already recovered");
  }
  recovered_.insert(hive);
  std::size_t recovered_with_state = 0;
  for (const BeeRecord& rec : registry_.live_bees()) {
    if (rec.hive != hive) continue;
    // Ring successor, skipping other failed hives.
    HiveId target = static_cast<HiveId>((hive + 1) % hives_.size());
    while (!hive_alive(target) && target != hive) {
      target = static_cast<HiveId>((target + 1) % hives_.size());
    }
    if (target == hive) break;  // nobody left to adopt
    registry_.move_bee(rec.id, target, now_);
    // The adopted bee restarts with fresh fence counters; transfers that
    // were in flight to the dead hive are lost with it.
    registry_.reset_expected_transfers(rec.id);
    if (hives_[target]->adopt_from_replica(rec.id, rec.app)) {
      ++recovered_with_state;
    }
  }
  return recovered_with_state;
}

}  // namespace beehive
