// Per-bee runtime instrumentation (paper §3, "Runtime Instrumentation").
//
// Each bee records how many messages/bytes it handles, where they came
// from (per-source-bee provenance — the input to the placement optimizer's
// "majority of messages" rule) and message causation (which input types
// produce which output types). Hives aggregate these locally and
// periodically report them to the collector application.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "instrument/histogram.h"
#include "msg/codec.h"
#include "util/types.h"

namespace beehive {

struct BeeMetrics {
  std::uint64_t msgs_in = 0;
  std::uint64_t msgs_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;

  /// Cost profiler (instrument/profiler.h): thread-CPU nanoseconds of the
  /// *sampled* handler runs (unscaled — multiply by the sampling period for
  /// the window estimate), how many runs were sampled, and the committed
  /// write records the bee's transactions produced. All zero with the
  /// profiler off.
  std::uint64_t cost_ns_sampled = 0;
  std::uint64_t cost_samples = 0;
  std::uint64_t txn_ops = 0;

  /// Messages received, keyed by the emitting bee (kNoBee = IO channel).
  std::unordered_map<BeeId, std::uint64_t> inbound_from;

  /// Messages received keyed by (emitting bee, hive it emitted from) — the
  /// provenance the optimizer's "majority of messages from hive H2" rule
  /// consumes. Deterministically ordered for reporting.
  std::map<std::pair<BeeId, HiveId>, std::uint64_t> inbound_hive;

  /// Causation: (input type, output type) -> count. "packet_out messages
  /// are emitted upon receiving 80% of packet_in's" comes from this table.
  std::map<std::pair<MsgTypeId, MsgTypeId>, std::uint64_t> causation;

  /// Messages received per input type (the denominator of causation
  /// ratios).
  std::map<MsgTypeId, std::uint64_t> inbound_types;

  /// Emission -> handler-start latency (queueing + channel transit; the
  /// dominant term under the simulated runtime).
  LatencyHistogram queue_latency;
  /// Handler-start -> handler-end duration (wall time under the threaded
  /// runtime; zero under the simulator, whose handlers are instantaneous).
  LatencyHistogram handler_latency;

  void on_receive(BeeId from, std::size_t bytes, MsgTypeId type = 0) {
    ++msgs_in;
    bytes_in += bytes;
    ++inbound_from[from];
    if (type != 0) ++inbound_types[type];
  }

  void on_emit(MsgTypeId in_reply_to, MsgTypeId emitted, std::size_t bytes) {
    ++msgs_out;
    bytes_out += bytes;
    ++causation[{in_reply_to, emitted}];
  }

  /// Starts the next window in place. Counts go to zero but map entries
  /// stay, so a source that keeps sending reuses its node instead of
  /// re-inserting it every window; an entry still at zero after a whole
  /// window is erased, which bounds the maps by the live sources. Readers
  /// skip zero entries.
  void reset_window() {
    auto from = std::move(inbound_from);
    auto hive = std::move(inbound_hive);
    auto caused = std::move(causation);
    auto types = std::move(inbound_types);
    *this = BeeMetrics{};
    inbound_from = std::move(from);
    inbound_hive = std::move(hive);
    causation = std::move(caused);
    inbound_types = std::move(types);
    zero_or_erase(inbound_from);
    zero_or_erase(inbound_hive);
    zero_or_erase(causation);
    zero_or_erase(inbound_types);
  }

 private:
  template <typename Map>
  static void zero_or_erase(Map& counts) {
    for (auto it = counts.begin(); it != counts.end();) {
      if (it->second == 0) {
        it = counts.erase(it);
      } else {
        it->second = 0;
        ++it;
      }
    }
  }
};

/// Lifetime totals of one hive's reliable control-channel transport
/// (core/transport.h). All-zero when the transport is disabled. Shipped
/// inside every LocalMetricsReport so the collector can chart what the
/// robustness machinery costs in Figure-4 units.
struct TransportCounters {
  std::uint64_t data_frames = 0;        ///< reliable frames first-sent
  std::uint64_t retransmits = 0;        ///< frames re-sent on ack timeout
  std::uint64_t acks_sent = 0;          ///< standalone ack frames
  std::uint64_t dup_frames_dropped = 0; ///< receive-side dedup discards
  std::uint64_t reorder_buffered = 0;   ///< frames held for in-order delivery
  std::uint64_t frames_abandoned = 0;   ///< gave up after the retransmit cap
  std::uint64_t frames_stalled = 0;     ///< frames that waited for credit
  std::uint64_t frames_shed = 0;        ///< frames dropped at the credit gate

  void encode(ByteWriter& w) const {
    w.varint(data_frames);
    w.varint(retransmits);
    w.varint(acks_sent);
    w.varint(dup_frames_dropped);
    w.varint(reorder_buffered);
    w.varint(frames_abandoned);
    w.varint(frames_stalled);
    w.varint(frames_shed);
  }
  static TransportCounters decode(ByteReader& r) {
    TransportCounters c;
    c.data_frames = r.varint();
    c.retransmits = r.varint();
    c.acks_sent = r.varint();
    c.dup_frames_dropped = r.varint();
    c.reorder_buffered = r.varint();
    c.frames_abandoned = r.varint();
    c.frames_stalled = r.varint();
    c.frames_shed = r.varint();
    return c;
  }
};

/// One bee's flattened metrics snapshot as shipped to the collector.
struct BeeMetricsSample {
  static constexpr std::string_view kTypeName = "platform.bee_metrics_sample";

  BeeId bee = kNoBee;
  AppId app = 0;
  /// Human-readable app name, resolved by the reporting hive so viewers
  /// (StatusApp, beectl) need no AppSet of their own.
  std::string app_name;
  HiveId hive = 0;
  std::uint64_t msgs_in = 0;
  std::uint64_t msgs_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t handler_invocations = 0;
  std::uint64_t handler_failures = 0;
  std::uint64_t cells = 0;
  std::uint64_t state_bytes = 0;
  /// Messages held behind the bee's transfer fence at report time — the
  /// instantaneous queue depth the StatusApp surfaces.
  std::uint64_t holdback = 0;
  bool pinned = false;
  /// Profiler estimate of this bee's handler CPU microseconds over the
  /// window (sampled ns x sampling period / 1000; 0 with the profiler off).
  std::uint64_t cost_us = 0;
  std::uint64_t cost_samples = 0;
  /// Committed transaction write records this window.
  std::uint64_t txn_ops = 0;

  /// Windowed latency distributions (see BeeMetrics for semantics).
  LatencyHistogram queue_latency;
  LatencyHistogram handler_latency;

  struct SourceCount {
    static constexpr std::string_view kTypeName = "platform.source_count";
    BeeId from = kNoBee;
    HiveId from_hive = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u64(from);
      w.u32(from_hive);
      w.varint(count);
    }
    static SourceCount decode(ByteReader& r) {
      SourceCount s;
      s.from = r.u64();
      s.from_hive = r.u32();
      s.count = r.varint();
      return s;
    }
  };
  std::vector<SourceCount> sources;

  /// Provenance: inputs by type and (input type -> output type) emission
  /// counts, for the collector's causation analytics.
  struct TypeCount {
    static constexpr std::string_view kTypeName = "platform.type_count";
    MsgTypeId type = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u32(type);
      w.varint(count);
    }
    static TypeCount decode(ByteReader& r) {
      TypeCount t;
      t.type = r.u32();
      t.count = r.varint();
      return t;
    }
  };
  struct CausationCount {
    static constexpr std::string_view kTypeName = "platform.causation_count";
    MsgTypeId in = 0;
    MsgTypeId out = 0;
    std::uint64_t count = 0;

    void encode(ByteWriter& w) const {
      w.u32(in);
      w.u32(out);
      w.varint(count);
    }
    static CausationCount decode(ByteReader& r) {
      CausationCount c;
      c.in = r.u32();
      c.out = r.u32();
      c.count = r.varint();
      return c;
    }
  };
  std::vector<TypeCount> in_types;
  std::vector<CausationCount> causations;

  void encode(ByteWriter& w) const {
    w.u64(bee);
    w.u32(app);
    w.str(app_name);
    w.u32(hive);
    w.varint(msgs_in);
    w.varint(msgs_out);
    w.varint(bytes_in);
    w.varint(bytes_out);
    w.varint(handler_invocations);
    w.varint(handler_failures);
    w.varint(cells);
    w.varint(state_bytes);
    w.varint(holdback);
    w.boolean(pinned);
    w.varint(cost_us);
    w.varint(cost_samples);
    w.varint(txn_ops);
    queue_latency.encode(w);
    handler_latency.encode(w);
    encode_vector(w, sources);
    encode_vector(w, in_types);
    encode_vector(w, causations);
  }
  static BeeMetricsSample decode(ByteReader& r) {
    BeeMetricsSample s;
    s.bee = r.u64();
    s.app = r.u32();
    s.app_name = r.str();
    s.hive = r.u32();
    s.msgs_in = r.varint();
    s.msgs_out = r.varint();
    s.bytes_in = r.varint();
    s.bytes_out = r.varint();
    s.handler_invocations = r.varint();
    s.handler_failures = r.varint();
    s.cells = r.varint();
    s.state_bytes = r.varint();
    s.holdback = r.varint();
    s.pinned = r.boolean();
    s.cost_us = r.varint();
    s.cost_samples = r.varint();
    s.txn_ops = r.varint();
    s.queue_latency = LatencyHistogram::decode(r);
    s.handler_latency = LatencyHistogram::decode(r);
    s.sources = decode_vector<BeeMetricsSample::SourceCount>(r);
    s.in_types = decode_vector<BeeMetricsSample::TypeCount>(r);
    s.causations = decode_vector<BeeMetricsSample::CausationCount>(r);
    return s;
  }
};

/// Periodic report from one hive to the collector: a delta since the
/// previous report for every local bee.
struct LocalMetricsReport {
  static constexpr std::string_view kTypeName = "platform.local_metrics";

  HiveId hive = 0;
  TimePoint at = 0;
  std::uint64_t hive_cells = 0;
  /// End-to-end latency (trace ingress -> terminal handler) of traces that
  /// ended on this hive during the window.
  LatencyHistogram e2e_latency;
  /// Reliable-transport lifetime totals (zeros when disabled).
  TransportCounters transport;
  /// Migrations this hive gave up on after the retry cap (lifetime).
  std::uint64_t migration_aborts = 0;
  /// Partitions currently injected by the cluster's FaultPlan.
  std::uint32_t partitions_active = 0;

  // -- Queue pressure (see DESIGN.md §9) ----------------------------------
  /// backlog / (backlog + drained_window + 1) in [0, 1), where backlog is
  /// run-queue depth + holdback + pending egress frames at report time.
  double pressure = 0.0;
  std::uint64_t runq_depth = 0;       ///< run-queue tasks at report time
  std::uint64_t runq_hwm = 0;         ///< run-queue depth hwm, window (resets on read)
  std::uint64_t drained_window = 0;   ///< run-queue tasks executed, window
  std::uint64_t egress_hwm = 0;       ///< pending egress frames hwm, window
  /// Lock-free run-queue ring occupancy hwm, window (DESIGN.md §12; zero
  /// under runtimes without a ring, e.g. the simulator).
  std::uint64_t ringq_hwm = 0;
  /// Pushes that missed the ring and took the overflow lane (lifetime).
  std::uint64_t ring_overflowed = 0;
  /// Profiler: summed estimated handler CPU microseconds this window.
  std::uint64_t cost_us = 0;

  // -- Overload control (DESIGN.md §10) ------------------------------------
  /// Messages/frames shed by this hive's overload policies (lifetime).
  std::uint64_t shed_total = 0;
  /// Outbound frames waiting for link credit at report time.
  std::uint64_t stalled_frames = 0;
  /// Smallest remaining credit across outbound links; -1 = unlimited (no
  /// credit window configured on any link).
  std::int64_t credits = -1;
  /// True while the hive advertises its degraded (reduced) credit window.
  bool degraded = false;

  std::vector<BeeMetricsSample> bees;

  void encode(ByteWriter& w) const {
    w.u32(hive);
    w.i64(at);
    w.varint(hive_cells);
    e2e_latency.encode(w);
    transport.encode(w);
    w.varint(migration_aborts);
    w.u32(partitions_active);
    w.f64(pressure);
    w.varint(runq_depth);
    w.varint(runq_hwm);
    w.varint(drained_window);
    w.varint(egress_hwm);
    w.varint(ringq_hwm);
    w.varint(ring_overflowed);
    w.varint(cost_us);
    w.varint(shed_total);
    w.varint(stalled_frames);
    w.i64(credits);
    w.boolean(degraded);
    encode_vector(w, bees);
  }
  static LocalMetricsReport decode(ByteReader& r) {
    LocalMetricsReport rep;
    rep.hive = r.u32();
    rep.at = r.i64();
    rep.hive_cells = r.varint();
    rep.e2e_latency = LatencyHistogram::decode(r);
    rep.transport = TransportCounters::decode(r);
    rep.migration_aborts = r.varint();
    rep.partitions_active = r.u32();
    rep.pressure = r.f64();
    rep.runq_depth = r.varint();
    rep.runq_hwm = r.varint();
    rep.drained_window = r.varint();
    rep.egress_hwm = r.varint();
    rep.ringq_hwm = r.varint();
    rep.ring_overflowed = r.varint();
    rep.cost_us = r.varint();
    rep.shed_total = r.varint();
    rep.stalled_frames = r.varint();
    rep.credits = r.i64();
    rep.degraded = r.boolean();
    rep.bees = decode_vector<BeeMetricsSample>(r);
    return rep;
  }
};

void register_metrics_messages();

}  // namespace beehive
