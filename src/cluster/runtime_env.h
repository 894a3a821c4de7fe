// The runtime environment a Hive is programmed against.
//
// Hive logic is purely reactive; everything that differs between the
// deterministic discrete-event simulator and the threaded in-process
// cluster — clocks, timers, and frame delivery — hides behind this
// interface. Identical hive/bee/registry code runs under both runtimes.
#pragma once

#include <functional>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace beehive {

/// One hive's run-queue accounting (pressure inputs; see DESIGN.md §9).
/// Runtimes that don't track queues return all-zeros.
struct QueueStats {
  std::uint64_t depth = 0;    ///< tasks queued for the hive right now
  /// High-watermark of depth since the previous queue_stats() read (the
  /// watermark resets to the current depth on read, so each scrape window
  /// reports its own peak instead of a startup burst pinned forever).
  std::uint64_t hwm = 0;
  std::uint64_t drained = 0;  ///< lifetime tasks executed
  /// Ring-occupancy high-watermark since the previous read (resets like
  /// `hwm`). Zero under runtimes without a lock-free ring (the simulator).
  std::uint64_t ring_hwm = 0;
  /// Lifetime pushes that missed the ring and took the overflow lane — the
  /// queue running hot enough that producers lost lock-freedom.
  std::uint64_t overflowed = 0;
};

class RuntimeEnv {
 public:
  virtual ~RuntimeEnv() = default;

  virtual TimePoint now() const = 0;

  /// Run-queue depth/watermark/drain accounting for `hive`. Safe to call
  /// from the hive's own loop (hives read it at metrics-report time).
  /// Non-const: reading resets the depth high-watermark to the current
  /// depth, giving per-scrape-window watermark semantics.
  virtual QueueStats queue_stats(HiveId) { return {}; }

  /// Cheap, non-resetting run-queue occupancy probe for `hive` — the
  /// admission-time input of OverloadConfig::ring_limit. Unlike
  /// queue_stats() this never mutates watermark state and is safe to call
  /// per message (two relaxed loads under the threaded runtime). Runtimes
  /// without queue tracking return 0 (the gate never fires).
  virtual std::uint64_t run_depth(HiveId) { return 0; }

  /// Schedules `fn` to run (on the calling hive's execution context) after
  /// `delay`. Used for timers and platform periodic work. Tasks one hive
  /// schedules with equal delays run in the order they were scheduled:
  /// both runtimes order by (due time, schedule sequence). The hive's
  /// deferred-emission FIFO relies on this.
  virtual void schedule_after(HiveId hive, Duration delay,
                              std::function<void()> fn) = 0;

  /// Ships an opaque frame to another hive's on_wire entry point. The
  /// runtime meters bytes on the control channel and applies link latency.
  /// It takes the bytes out of `frame` and leaves there a cleared buffer,
  /// usually one an earlier frame on the same link used
  /// (cluster/frame_handoff.h): a caller that sends from one buffer stops
  /// allocating once the link is warm.
  virtual void send_frame(HiveId from, HiveId to, Bytes& frame) = 0;
  /// One-off frame: the recycled buffer is dropped.
  void send_frame(HiveId from, HiveId to, Bytes&& frame) {
    send_frame(from, to, frame);
  }

  /// Deterministic randomness source for platform decisions.
  virtual Xoshiro256& rng() = 0;
};

}  // namespace beehive
