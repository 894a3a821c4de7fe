// Lock-free run-queue ring for the shared-nothing hive loop (DESIGN.md §12).
//
// MpscRing is a bounded multi-producer / single-consumer ring of
// power-of-two capacity built on per-slot sequence stamps (Vyukov's bounded
// queue, specialized for one consumer): producers claim a tail slot with a
// CAS and publish it with a release store of the slot's sequence; the
// consumer walks head-to-tail reading sequences with acquire loads, so a
// drain observes every push that completed before it and nothing that
// hasn't. No mutex is taken on either side, and neither side allocates.
//
// RunQueue composes the ring with the two pieces a real run loop needs:
//
//   * an overflow lane — a mutex-guarded vector that takes pushes when the
//     ring is full (the backpressure handoff). Once a push overflows, all
//     later pushes follow it to the overflow lane until the consumer has
//     swapped the lane out, so per-producer FIFO order survives the spill:
//     an item can never re-enter the ring ahead of an older item parked in
//     the overflow vector. Overflowed pushes are counted (`overflowed()`)
//     so the pressure/overload layer can see the queue running hot.
//
//   * exact occupancy accounting — size() is precise whenever the queue is
//     externally quiescent (what wait_idle() needs) and a high-watermark is
//     tracked on the consumer side per drain.
//
// The consumer-side timed lane (delayed tasks) intentionally does NOT live
// here: delayed work flows through the ring as items stamped with a due
// time and is re-queued into a heap owned by the loop thread — see
// ThreadCluster::loop. That keeps every structure in this header either
// lock-free or single-threaded.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace beehive {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2). All slots are
  /// allocated here; push/drain never touch the heap.
  explicit MpscRing(std::size_t capacity)
      : slots_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(slots_.size() - 1) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Producer side (any thread). False when the ring is full — the caller
  /// owns the fallback (RunQueue spills to its overflow lane).
  bool try_push(T&& item) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // Slot free at this position: claim it. Weak CAS — a spurious
        // failure just re-reads `pos` and retries.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(item);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        // Sequence lags the position by a full lap: the consumer hasn't
        // freed this slot yet — the ring is full.
        return false;
      } else {
        // Another producer claimed this position; catch up.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (single thread). Moves up to `max` items into `out`
  /// (appended) and returns how many. Stops early at a slot whose producer
  /// has claimed but not yet published — never blocks, never spins.
  std::size_t drain(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    while (n < max) {
      Slot& slot = slots_[head & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(head + 1) < 0) {
        break;  // empty, or a producer is mid-publish at this slot
      }
      out.push_back(std::move(slot.value));
      slot.value = T{};  // drop captured resources now, not a lap later
      slot.seq.store(head + mask_ + 1, std::memory_order_release);
      ++head;
      ++n;
    }
    head_.store(head, std::memory_order_release);
    return n;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Occupancy from counters. Exact when no push is in flight; during
  /// concurrent pushes it may count an item whose publish hasn't completed
  /// (it errs high, never low — safe for quiescence checks).
  std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty() const { return size() == 0; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_;
  // Producers CAS tail_; only the consumer writes head_.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

/// The ring plus its full-ring backpressure handoff. push() never drops:
/// items that miss the ring spill to a mutex-guarded overflow vector which
/// the consumer folds into the same drain batch, after the ring's items.
template <typename T>
class RunQueue {
 public:
  explicit RunQueue(std::size_t ring_capacity) : ring_(ring_capacity) {}

  /// Producer side (any thread).
  void push(T item) {
    // FIFO across the spill: once anything sits in the overflow lane, all
    // later pushes must queue behind it — a ring push now would be drained
    // (ring first) ahead of the older overflowed item.
    if (!overflow_active_.load(std::memory_order_seq_cst)) {
      if (ring_.try_push(std::move(item))) return;
    }
    std::lock_guard lock(overflow_mutex_);
    // Re-check under the lock: the consumer may have just swapped the
    // overflow lane out, in which case the ring (drained even more
    // recently) is the right destination again.
    if (overflow_.empty() && ring_.try_push(std::move(item))) return;
    overflow_.push_back(std::move(item));
    overflow_active_.store(true, std::memory_order_seq_cst);
    overflowed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side (single thread): ring first (older), then the whole
  /// overflow lane. Returns items appended to `out`.
  std::size_t drain(std::vector<T>& out) {
    std::size_t n = ring_.drain(out, ring_.capacity());
    if (overflow_active_.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(overflow_mutex_);
      // FIFO across the spill, consumer side: a producer's overflowed
      // items are newer than every ring item it claimed, but the ring
      // drain stops at a slot another producer claimed and has not yet
      // published, leaving published items behind it. Fold the lane in
      // only once nothing is claimed in the ring. Read under the lock: a
      // lane item visible here makes its producer's earlier ring claims
      // visible too.
      if (!ring_.empty()) return n;
      for (T& item : overflow_) {
        out.push_back(std::move(item));
        ++n;
      }
      overflow_.clear();
      overflow_active_.store(false, std::memory_order_seq_cst);
    }
    return n;
  }

  /// Exact when quiescent; may err high mid-push (see MpscRing::size).
  std::size_t size() const {
    std::size_t n = ring_.size();
    if (overflow_active_.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(overflow_mutex_);
      n += overflow_.size();
    }
    return n;
  }

  bool empty() const { return size() == 0; }
  std::size_t ring_capacity() const { return ring_.capacity(); }
  std::size_t ring_size() const { return ring_.size(); }

  /// Lifetime count of pushes that missed the ring (pressure signal).
  std::uint64_t overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }

 private:
  MpscRing<T> ring_;
  mutable std::mutex overflow_mutex_;
  std::vector<T> overflow_;
  std::atomic<bool> overflow_active_{false};
  std::atomic<std::uint64_t> overflowed_{0};
};

}  // namespace beehive
