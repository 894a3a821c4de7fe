// Pooled frame handoff between hives (DESIGN.md §12).
//
// A frame in flight lives in a WireFrame node that carries the bytes and
// the fields the channel spans need. Nodes are recycled per link: the
// sender takes one from its link's spares and swaps its batch into it, so
// the sender gets back the cleared buffer an earlier frame on the link
// used; the receiver hands the node back after Hive::on_wire. A warm link
// therefore moves frames without touching the heap, and the delivery
// closure a runtime schedules captures only {runtime, node}, which
// std::function stores inline.
//
// Bounds: each link keeps at most kSparesPerLink spare nodes (a node
// returned to a full link is freed), and a returned buffer larger than
// kMaxSpareBytes is freed rather than kept, so one burst of large frames
// does not pin its memory. Both runtimes use this one helper; the threaded
// one takes and returns nodes on different loop threads, so each link's
// lists sit behind their own mutex, taken once per frame on each side.
// Every node still in flight is owned here too, so release_all() (and the
// destructor) frees frames whose delivery never ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/bytes.h"
#include "util/types.h"

namespace beehive {

struct WireFrame {
  Bytes bytes;
  HiveId from = 0;
  HiveId to = 0;
  std::uint64_t seq = 0;   ///< pairs the send and receive channel spans
  MsgTypeId kind = 0;      ///< the frame's kind byte, for span labels
  std::uint32_t size = 0;  ///< bytes at send time

 private:
  friend class FrameHandoff;
  // Links in the in-flight list of the node's link.
  WireFrame* prev = nullptr;
  WireFrame* next = nullptr;
};

class FrameHandoff {
 public:
  static constexpr std::size_t kSparesPerLink = 16;
  static constexpr std::size_t kMaxSpareBytes = 256 * 1024;

  explicit FrameHandoff(std::size_t n_hives);
  ~FrameHandoff();

  FrameHandoff(const FrameHandoff&) = delete;
  FrameHandoff& operator=(const FrameHandoff&) = delete;

  /// Takes a node for the link `from` -> `to` and moves `frame` into it;
  /// `frame` comes back holding the node's previous buffer, cleared (empty
  /// with no capacity when the link had no spare).
  WireFrame* take(HiveId from, HiveId to, Bytes& frame);

  /// A second in-flight node carrying a copy of `frame` (a duplicate the
  /// fault plan asked for).
  WireFrame* duplicate(const WireFrame& frame);

  /// Returns a delivered or discarded node to its link's spares.
  void give_back(WireFrame* frame);

  /// Frees every node, in flight or spare. No delivery of a node taken
  /// before this call may run after it.
  void release_all();

  /// Nodes currently in flight, across all links.
  std::size_t in_flight() const;
  /// Spare nodes the link `from` -> `to` holds.
  std::size_t spares(HiveId from, HiveId to) const;

 private:
  struct Link {
    mutable std::mutex mutex;
    WireFrame* in_flight = nullptr;  ///< head of a doubly linked list
    std::size_t n_in_flight = 0;
    std::vector<WireFrame*> spares;
  };

  Link& link(HiveId from, HiveId to) const {
    return links_[static_cast<std::size_t>(from) * n_hives_ + to];
  }
  /// Pops a spare or allocates a node, and links it in flight.
  WireFrame* acquire(Link& l);

  std::size_t n_hives_;
  std::unique_ptr<Link[]> links_;
};

}  // namespace beehive
