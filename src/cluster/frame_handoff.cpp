#include "cluster/frame_handoff.h"

#include <cassert>

namespace beehive {

FrameHandoff::FrameHandoff(std::size_t n_hives)
    : n_hives_(n_hives), links_(new Link[n_hives * n_hives]) {}

FrameHandoff::~FrameHandoff() { release_all(); }

WireFrame* FrameHandoff::acquire(Link& l) {
  std::lock_guard lock(l.mutex);
  WireFrame* f;
  if (l.spares.empty()) {
    f = new WireFrame;
  } else {
    f = l.spares.back();
    l.spares.pop_back();
  }
  f->prev = nullptr;
  f->next = l.in_flight;
  if (l.in_flight != nullptr) l.in_flight->prev = f;
  l.in_flight = f;
  ++l.n_in_flight;
  return f;
}

WireFrame* FrameHandoff::take(HiveId from, HiveId to, Bytes& frame) {
  assert(from < n_hives_ && to < n_hives_);
  WireFrame* f = acquire(link(from, to));
  // The node is ours alone until it is scheduled: no lock for the swap.
  f->bytes.swap(frame);
  f->from = from;
  f->to = to;
  f->size = static_cast<std::uint32_t>(f->bytes.size());
  f->kind = f->bytes.empty()
                ? MsgTypeId{0}
                : static_cast<MsgTypeId>(static_cast<unsigned char>(f->bytes[0]));
  return f;
}

WireFrame* FrameHandoff::duplicate(const WireFrame& frame) {
  WireFrame* f = acquire(link(frame.from, frame.to));
  f->bytes.assign(frame.bytes);
  f->from = frame.from;
  f->to = frame.to;
  f->seq = frame.seq;
  f->kind = frame.kind;
  f->size = frame.size;
  return f;
}

void FrameHandoff::give_back(WireFrame* f) {
  Link& l = link(f->from, f->to);
  bool keep;
  {
    std::lock_guard lock(l.mutex);
    if (f->prev != nullptr) {
      f->prev->next = f->next;
    } else {
      l.in_flight = f->next;
    }
    if (f->next != nullptr) f->next->prev = f->prev;
    --l.n_in_flight;
    keep = l.spares.size() < kSparesPerLink;
    if (keep) {
      if (f->bytes.capacity() > kMaxSpareBytes) {
        Bytes().swap(f->bytes);
      } else {
        f->bytes.clear();
      }
      if (l.spares.capacity() == 0) l.spares.reserve(kSparesPerLink);
      l.spares.push_back(f);
    }
  }
  if (!keep) delete f;
}

void FrameHandoff::release_all() {
  for (std::size_t i = 0; i < n_hives_ * n_hives_; ++i) {
    Link& l = links_[i];
    std::lock_guard lock(l.mutex);
    while (l.in_flight != nullptr) {
      WireFrame* next = l.in_flight->next;
      delete l.in_flight;
      l.in_flight = next;
    }
    l.n_in_flight = 0;
    for (WireFrame* f : l.spares) delete f;
    l.spares.clear();
  }
}

std::size_t FrameHandoff::in_flight() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < n_hives_ * n_hives_; ++i) {
    std::lock_guard lock(links_[i].mutex);
    n += links_[i].n_in_flight;
  }
  return n;
}

std::size_t FrameHandoff::spares(HiveId from, HiveId to) const {
  const Link& l = link(from, to);
  std::lock_guard lock(l.mutex);
  return l.spares.size();
}

}  // namespace beehive
