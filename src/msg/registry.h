// Runtime registry of message types.
//
// The registry provides the type-erased encode/decode functions the
// platform needs when a message crosses a hive boundary: the sending hive
// serializes the typed payload, the receiving hive looks the MsgTypeId up
// and reconstructs the typed object. Registration is idempotent and
// normally happens when an App registers its handlers (App::on) or from
// the message header's register_*_messages() helper.
//
// Threading: the registry takes no lock. Lookups (find(), and ensure() of
// a type already present) may run concurrently; an insertion may not run
// alongside anything. Every message type must therefore be registered
// before a cluster starts its loops — App::on covers the types an app
// handles, Hive's constructor covers the platform's own
// (TimerTick, LocalMetricsReport), and an app that emits a type no app
// handles must register it itself before start(). MessageEnvelope::make()
// still calls ensure(), which is then a read.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "msg/body.h"
#include "msg/codec.h"
#include "util/bytes.h"
#include "util/types.h"

namespace beehive {

class MsgTypeRegistry {
 public:
  struct Entry {
    MsgTypeId id = 0;
    std::string name;
    /// Appends the body's encoding to a caller-owned writer — the dispatch
    /// path serializes into reusable per-hive scratch, so a remote send
    /// performs no payload allocation.
    void (*encode_into)(const void* body, ByteWriter& w) = nullptr;
    /// Decodes a payload into `body`, in place when the type is stored
    /// inline (msg/body.h). Throws DecodeError on malformed input.
    void (*decode_into)(std::string_view payload, MessageBody& body) = nullptr;
  };

  static MsgTypeRegistry& instance();

  /// Registers T if not yet known; returns its stable id. Safe to call
  /// multiple times and from multiple translation units.
  template <WireEncodable T>
  MsgTypeId ensure() {
    const MsgTypeId id = msg_type_id<T>();
    if (entries_.contains(id)) return id;
    Entry e;
    e.id = id;
    e.name = std::string(T::kTypeName);
    e.encode_into = [](const void* p, ByteWriter& w) {
      static_cast<const T*>(p)->encode(w);
    };
    e.decode_into = [](std::string_view data, MessageBody& body) {
      body.emplace(decode_from_bytes<T>(data));
    };
    entries_.emplace(id, std::move(e));
    return id;
  }

  const Entry* find(MsgTypeId id) const {
    // Dispatch resolves the same type over and over (send-side encode and
    // receive-side decode both land here per message), so memoize the last
    // hit per thread. Entries are never erased, so the cached pointer stays
    // valid; the memo is thread-local because hive threads race on find().
    thread_local const Entry* last = nullptr;
    if (last != nullptr && last->id == id) return last;
    auto it = entries_.find(id);
    last = it == entries_.end() ? nullptr : &it->second;
    return last;
  }

  std::string_view name_of(MsgTypeId id) const {
    const Entry* e = find(id);
    return e ? std::string_view(e->name) : std::string_view("<unknown>");
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<MsgTypeId, Entry> entries_;
};

}  // namespace beehive
