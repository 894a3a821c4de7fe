// A state dictionary: the application-visible key/value container.
//
// Values are stored serialized (Bytes) so that a bee's entire state can be
// snapshotted and shipped byte-for-byte during migration, and so that the
// platform can meter state size without knowing application types. Typed
// accessors put_as/get_as encode through the same wire codec used for
// messages.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "msg/codec.h"
#include "util/bytes.h"

namespace beehive {

class Dict {
 public:
  explicit Dict(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void put(std::string_view key, Bytes value) {
    // Transparent find first: the overwhelmingly common case on the
    // dispatch hot path is overwriting an existing key, which must not
    // construct a temporary std::string for the lookup.
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second = std::move(value);
      return;
    }
    entries_.emplace(std::string(key), std::move(value));
  }

  /// Copy-in put: `value` is copied into the key's existing entry, reusing
  /// that entry's capacity, so every buffer stays with its owner.
  void assign(std::string_view key, std::string_view value) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.assign(value);
      return;
    }
    entries_.emplace(std::string(key), Bytes(value));
  }

  /// assign() that first copies the key's prior bytes into `prior`
  /// (reusing the caller's capacity) — one tree traversal for the
  /// transactional write path's undo capture plus store. Returns whether
  /// the key existed; `prior` is untouched when it did not.
  bool assign_and_fetch_prior(std::string_view key, std::string_view value,
                              Bytes& prior) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      prior.assign(it->second);
      it->second.assign(value);
      return true;
    }
    entries_.emplace(std::string(key), Bytes(value));
    return false;
  }

  std::optional<Bytes> get(std::string_view key) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Borrowed lookup; nullptr when absent. Valid until the entry is
  /// overwritten or erased.
  const Bytes* get_ptr(std::string_view key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  bool contains(std::string_view key) const {
    return entries_.find(key) != entries_.end();
  }

  /// Removes the key; returns whether it existed.
  bool erase(std::string_view key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  template <WireEncodable T>
  void put_as(std::string_view key, const T& value) {
    put(key, encode_to_bytes(value));
  }

  template <WireEncodable T>
  std::optional<T> get_as(std::string_view key) const {
    auto raw = get(key);
    if (!raw) return std::nullopt;
    return decode_from_bytes<T>(*raw);
  }

  /// Iterates entries in key order (deterministic across runs).
  void for_each(
      const std::function<void(const std::string&, const Bytes&)>& fn) const {
    for (const auto& [k, v] : entries_) fn(k, v);
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Total serialized footprint (keys + values), used by the capacity model.
  std::size_t byte_size() const;

  void encode(ByteWriter& w) const;
  static Dict decode(ByteReader& r);

 private:
  std::string name_;
  // std::map keeps iteration deterministic; dict sizes per bee are small
  // (a bee typically owns a handful of cells).
  std::map<std::string, Bytes, std::less<>> entries_;
};

}  // namespace beehive
