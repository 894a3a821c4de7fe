// The typed payload of a message envelope.
//
// A body that is trivially copyable and fits kInlineBytes lives inside the
// envelope itself: building, copying, decoding and dropping it never
// touches the heap, and a copy of the envelope carries its own copy of the
// bytes. Every other body (variable-length vectors and strings, anything
// with a non-trivial copy) is built once and shared, immutable, between
// the envelope's copies. Which of the two a type uses is a compile-time
// property of the type, so a reader never needs to ask.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace beehive {

class MessageBody {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  template <typename T>
  static constexpr bool kStoredInline =
      std::is_trivially_copyable_v<T> && sizeof(T) <= kInlineBytes &&
      alignof(T) <= alignof(std::uint64_t);

  /// Replaces the body with `value`: in place when T is stored inline,
  /// behind a fresh shared object otherwise.
  template <typename T>
  void emplace(T&& value) {
    using V = std::remove_cvref_t<T>;
    if constexpr (kStoredInline<V>) {
      shared_.reset();
      ::new (static_cast<void*>(inline_)) V(std::forward<T>(value));
      inline_used_ = true;
    } else {
      shared_ = std::make_shared<const V>(std::forward<T>(value));
      inline_used_ = false;
    }
  }

  bool empty() const { return !inline_used_ && shared_ == nullptr; }

  /// The body as T; the caller has checked the message type.
  template <typename T>
  const T& as() const {
    if constexpr (kStoredInline<T>) {
      return *std::launder(reinterpret_cast<const T*>(inline_));
    } else {
      return *static_cast<const T*>(shared_.get());
    }
  }

  /// Type-erased view for the registry's encoder.
  const void* get() const {
    return inline_used_ ? static_cast<const void*>(inline_) : shared_.get();
  }

 private:
  alignas(std::uint64_t) unsigned char inline_[kInlineBytes] = {};
  bool inline_used_ = false;
  std::shared_ptr<const void> shared_;
};

}  // namespace beehive
