// Cells: the unit of state ownership in Beehive.
//
// A cell is one (dictionary, key) entry of an application's state. The Map
// function of each handler returns the set of cells a message needs; the
// platform guarantees that every cell is exclusively owned by one bee and
// that messages with intersecting cell sets are processed by the same bee
// (paper §3, "Hives and Cells").
//
// The reserved key "*" denotes whole-dictionary access: a handler that maps
// a message to (D, "*") requires every current and future cell of D, which
// forces the whole dictionary onto a single bee — exactly the paper's
// "effectively centralized" case for the naive TE Route function.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/hash.h"

namespace beehive {

inline constexpr std::string_view kAllKeys = "*";

struct CellKey {
  std::string dict;
  std::string key;

  bool is_whole_dict() const { return key == kAllKeys; }

  bool operator==(const CellKey&) const = default;
  auto operator<=>(const CellKey&) const = default;

  void encode(ByteWriter& w) const {
    w.str(dict);
    w.str(key);
  }
  static CellKey decode(ByteReader& r) {
    CellKey c;
    c.dict = r.str();
    c.key = r.str();
    return c;
  }

  std::string to_string() const { return dict + "/" + key; }
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& c) const {
    std::size_t h = fnv1a64(c.dict);
    hash_combine(h, fnv1a64(c.key));
    return h;
  }
};

/// An ordered, deduplicated set of cells — the result of a Map call.
///
/// One CellSet is built per dispatched message, so its representation is on
/// the platform's hot path. Map results of one or two cells (a single key,
/// or a key collocated with one other, as TE's Route maps an alarm) live in
/// inline storage and cost no heap allocation. Larger sets spill into a
/// sorted vector.
class CellSet {
 public:
  CellSet() = default;
  CellSet(std::initializer_list<CellKey> cells) {
    for (const auto& c : cells) insert(c);
  }

  CellSet(const CellSet&) = default;
  CellSet& operator=(const CellSet&) = default;

  // Moves must reset the source's size: the inline slots hold moved-from
  // strings afterwards, and a defaulted move would leave the source
  // claiming it still owns valid cells.
  CellSet(CellSet&& other) noexcept { *this = std::move(other); }
  CellSet& operator=(CellSet&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      for (std::size_t i = 0; i < kInline; ++i) {
        inline_[i] = std::move(other.inline_[i]);
      }
      overflow_ = std::move(other.overflow_);
      other.size_ = 0;
    }
    return *this;
  }

  static CellSet single(std::string dict, std::string key) {
    CellSet s;
    s.insert({std::move(dict), std::move(key)});
    return s;
  }

  /// Whole-dictionary access marker (centralizing).
  static CellSet whole_dict(std::string dict) {
    return single(std::move(dict), std::string(kAllKeys));
  }

  void insert(CellKey cell) {
    if (size_ < kInline) {
      // Sorted insert among the inline slots.
      auto* first = std::begin(inline_);
      auto* last = first + size_;
      auto* it = std::lower_bound(first, last, cell);
      if (it != last && *it == cell) return;
      for (auto* p = last; p != it; --p) *p = std::move(*(p - 1));
      *it = std::move(cell);
      ++size_;
      return;
    }
    if (size_ == kInline) {
      if (contains(cell)) return;
      overflow_.reserve(kInline + 1);
      for (CellKey& c : inline_) overflow_.push_back(std::move(c));
    }
    auto it = std::lower_bound(overflow_.begin(), overflow_.end(), cell);
    if (it != overflow_.end() && *it == cell) return;
    overflow_.insert(it, std::move(cell));
    size_ = overflow_.size();
  }

  void merge(const CellSet& other) {
    for (const auto& c : other) insert(c);
  }

  bool contains(const CellKey& cell) const {
    return std::binary_search(begin(), end(), cell);
  }

  /// True when some cell is shared. Whole-dict markers intersect every cell
  /// of the same dictionary (and vice versa).
  bool intersects(const CellSet& other) const {
    for (const auto& c : *this) {
      for (const auto& o : other) {
        if (c == o) return true;
        if (c.dict == o.dict && (c.is_whole_dict() || o.is_whole_dict())) {
          return true;
        }
      }
    }
    return false;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const CellKey* begin() const { return data(); }
  const CellKey* end() const { return data() + size_; }
  const CellKey& operator[](std::size_t i) const { return data()[i]; }
  const CellKey& front() const { return data()[0]; }

  bool operator==(const CellSet& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }

  void encode(ByteWriter& w) const {
    w.varint(size_);
    for (const auto& c : *this) c.encode(w);
  }
  static CellSet decode(ByteReader& r) {
    CellSet s;
    std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) s.insert(CellKey::decode(r));
    return s;
  }

  std::string to_string() const {
    std::string out = "{";
    for (std::size_t i = 0; i < size_; ++i) {
      if (i) out += ", ";
      out += data()[i].to_string();
    }
    return out + "}";
  }

 private:
  static constexpr std::size_t kInline = 2;

  const CellKey* data() const {
    return size_ <= kInline ? inline_ : overflow_.data();
  }

  std::size_t size_ = 0;
  CellKey inline_[kInline];         ///< the first size_ valid iff size_ <= 2
  std::vector<CellKey> overflow_;   ///< holds all cells when size_ > 2
};

}  // namespace beehive
