// Transactional state access for handlers.
//
// Every handler invocation runs inside a transaction (paper §2:
// "dictionaries … with support for transactions"). The transaction
//   (a) enforces the handler's declared cell access — a handler may only
//       touch the cells its Map function returned (or the whole dictionary
//       when it mapped (D, "*")), which is what makes the platform's
//       consistency guarantee sound; and
//   (b) keeps an undo log so that a throwing handler leaves state
//       untouched (the bee also discards the handler's emitted messages).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "state/cell.h"
#include "state/store.h"

namespace beehive {

/// Raised when a handler touches state outside its mapped cells. This is a
/// design bug in the application; surfacing it loudly is how the platform
/// keeps the "distributed twin" faithful to centralized behaviour.
class StateAccessError : public std::logic_error {
 public:
  explicit StateAccessError(const std::string& what)
      : std::logic_error(what) {}
};

/// What a transaction is allowed to touch.
struct AccessPolicy {
  CellSet allowed;
  /// Borrowed alternative to `allowed`: when set, the policy reads cells
  /// from a CellSet owned by the caller (the dispatch path's single Map
  /// result) instead of copying it. The borrowed set must outlive the
  /// transaction — the hive guarantees this because the handler runs
  /// synchronously inside the dispatch frame that computed the set.
  const CellSet* borrowed = nullptr;
  /// Dictionaries the handler may scan and access key-wise in full. Used
  /// by foreach handlers: the bee's local slice of the dictionary is
  /// exclusively owned, so granting the whole local dict is sound.
  std::vector<std::string> scan_dicts;
  bool unrestricted = false;  ///< Platform-internal transactions only.

  static AccessPolicy all() {
    AccessPolicy p;
    p.unrestricted = true;
    return p;
  }
  static AccessPolicy cells(CellSet c) {
    AccessPolicy p;
    p.allowed = std::move(c);
    return p;
  }
  /// Zero-copy policy over a caller-owned Map result (see `borrowed`).
  static AccessPolicy cells_view(const CellSet& c) {
    AccessPolicy p;
    p.borrowed = &c;
    return p;
  }
  static AccessPolicy local_dict(std::string dict) {
    AccessPolicy p;
    p.scan_dicts.push_back(std::move(dict));
    return p;
  }

  /// The cell set this policy grants, owned or borrowed.
  const CellSet& effective() const {
    return borrowed != nullptr ? *borrowed : allowed;
  }

  bool can_access(std::string_view dict, std::string_view key) const;
  bool can_scan(std::string_view dict) const;
};

class Txn {
 public:
  /// One committed mutation, in execution order. The platform ships these
  /// to the bee's replica hive when state replication is enabled.
  struct WriteRecord {
    std::string dict;
    std::string key;
    bool erased = false;
    Bytes value;  ///< empty when erased
  };

  struct UndoEntry {
    std::string dict;
    std::string key;
    bool existed = false;  ///< false: the key did not exist (undo erases).
    Bytes prior;           ///< the key's prior bytes when `existed`.
  };

  /// Reusable undo/redo log storage. A dispatch loop that owns one Scratch
  /// and threads it through every transaction pays the log's vector
  /// allocations once, at warmup — afterwards each transaction reuses the
  /// retained capacity (the hive hot path's zero-allocation contract).
  ///
  /// The vectors are entry *pools*: only the first `undo_live` / `redo_live`
  /// elements belong to the current transaction. Retired entries keep their
  /// string/byte capacity, so the steady state re-records a write as a few
  /// assigns (memcpy into retained buffers) instead of constructing and
  /// destroying four strings per message.
  ///
  /// Every buffer stays with its owner: a write copies the cell's prior
  /// bytes into the undo slot's retained buffer and the new bytes into the
  /// cell's own string (and into the redo slot's), and put_as encodes
  /// through the retained `encode` writer. A warmed write of a cell of any
  /// size therefore allocates nothing, and no cell ever holds capacity
  /// grown for another cell's value.
  struct Scratch {
    std::vector<UndoEntry> undo;
    std::vector<WriteRecord> redo;
    std::size_t undo_live = 0;
    std::size_t redo_live = 0;
    ByteWriter encode;
  };

  /// `scratch` is optional external log storage; when null the transaction
  /// owns its logs (one-off transactions in tests and tools). An external
  /// scratch is cleared on construction and must outlive the Txn; its redo
  /// log stays readable through writes() until the next Txn reuses it.
  Txn(StateStore& store, AccessPolicy policy, Scratch* scratch = nullptr)
      : store_(store),
        owned_policy_(std::move(policy)),
        policy_(&owned_policy_),
        scratch_(scratch != nullptr ? scratch : &owned_) {
    scratch_->undo_live = 0;
    scratch_->redo_live = 0;
  }

  /// Borrowed-policy variant for the dispatch hot path: the hive owns the
  /// policy (it outlives the transaction — the handler runs synchronously
  /// inside the dispatch frame that built it), so the transaction pays no
  /// AccessPolicy copy/move at all.
  Txn(StateStore& store, const AccessPolicy* policy,
      Scratch* scratch = nullptr)
      : store_(store),
        policy_(policy),
        scratch_(scratch != nullptr ? scratch : &owned_) {
    scratch_->undo_live = 0;
    scratch_->redo_live = 0;
  }
  ~Txn();

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  // -- Key-level access (requires the cell or whole-dict permission) ------

  std::optional<Bytes> get(std::string_view dict, std::string_view key) const;
  /// Borrowed read: a pointer into the store, valid until the next write
  /// touching the key. The typed accessors decode through it so the hot
  /// path pays no value copy.
  const Bytes* get_raw(std::string_view dict, std::string_view key) const;
  bool contains(std::string_view dict, std::string_view key) const;
  /// Copies `value` into the cell (see Scratch).
  void put(std::string_view dict, std::string_view key,
           std::string_view value);
  bool erase(std::string_view dict, std::string_view key);

  template <WireEncodable T>
  std::optional<T> get_as(std::string_view dict, std::string_view key) const {
    const Bytes* raw = get_raw(dict, key);
    if (raw == nullptr) return std::nullopt;
    return decode_from_bytes<T>(*raw);
  }

  /// Encodes through the scratch's retained writer (see Scratch): the
  /// stored bytes are exactly encode_to_bytes(value).
  template <WireEncodable T>
  void put_as(std::string_view dict, std::string_view key, const T& value) {
    ByteWriter& w = scratch_->encode;
    w.clear();
    value.encode(w);
    put(dict, key, w.bytes());
  }

  // -- Whole-dictionary access (requires (dict, "*") permission) ----------

  /// Iterates all entries in key order. Mutating the dict during iteration
  /// is not allowed; collect keys first if you must.
  void for_each(
      std::string_view dict,
      const std::function<void(const std::string&, const Bytes&)>& fn) const;

  std::size_t dict_size(std::string_view dict) const;

  // -- Lifecycle -----------------------------------------------------------

  /// Makes all writes permanent. A transaction not committed before
  /// destruction rolls back.
  void commit();

  /// Reverts every write performed through this transaction.
  void rollback();

  bool committed() const { return committed_; }
  std::size_t write_count() const { return scratch_->redo_live; }

  /// The access policy this transaction runs under (the cost profiler
  /// attributes sampled handler runs to its cells).
  const AccessPolicy& policy() const { return *policy_; }

  /// The redo log; meaningful after commit() (empty after rollback). A
  /// view into the scratch's entry pool — valid until the next Txn reuses
  /// the scratch.
  std::span<const WriteRecord> writes() const {
    return {scratch_->redo.data(), scratch_->redo_live};
  }

 private:
  void check_access(std::string_view dict, std::string_view key) const;
  /// Claims the next undo slot for (dict, key); the caller fills in
  /// `existed` and `prior`.
  UndoEntry& append_undo(std::string_view dict, std::string_view key);
  void append_redo(std::string_view dict, std::string_view key, bool erased,
                   std::string_view value);
  /// Named-dictionary lookup with a one-entry memo: a handler touches one
  /// dictionary almost always, so repeat accesses skip the store's map.
  /// The `_ro` variant never creates the dictionary (read paths must not
  /// grow the store).
  Dict& resolve_dict(std::string_view dict) const;
  Dict* resolve_dict_ro(std::string_view dict) const;

  StateStore& store_;
  AccessPolicy owned_policy_;  ///< backing storage for the owning ctor
  const AccessPolicy* policy_;
  Scratch owned_;     ///< used only when no external scratch was given
  Scratch* scratch_;  ///< &owned_ or the caller's reusable storage
  mutable Dict* cached_dict_ = nullptr;
  bool committed_ = false;
  bool rolled_back_ = false;
};

}  // namespace beehive
