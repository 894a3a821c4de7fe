#include "state/txn.h"

namespace beehive {

bool AccessPolicy::can_access(std::string_view dict,
                              std::string_view key) const {
  if (unrestricted) return true;
  for (const CellKey& c : effective()) {
    if (c.dict != dict) continue;
    if (c.is_whole_dict() || c.key == key) return true;
  }
  for (const std::string& d : scan_dicts) {
    if (d == dict) return true;
  }
  return false;
}

bool AccessPolicy::can_scan(std::string_view dict) const {
  if (unrestricted) return true;
  for (const CellKey& c : effective()) {
    if (c.dict == dict && c.is_whole_dict()) return true;
  }
  for (const std::string& d : scan_dicts) {
    if (d == dict) return true;
  }
  return false;
}

Txn::~Txn() {
  if (!committed_ && !rolled_back_) rollback();
}

void Txn::check_access(std::string_view dict, std::string_view key) const {
  if (!policy_->can_access(dict, key)) {
    throw StateAccessError("handler accessed cell " + std::string(dict) +
                           "/" + std::string(key) +
                           " outside its mapped cells " +
                           policy_->effective().to_string());
  }
}

Dict& Txn::resolve_dict(std::string_view dict) const {
  if (cached_dict_ != nullptr && cached_dict_->name() == dict) {
    return *cached_dict_;
  }
  cached_dict_ = &store_.dict(dict);
  return *cached_dict_;
}

Dict* Txn::resolve_dict_ro(std::string_view dict) const {
  if (cached_dict_ != nullptr && cached_dict_->name() == dict) {
    return cached_dict_;
  }
  Dict* d = store_.find_dict(dict);
  if (d != nullptr) cached_dict_ = d;
  return d;
}

std::optional<Bytes> Txn::get(std::string_view dict,
                              std::string_view key) const {
  check_access(dict, key);
  const Dict* d = resolve_dict_ro(dict);
  if (d == nullptr) return std::nullopt;
  return d->get(key);
}

const Bytes* Txn::get_raw(std::string_view dict, std::string_view key) const {
  check_access(dict, key);
  const Dict* d = resolve_dict_ro(dict);
  return d == nullptr ? nullptr : d->get_ptr(key);
}

bool Txn::contains(std::string_view dict, std::string_view key) const {
  check_access(dict, key);
  const Dict* d = resolve_dict_ro(dict);
  return d != nullptr && d->contains(key);
}

// Pool-slot append: entries past the live mark are retired but keep their
// string capacity, so re-recording a write in steady state is a handful of
// assigns into retained buffers (no allocation; see Scratch).
Txn::UndoEntry& Txn::append_undo(std::string_view dict,
                                 std::string_view key) {
  auto& undo = scratch_->undo;
  if (scratch_->undo_live == undo.size()) undo.emplace_back();
  UndoEntry& u = undo[scratch_->undo_live++];
  u.dict.assign(dict);
  u.key.assign(key);
  return u;
}

void Txn::append_redo(std::string_view dict, std::string_view key,
                      bool erased, std::string_view value) {
  auto& redo = scratch_->redo;
  if (scratch_->redo_live == redo.size()) redo.emplace_back();
  WriteRecord& r = redo[scratch_->redo_live++];
  r.dict.assign(dict);
  r.key.assign(key);
  r.erased = erased;
  r.value.assign(value);
}

void Txn::put(std::string_view dict, std::string_view key,
              std::string_view value) {
  check_access(dict, key);
  Dict& d = resolve_dict(dict);
  // Redo keeps a copy for replication. The prior value is copied out into
  // the undo slot by the same tree traversal that stores the new one.
  append_redo(dict, key, /*erased=*/false, value);
  UndoEntry& u = append_undo(dict, key);
  u.existed = d.assign_and_fetch_prior(key, value, u.prior);
}

bool Txn::erase(std::string_view dict, std::string_view key) {
  check_access(dict, key);
  Dict* d = resolve_dict_ro(dict);
  const Bytes* prior = d == nullptr ? nullptr : d->get_ptr(key);
  if (prior == nullptr) return false;
  UndoEntry& u = append_undo(dict, key);
  u.existed = true;
  u.prior.assign(*prior);
  append_redo(dict, key, /*erased=*/true, {});
  return d->erase(key);
}

void Txn::for_each(
    std::string_view dict,
    const std::function<void(const std::string&, const Bytes&)>& fn) const {
  if (!policy_->can_scan(dict)) {
    throw StateAccessError("handler scanned dictionary " + std::string(dict) +
                           " without whole-dict access " +
                           policy_->effective().to_string());
  }
  const Dict* d = store_.find_dict(dict);
  if (d != nullptr) d->for_each(fn);
}

std::size_t Txn::dict_size(std::string_view dict) const {
  if (!policy_->can_scan(dict)) {
    throw StateAccessError("dict_size on " + std::string(dict) +
                           " requires whole-dict access");
  }
  const Dict* d = store_.find_dict(dict);
  return d == nullptr ? 0 : d->size();
}

void Txn::commit() {
  committed_ = true;
  // Retire (don't destroy) the undo entries; the redo log stays live —
  // the platform reads it for replication through writes().
  scratch_->undo_live = 0;
}

void Txn::rollback() {
  // Reverse order so overlapping writes to the same key restore correctly.
  // Only the first undo_live entries belong to this transaction.
  auto& undo = scratch_->undo;
  for (std::size_t i = scratch_->undo_live; i > 0; --i) {
    UndoEntry& u = undo[i - 1];
    Dict& d = store_.dict(u.dict);
    if (u.existed) {
      d.assign(u.key, u.prior);  // copy: the undo slot keeps its buffer
    } else {
      d.erase(u.key);
    }
  }
  scratch_->undo_live = 0;
  scratch_->redo_live = 0;
  rolled_back_ = true;
}

}  // namespace beehive
