// Unit tests for the foundation layers: byte codecs, message envelopes,
// type registry, cells, dictionaries, stores and transactions.
#include <gtest/gtest.h>

#include <limits>

#include "msg/message.h"
#include "msg/registry.h"
#include "state/cell.h"
#include "state/dict.h"
#include "state/store.h"
#include "state/txn.h"
#include "tests/test_helpers.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"

namespace beehive {
namespace {

using testing::CounterValue;
using testing::I64;
using testing::Incr;

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  std::numeric_limits<std::uint32_t>::max(),
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v) << "value " << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Bytes, VarintIsCompactForSmallValues) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Bytes, StringsWithEmbeddedNulAndUnicode) {
  ByteWriter w;
  w.str(std::string("a\0b", 3));
  w.str("héllo wörld");
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.str(), "héllo wörld");
  EXPECT_EQ(r.str(), "");
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, MalformedVarintThrows) {
  Bytes ten_continuations(10, static_cast<char>(0xff));
  ByteReader r(ten_continuations);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  w.raw("short");
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Bytes, HexDumpTruncates) {
  Bytes data(100, 'x');
  std::string dump = hex_dump(data, 4);
  EXPECT_EQ(dump, "78 78 78 78 ...");
}

// ---------------------------------------------------------------------------
// Hash / RNG determinism
// ---------------------------------------------------------------------------

TEST(Hash, Fnv1aIsStable) {
  // Known-answer: identifiers must never change across builds.
  EXPECT_EQ(fnv1a32(""), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32("a"), 0xe40c292cu);
  EXPECT_NE(fnv1a32("te.naive"), fnv1a32("te.decoupled"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextInRespectsBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_in(2.5, 7.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 7.5);
  }
}

// ---------------------------------------------------------------------------
// Message envelope & registry
// ---------------------------------------------------------------------------

TEST(Message, TypedAccess) {
  auto env = MessageEnvelope::make(Incr{"k", 5}, 11, 22, 3, 1000);
  EXPECT_TRUE(env.is<Incr>());
  EXPECT_FALSE(env.is<CounterValue>());
  EXPECT_EQ(env.as<Incr>().key, "k");
  EXPECT_EQ(env.as<Incr>().amount, 5);
  EXPECT_EQ(env.from_app(), 11u);
  EXPECT_EQ(env.from_bee(), 22u);
  EXPECT_EQ(env.from_hive(), 3u);
  EXPECT_EQ(env.emitted_at(), 1000);
  EXPECT_THROW(env.as<CounterValue>(), std::logic_error);
}

TEST(Message, WireRoundTrip) {
  auto env = MessageEnvelope::make(Incr{"roundtrip", -9}, 1, 2, 3, 44);
  Bytes wire = env.to_wire();
  MessageEnvelope back = MessageEnvelope::from_wire(wire);
  EXPECT_EQ(back.type(), env.type());
  EXPECT_EQ(back.from_app(), 1u);
  EXPECT_EQ(back.from_bee(), 2u);
  EXPECT_EQ(back.from_hive(), 3u);
  EXPECT_EQ(back.emitted_at(), 44);
  EXPECT_EQ(back.as<Incr>().key, "roundtrip");
  EXPECT_EQ(back.as<Incr>().amount, -9);
}

TEST(Message, WireSizeCountsPayload) {
  auto small = MessageEnvelope::make(Incr{"a", 1});
  auto large = MessageEnvelope::make(Incr{std::string(100, 'x'), 1});
  EXPECT_GT(large.wire_size(), small.wire_size());
  EXPECT_GE(small.wire_size(), MessageEnvelope::kHeaderBytes);
}

TEST(Registry, EnsureIsIdempotent) {
  auto& reg = MsgTypeRegistry::instance();
  MsgTypeId id1 = reg.ensure<Incr>();
  MsgTypeId id2 = reg.ensure<Incr>();
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(reg.name_of(id1), "test.incr");
}

TEST(Registry, UnknownTypeHasPlaceholderName) {
  EXPECT_EQ(MsgTypeRegistry::instance().name_of(0xfffffffe), "<unknown>");
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

TEST(CellSetInline, TwoCellsStaySortedInlineAndSpillOnTheThird) {
  CellSet s;
  s.insert({"d", "m"});
  s.insert({"d", "c"});
  s.insert({"d", "m"});  // duplicate
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].key, "c");
  EXPECT_EQ(s[1].key, "m");
  EXPECT_TRUE(s.contains({"d", "m"}));

  s.insert({"d", "x"});
  s.insert({"d", "a"});
  s.insert({"d", "c"});  // duplicate, after the spill
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.to_string(), "{d/a, d/c, d/m, d/x}");

  CellSet moved = std::move(s);
  EXPECT_TRUE(s.empty());  // NOLINT(bugprone-use-after-move): reset by move
  EXPECT_EQ(moved.size(), 4u);

  const CellSet two{{"d", "b"}, {"d", "a"}};
  CellSet copy = two;
  EXPECT_EQ(copy, two);
  CellSet from_copy = std::move(copy);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(from_copy, two);
  EXPECT_EQ(from_copy.front().key, "a");
  ByteWriter w;
  from_copy.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(CellSet::decode(r), two);
}

TEST(CellSet, InsertDeduplicatesAndSorts) {
  CellSet s;
  s.insert({"d", "b"});
  s.insert({"d", "a"});
  s.insert({"d", "b"});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].key, "a");
  EXPECT_EQ(s[1].key, "b");
}

TEST(CellSet, IntersectionExactKeys) {
  CellSet a{{"d", "x"}, {"d", "y"}};
  CellSet b{{"d", "y"}, {"d", "z"}};
  CellSet c{{"d", "z"}, {"e", "x"}};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(b.intersects(c));
}

TEST(CellSet, WholeDictIntersectsEveryKeyOfThatDict) {
  CellSet whole = CellSet::whole_dict("d");
  CellSet key = CellSet::single("d", "k");
  CellSet other_dict = CellSet::single("e", "k");
  EXPECT_TRUE(whole.intersects(key));
  EXPECT_TRUE(key.intersects(whole));
  EXPECT_FALSE(whole.intersects(other_dict));
  EXPECT_TRUE(whole.intersects(whole));
}

TEST(CellSet, EncodeDecodeRoundTrip) {
  CellSet s{{"S", "1"}, {"T", "*"}, {"S", "44"}};
  ByteWriter w;
  s.encode(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(CellSet::decode(r), s);
}

TEST(CellSet, MergeIsUnion) {
  CellSet a{{"d", "1"}};
  CellSet b{{"d", "2"}, {"d", "1"}};
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Dict / StateStore
// ---------------------------------------------------------------------------

TEST(Dict, PutGetEraseContains) {
  Dict d("test");
  EXPECT_FALSE(d.contains("k"));
  d.put("k", "v1");
  EXPECT_EQ(d.get("k"), "v1");
  d.put("k", "v2");
  EXPECT_EQ(d.get("k"), "v2");
  EXPECT_TRUE(d.erase("k"));
  EXPECT_FALSE(d.erase("k"));
  EXPECT_EQ(d.get("k"), std::nullopt);
}

TEST(Dict, TypedAccessors) {
  Dict d("test");
  d.put_as("x", I64{42});
  auto v = d.get_as<I64>("x");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->v, 42);
  EXPECT_FALSE(d.get_as<I64>("missing").has_value());
}

TEST(Dict, ForEachIsKeyOrdered) {
  Dict d("test");
  d.put("b", "2");
  d.put("a", "1");
  d.put("c", "3");
  std::string order;
  d.for_each([&order](const std::string& k, const Bytes&) { order += k; });
  EXPECT_EQ(order, "abc");
}

TEST(Dict, EncodeDecodeRoundTrip) {
  Dict d("mydict");
  d.put("k1", "value one");
  d.put("k2", std::string("\0\1\2", 3));
  ByteWriter w;
  d.encode(w);
  ByteReader r(w.bytes());
  Dict back = Dict::decode(r);
  EXPECT_EQ(back.name(), "mydict");
  EXPECT_EQ(back.get("k1"), "value one");
  EXPECT_EQ(back.get("k2"), std::string("\0\1\2", 3));
}

TEST(StateStore, SnapshotRoundTrip) {
  StateStore s;
  s.dict("a").put("k", "v");
  s.dict("b").put_as("n", I64{7});
  StateStore restored = StateStore::from_snapshot(s.snapshot());
  EXPECT_EQ(restored.dict("a").get("k"), "v");
  EXPECT_EQ(restored.dict("b").get_as<I64>("n")->v, 7);
  EXPECT_EQ(restored.byte_size(), s.byte_size());
}

TEST(StateStore, MergeFromMovesEverything) {
  StateStore a, b;
  a.dict("d").put("x", "1");
  b.dict("d").put("y", "2");
  b.dict("e").put("z", "3");
  a.merge_from(std::move(b));
  EXPECT_EQ(a.dict("d").get("x"), "1");
  EXPECT_EQ(a.dict("d").get("y"), "2");
  EXPECT_EQ(a.dict("e").get("z"), "3");
}

TEST(StateStore, AllCellsEnumerates) {
  StateStore s;
  s.dict("d").put("a", "1");
  s.dict("e").put("b", "2");
  CellSet cells = s.all_cells();
  EXPECT_TRUE(cells.contains({"d", "a"}));
  EXPECT_TRUE(cells.contains({"e", "b"}));
  EXPECT_EQ(cells.size(), 2u);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

TEST(Txn, CommitMakesWritesVisible) {
  StateStore store;
  {
    Txn txn(store, AccessPolicy::all());
    txn.put("d", "k", "v");
    txn.commit();
  }
  EXPECT_EQ(store.dict("d").get("k"), "v");
}

TEST(Txn, DestructorWithoutCommitRollsBack) {
  StateStore store;
  store.dict("d").put("k", "old");
  {
    Txn txn(store, AccessPolicy::all());
    txn.put("d", "k", "new");
    txn.put("d", "fresh", "x");
    // no commit
  }
  EXPECT_EQ(store.dict("d").get("k"), "old");
  EXPECT_FALSE(store.dict("d").contains("fresh"));
}

TEST(Txn, RollbackRestoresOverwritesInOrder) {
  StateStore store;
  store.dict("d").put("k", "original");
  Txn txn(store, AccessPolicy::all());
  txn.put("d", "k", "first");
  txn.put("d", "k", "second");
  txn.rollback();
  EXPECT_EQ(store.dict("d").get("k"), "original");
}

TEST(Txn, RollbackUndoesErase) {
  StateStore store;
  store.dict("d").put("k", "keepme");
  Txn txn(store, AccessPolicy::all());
  EXPECT_TRUE(txn.erase("d", "k"));
  EXPECT_FALSE(txn.contains("d", "k"));
  txn.rollback();
  EXPECT_EQ(store.dict("d").get("k"), "keepme");
}

TEST(Txn, EraseMissingKeyReturnsFalse) {
  StateStore store;
  Txn txn(store, AccessPolicy::all());
  EXPECT_FALSE(txn.erase("d", "nothing"));
  txn.commit();
}

TEST(Txn, PolicyBlocksUnmappedCell) {
  StateStore store;
  Txn txn(store, AccessPolicy::cells(CellSet::single("d", "allowed")));
  txn.put("d", "allowed", "ok");
  EXPECT_THROW(txn.put("d", "forbidden", "x"), StateAccessError);
  EXPECT_THROW(txn.get("e", "allowed"), StateAccessError);
}

TEST(Txn, PolicyWholeDictAllowsScanAndAnyKey) {
  StateStore store;
  store.dict("d").put("a", "1");
  Txn txn(store, AccessPolicy::cells(CellSet::whole_dict("d")));
  txn.put("d", "anything", "v");
  int seen = 0;
  txn.for_each("d", [&seen](const std::string&, const Bytes&) { ++seen; });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(txn.dict_size("d"), 2u);
  txn.commit();
}

TEST(Txn, ScanWithoutWholeDictThrows) {
  StateStore store;
  Txn txn(store, AccessPolicy::cells(CellSet::single("d", "k")));
  EXPECT_THROW(
      txn.for_each("d", [](const std::string&, const Bytes&) {}),
      StateAccessError);
  EXPECT_THROW(txn.dict_size("d"), StateAccessError);
}

TEST(Txn, LocalDictPolicyGrantsScanAndKeys) {
  StateStore store;
  store.dict("d").put("a", "1");
  Txn txn(store, AccessPolicy::local_dict("d"));
  txn.put("d", "b", "2");
  std::size_t n = 0;
  txn.for_each("d", [&n](const std::string&, const Bytes&) { ++n; });
  EXPECT_EQ(n, 2u);
  EXPECT_THROW(txn.put("other", "k", "v"), StateAccessError);
  txn.commit();
}

TEST(Txn, WriteCountTracksUndoLog) {
  StateStore store;
  Txn txn(store, AccessPolicy::all());
  EXPECT_EQ(txn.write_count(), 0u);
  txn.put("d", "a", "1");
  txn.put("d", "b", "2");
  EXPECT_EQ(txn.write_count(), 2u);
  txn.commit();
}

}  // namespace
}  // namespace beehive
