// The ground program's data structures: IdList (inline id storage with a
// heap spill) and AtomTable (the packed columnar atom store behind an
// open-addressing index).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "asp/atom.h"
#include "asp/packed_term.h"
#include "asp/symbol_table.h"
#include "ground/ground_program.h"
#include "ground/id_list.h"

namespace streamasp {
namespace {

std::vector<uint32_t> Contents(const IdList& list) {
  return std::vector<uint32_t>(list.begin(), list.end());
}

IdList ListOf(uint32_t count, uint32_t first = 0) {
  IdList list;
  for (uint32_t i = 0; i < count; ++i) list.push_back(first + i);
  return list;
}

TEST(IdListTest, SpillsToTheHeapAtTheFifthId) {
  IdList list;
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.on_heap());
  for (uint32_t id = 10; id < 14; ++id) list.push_back(id);
  EXPECT_EQ(list.size(), 4u);
  EXPECT_FALSE(list.on_heap()) << "four ids stay inline";
  list.push_back(14);
  EXPECT_TRUE(list.on_heap()) << "the fifth id spills";
  EXPECT_GE(list.capacity(), 5u);
  EXPECT_EQ(Contents(list), (std::vector<uint32_t>{10, 11, 12, 13, 14}));
  for (uint32_t id = 15; id < 100; ++id) list.push_back(id);
  EXPECT_EQ(list.size(), 90u);
  EXPECT_EQ(list.front(), 10u);
  EXPECT_EQ(list.back(), 99u);
  list.pop_back();
  EXPECT_EQ(list.back(), 98u);
  list.clear();
  EXPECT_TRUE(list.empty());
  list.push_back(7);
  EXPECT_EQ(Contents(list), (std::vector<uint32_t>{7}));
}

TEST(IdListTest, CopiesAreDeepForInlineAndHeapLists) {
  for (const uint32_t count : {0u, 3u, 4u, 5u, 40u}) {
    const IdList original = ListOf(count, 100);
    IdList copy(original);
    EXPECT_EQ(copy, original) << count;
    EXPECT_EQ(copy.on_heap(), original.on_heap()) << count;
    copy.push_back(1);
    EXPECT_EQ(Contents(original), Contents(ListOf(count, 100))) << count;

    IdList assigned = ListOf(9, 7);  // Heap block replaced by the copy.
    assigned = original;
    EXPECT_EQ(assigned, original) << count;
    if (count > 0) {
      assigned[0] = 999;
      EXPECT_EQ(original[0], 100u) << count;
    }
  }
}

TEST(IdListTest, MovesStealTheHeapBlockAndEmptyTheSource) {
  IdList heap = ListOf(20);
  const uint32_t* block = heap.data();
  IdList moved(std::move(heap));
  EXPECT_EQ(moved.data(), block) << "a heap list moves its block";
  EXPECT_EQ(Contents(moved), Contents(ListOf(20)));
  EXPECT_TRUE(heap.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(heap.on_heap());
  heap.push_back(3);  // The source stays usable.
  EXPECT_EQ(Contents(heap), (std::vector<uint32_t>{3}));

  IdList inline_list = ListOf(2, 5);
  IdList target = ListOf(30);  // Its heap block is released.
  target = std::move(inline_list);
  EXPECT_FALSE(target.on_heap());
  EXPECT_EQ(Contents(target), (std::vector<uint32_t>{5, 6}));
  EXPECT_TRUE(inline_list.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(IdListTest, SelfAssignmentKeepsTheContents) {
  for (const uint32_t count : {2u, 12u}) {
    IdList list = ListOf(count);
    IdList& alias = list;
    list = alias;
    EXPECT_EQ(Contents(list), Contents(ListOf(count))) << count;
    list = std::move(alias);
    EXPECT_EQ(Contents(list), Contents(ListOf(count))) << count;
  }
}

TEST(IdListTest, EraseFollowsTheVectorIdiom) {
  for (const uint32_t count : {4u, 10u}) {
    IdList list = ListOf(count);
    list.erase(std::remove_if(list.begin(), list.end(),
                              [](uint32_t id) { return id % 2 == 1; }),
               list.end());
    std::vector<uint32_t> even;
    for (uint32_t id = 0; id < count; id += 2) even.push_back(id);
    EXPECT_EQ(Contents(list), even) << count;

    // A middle range, then everything.
    const IdList::iterator next = list.erase(list.begin() + 1,
                                             list.begin() + 2);
    EXPECT_EQ(next, list.begin() + 1);
    even.erase(even.begin() + 1);
    EXPECT_EQ(Contents(list), even) << count;
    list.erase(list.begin(), list.end());
    EXPECT_TRUE(list.empty()) << count;
  }
}

TEST(IdListTest, EqualityComparesContentsNotStorage) {
  IdList inline_list = {1, 2, 3};
  IdList heap_list;
  heap_list.reserve(16);
  ASSERT_TRUE(heap_list.on_heap());
  heap_list.assign(inline_list.begin(), inline_list.end());
  EXPECT_EQ(inline_list, heap_list);
  EXPECT_FALSE(inline_list != heap_list);
  heap_list.push_back(4);
  EXPECT_NE(inline_list, heap_list) << "different sizes";
  IdList other = {1, 2, 4};
  EXPECT_NE(inline_list, other) << "same size, different ids";
  EXPECT_EQ(IdList(), IdList({}));
}

/// A ground atom whose arguments are given as Terms.
Atom MakeAtom(SymbolTable& symbols, const char* predicate,
              std::vector<Term> args) {
  return Atom(symbols.Intern(predicate), std::move(args));
}

TEST(AtomTableTest, RoundTripsEveryArgumentKind) {
  SymbolTablePtr symbols = MakeSymbolTable();
  const Term a = Term::Symbol(symbols->Intern("a"));
  const Term f_g = Term::Function(
      symbols->Intern("f"),
      {Term::Function(symbols->Intern("g"), {Term::Integer(1)}), a});
  const std::vector<Atom> atoms = {
      MakeAtom(*symbols, "p", {a, Term::Symbol(symbols->Intern("b"))}),
      MakeAtom(*symbols, "p", {Term::Integer(0), Term::Integer(-7)}),
      MakeAtom(*symbols, "p", {Term::Integer(PackedTerm::kMinInlineInt),
                               Term::Integer(PackedTerm::kMaxInlineInt)}),
      // Out of the inline range: the arena escape path.
      MakeAtom(*symbols, "p",
               {Term::Integer(PackedTerm::kMaxInlineInt + 1),
                Term::Integer(std::numeric_limits<int64_t>::min())}),
      MakeAtom(*symbols, "q", {f_g}),
      MakeAtom(*symbols, "q", {Term::Integer(1)}),
      MakeAtom(*symbols, "flag", {}),
      MakeAtom(*symbols, "p", {a}),  // Same predicate, other arity.
  };
  AtomTable table;
  std::vector<GroundAtomId> ids;
  for (const Atom& atom : atoms) ids.push_back(table.Intern(atom));
  ASSERT_EQ(table.size(), atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Atom& atom = atoms[i];
    const std::string text = atom.ToString(*symbols);
    EXPECT_EQ(ids[i], static_cast<GroundAtomId>(i)) << text;
    EXPECT_EQ(table.Intern(atom), ids[i]) << "re-interning hits: " << text;
    EXPECT_EQ(table.Lookup(atom), ids[i]) << text;
    EXPECT_EQ(table.GetAtom(ids[i]), atom) << text;
    EXPECT_EQ(table.GetAtom(ids[i]).ToString(*symbols), text);
    EXPECT_EQ(table.Signature(ids[i]), atom.signature()) << text;
    ASSERT_EQ(table.PackedArity(ids[i]), atom.arity()) << text;
    std::vector<PackedTerm> packed;
    for (uint32_t k = 0; k < atom.arity(); ++k) {
      packed.push_back(PackedTerm(atom.args()[k]));
      EXPECT_EQ(table.PackedArgs(ids[i])[k], packed.back()) << text;
    }
    EXPECT_EQ(table.Lookup(atom.predicate(), packed.data(), atom.arity()),
              ids[i])
        << text;
    EXPECT_EQ(table.Intern(atom.predicate(), packed.data(), atom.arity()),
              ids[i])
        << text;
  }
  EXPECT_EQ(table.size(), atoms.size()) << "no duplicate was interned";
}

TEST(AtomTableTest, NeverInternedAtomsAreNotFound) {
  SymbolTablePtr symbols = MakeSymbolTable();
  AtomTable empty;
  EXPECT_EQ(empty.Lookup(MakeAtom(*symbols, "p", {Term::Integer(1)})),
            kInvalidGroundAtom);
  EXPECT_EQ(empty.Lookup(MakeAtom(*symbols, "flag", {})), kInvalidGroundAtom);

  AtomTable table;
  table.Intern(MakeAtom(*symbols, "p", {Term::Integer(1), Term::Integer(2)}));
  table.Intern(MakeAtom(*symbols, "flag", {}));
  const std::vector<Atom> absent = {
      MakeAtom(*symbols, "p", {Term::Integer(2), Term::Integer(1)}),
      MakeAtom(*symbols, "p", {Term::Integer(1)}),  // Arity prefix.
      MakeAtom(*symbols, "p",
               {Term::Integer(1), Term::Integer(2), Term::Integer(3)}),
      MakeAtom(*symbols, "q", {Term::Integer(1), Term::Integer(2)}),
      MakeAtom(*symbols, "p", {Term::Integer(1),
                               Term::Symbol(symbols->Intern("two"))}),
      MakeAtom(*symbols, "other_flag", {}),
  };
  for (const Atom& atom : absent) {
    EXPECT_EQ(table.Lookup(atom), kInvalidGroundAtom)
        << atom.ToString(*symbols);
  }
  EXPECT_EQ(table.size(), 2u) << "lookups never intern";
}

TEST(AtomTableTest, IdsStayDenseInInsertionOrderAcrossGrowth) {
  constexpr uint32_t kAtoms = 120000;
  SymbolTablePtr symbols = MakeSymbolTable();
  const SymbolId edge = symbols->Intern("edge");
  const SymbolId node = symbols->Intern("node");
  auto atom_of = [&](uint32_t i) {
    // Alternate arities and predicates so the columns interleave.
    if (i % 3 == 0) return Atom(node, {Term::Integer(i)});
    return Atom(edge, {Term::Integer(i), Term::Integer(int64_t{i} * 7)});
  };
  AtomTable table;
  size_t bytes_before = table.ApproxBytes();
  for (uint32_t i = 0; i < kAtoms; ++i) {
    ASSERT_EQ(table.Intern(atom_of(i)), i);
  }
  EXPECT_EQ(table.size(), kAtoms);
  EXPECT_GT(table.ApproxBytes(), bytes_before);
  for (uint32_t i = 0; i < kAtoms; ++i) {
    ASSERT_EQ(table.Lookup(atom_of(i)), i);
    ASSERT_EQ(table.Intern(atom_of(i)), i);
  }
  for (uint32_t i = 0; i < kAtoms; i += 997) {
    EXPECT_EQ(table.GetAtom(i), atom_of(i));
  }
  EXPECT_EQ(table.size(), kAtoms);

  // A copy is independent, and Reserve on a filled table keeps every id.
  AtomTable copy = table;
  copy.Reserve(4 * kAtoms);
  EXPECT_EQ(copy.Intern(Atom(node, {Term::Integer(-1)})), kAtoms);
  EXPECT_EQ(table.Lookup(Atom(node, {Term::Integer(-1)})),
            kInvalidGroundAtom);
  for (uint32_t i = 0; i < kAtoms; i += 1009) {
    EXPECT_EQ(copy.Lookup(atom_of(i)), i);
  }
}

}  // namespace
}  // namespace streamasp
