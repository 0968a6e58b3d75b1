//===- tests/analysis/ClosureTest.cpp -------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the pure-part congruence closure with disequality
/// tracking (analysis::PureClosure).
///
//===----------------------------------------------------------------------===//

#include "analysis/Closure.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace slp;
using namespace slp::analysis;

namespace {

class ClosureTest : public ::testing::Test {
protected:
  SymbolTable Syms;
  TermTable Terms{Syms};
  Symbol X = Terms.constant("x");
  Symbol Y = Terms.constant("y");
  Symbol Z = Terms.constant("z");
  Symbol W = Terms.constant("w");
};

/// Reference closure: one flat list of disequality pairs, scanned
/// whole by distinct() and after every merge. Slow but plainly
/// correct; PureClosure must give the same answer to every call.
class PairListClosure {
public:
  bool unite(Symbol A, Symbol B) {
    uint32_t RA = UF.find(A.id()), RB = UF.find(B.id());
    if (RA == RB)
      return false;
    UF.unite(RA, RB);
    for (const auto &[P, Q] : Diseqs)
      if (UF.find(P.id()) == UF.find(Q.id())) {
        Contradiction = true;
        break;
      }
    return true;
  }

  bool addDisequality(Symbol A, Symbol B) {
    if (same(A, B)) {
      Contradiction = true;
      Diseqs.push_back({A, B});
      return true;
    }
    if (distinct(A, B))
      return false;
    Diseqs.push_back({A, B});
    return true;
  }

  bool same(Symbol A, Symbol B) {
    return UF.find(A.id()) == UF.find(B.id());
  }

  bool distinct(Symbol A, Symbol B) {
    uint32_t RA = UF.find(A.id()), RB = UF.find(B.id());
    if (RA == RB)
      return false;
    for (const auto &[P, Q] : Diseqs) {
      uint32_t RP = UF.find(P.id()), RQ = UF.find(Q.id());
      if ((RP == RA && RQ == RB) || (RP == RB && RQ == RA))
        return true;
    }
    return false;
  }

  bool contradictory() const { return Contradiction; }

private:
  UnionFind UF;
  std::vector<std::pair<Symbol, Symbol>> Diseqs;
  bool Contradiction = false;
};

/// Drives a PureClosure and the pair-list reference in lockstep over a
/// fixed term set, and checks after every step that each return value
/// and every same/distinct/contradictory answer agrees.
class Lockstep {
public:
  explicit Lockstep(std::vector<Symbol> Ts) : Ts(std::move(Ts)) {}

  bool unite(Symbol A, Symbol B) {
    bool Got = C.unite(A, B);
    EXPECT_EQ(Got, Ref.unite(A, B));
    check();
    return Got;
  }

  bool addDisequality(Symbol A, Symbol B) {
    bool Got = C.addDisequality(A, B);
    EXPECT_EQ(Got, Ref.addDisequality(A, B));
    check();
    return Got;
  }

  bool contradictory() const { return C.contradictory(); }

private:
  void check() {
    ASSERT_EQ(C.contradictory(), Ref.contradictory());
    for (Symbol A : Ts)
      for (Symbol B : Ts) {
        ASSERT_EQ(C.same(A, B), Ref.same(A, B));
        ASSERT_EQ(C.distinct(A, B), Ref.distinct(A, B))
            << "distinct(" << A.id() << ", " << B.id() << ")";
      }
  }

  std::vector<Symbol> Ts;
  PureClosure C;
  PairListClosure Ref;
};

} // namespace

TEST_F(ClosureTest, UniteMergesTransitively) {
  PureClosure C;
  EXPECT_FALSE(C.same(X, Z));
  EXPECT_TRUE(C.unite(X, Y));
  EXPECT_TRUE(C.unite(Y, Z));
  EXPECT_TRUE(C.same(X, Z));
  EXPECT_FALSE(C.same(X, W));
  // Re-uniting an existing class reports no change.
  EXPECT_FALSE(C.unite(Z, X));
  EXPECT_FALSE(C.contradictory());
}

TEST_F(ClosureTest, DistinctLooksThroughTheClosure) {
  PureClosure C;
  EXPECT_TRUE(C.addDisequality(X, Y));
  C.unite(Y, Z);
  // x != y and y = z force x != z.
  EXPECT_TRUE(C.distinct(X, Z));
  EXPECT_FALSE(C.distinct(X, W));
  // Same class is never "distinct" (that is a contradiction instead).
  EXPECT_FALSE(C.distinct(Y, Z));
  EXPECT_FALSE(C.contradictory());
}

TEST_F(ClosureTest, RedundantDisequalityIsNotNew) {
  PureClosure C;
  EXPECT_TRUE(C.addDisequality(X, Y));
  C.unite(Y, Z);
  // x != z already follows; the store should reject it as known.
  EXPECT_FALSE(C.addDisequality(X, Z));
  EXPECT_FALSE(C.addDisequality(Z, X));
}

TEST_F(ClosureTest, DisequalityIntoOneClassContradicts) {
  PureClosure C;
  C.unite(X, Y);
  C.addDisequality(X, Y);
  EXPECT_TRUE(C.contradictory());
}

TEST_F(ClosureTest, UniteAcrossDisequalityContradicts) {
  PureClosure C;
  C.addDisequality(X, Y);
  C.unite(Y, Z);
  EXPECT_FALSE(C.contradictory());
  C.unite(X, Z); // Closes x and y into one class.
  EXPECT_TRUE(C.contradictory());
}

TEST_F(ClosureTest, ContradictionLatches) {
  PureClosure C;
  C.unite(X, Y);
  C.addDisequality(X, Y);
  ASSERT_TRUE(C.contradictory());
  C.unite(Z, W);
  C.addDisequality(Z, X);
  EXPECT_TRUE(C.contradictory());
}

TEST_F(ClosureTest, AddDispatchesOnAtomPolarity) {
  PureClosure C;
  C.add(sl::PureAtom::eq(X, Y));
  C.add(sl::PureAtom::ne(Y, Z));
  EXPECT_TRUE(C.same(X, Y));
  EXPECT_TRUE(C.distinct(X, Z));
  C.add(sl::PureAtom::eq(X, Z));
  EXPECT_TRUE(C.contradictory());
}

TEST_F(ClosureTest, MatchesPairListReference) {
  std::vector<Symbol> Ts;
  for (int I = 0; I != 24; ++I) {
    std::string Name = "t";
    Ts.push_back(Terms.constant(Name += std::to_string(I)));
  }
  for (uint64_t Seed = 1; Seed != 201; ++Seed) {
    SplitMix64 Rng(Seed);
    // Vary the mix so some runs stay consistent long and others
    // contradict early.
    double PUnite = 0.1 + 0.05 * static_cast<double>(Seed % 8);
    Lockstep L(Ts);
    for (int Step = 0; Step != 48; ++Step) {
      Symbol A = Ts[Rng.below(Ts.size())];
      Symbol B = Ts[Rng.below(Ts.size())];
      if (Rng.chance(PUnite))
        L.unite(A, B);
      else
        L.addDisequality(A, B);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

// A merge keeps the union-find's root (the higher-ranked class, here
// the united pair x = y) and appends the shorter disequality list to
// the longer one. These cases cover both orders of list sizes, with
// the closing disequality recorded from either side.
TEST_F(ClosureTest, MergeContradictsInBothSizeOrders) {
  std::vector<Symbol> Fresh;
  for (const char *Name : {"f0", "f1", "f2", "f3"})
    Fresh.push_back(Terms.constant(Name));
  std::vector<Symbol> All = {X, Y, Z, W};
  All.insert(All.end(), Fresh.begin(), Fresh.end());

  for (bool RootListLonger : {true, false})
    for (bool FromRootSide : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "root list longer: "
                                        << RootListLonger
                                        << ", recorded from root side: "
                                        << FromRootSide);
      Lockstep L(All);
      L.unite(X, Y); // Rank 1: {x, y} keeps its root when merged with z.
      Symbol Long = RootListLonger ? Y : Z;
      for (Symbol F : Fresh)
        EXPECT_TRUE(L.addDisequality(Long, F));
      if (FromRootSide)
        EXPECT_TRUE(L.addDisequality(X, Z));
      else
        EXPECT_TRUE(L.addDisequality(Z, X));
      EXPECT_FALSE(L.contradictory());
      EXPECT_TRUE(L.unite(Z, Y));
      EXPECT_TRUE(L.contradictory());
    }

  // The same merges without a closing disequality stay consistent.
  for (bool RootListLonger : {true, false}) {
    Lockstep L(All);
    L.unite(X, Y);
    Symbol Long = RootListLonger ? Y : Z;
    for (Symbol F : Fresh)
      L.addDisequality(Long, F);
    L.addDisequality(Z, W);
    EXPECT_TRUE(L.unite(Z, Y));
    EXPECT_FALSE(L.contradictory());
    // x != w now follows through the merged class's list.
    EXPECT_FALSE(L.addDisequality(X, W));
  }
}
