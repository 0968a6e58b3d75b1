//===- tests/sl/SemanticsTest.cpp ---------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Semantics.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sl;

namespace {

class SemanticsTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Symbol X = Terms.constant("x");
  Symbol Y = Terms.constant("y");
  Symbol Z = Terms.constant("z");
  Symbol Nil = Terms.nil();
};

} // namespace

TEST_F(SemanticsTest, PureAtoms) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 1);
  S.bind(Z, 2);
  EXPECT_TRUE(satisfies(S, PureAtom::eq(X, Y)));
  EXPECT_FALSE(satisfies(S, PureAtom::eq(X, Z)));
  EXPECT_TRUE(satisfies(S, PureAtom::ne(X, Z)));
  EXPECT_FALSE(satisfies(S, PureAtom::ne(X, Y)));
  EXPECT_EQ(S.eval(Nil), NilLoc);
  EXPECT_TRUE(satisfies(S, PureAtom::eq(Nil, Nil)));
}

TEST_F(SemanticsTest, EmpNeedsEmptyHeap) {
  Stack S;
  S.bind(X, 1);
  Heap Empty;
  EXPECT_TRUE(satisfies(S, Empty, SpatialFormula{}));
  Heap H;
  H.set(1, 0);
  EXPECT_FALSE(satisfies(S, H, SpatialFormula{}));
}

TEST_F(SemanticsTest, NextExactCell) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 2);
  Heap H;
  H.set(1, 2);
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::next(X, Y)}));
  // Wrong target.
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::next(Y, X)}));
  // Extra garbage cell.
  H.set(3, 1);
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::next(X, Y)}));
}

TEST_F(SemanticsTest, NextSelfLoop) {
  Stack S;
  S.bind(X, 1);
  Heap H;
  H.set(1, 1);
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::next(X, X)}));
}

TEST_F(SemanticsTest, NilNeverAllocated) {
  Stack S;
  S.bind(X, 1);
  Heap H;
  H.set(1, 0);
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::next(Nil, X)}));
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::lseg(Nil, X)}));
}

TEST_F(SemanticsTest, EmptyLseg) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 1);
  Heap Empty;
  EXPECT_TRUE(satisfies(S, Empty, {HeapAtom::lseg(X, Y)}));
  // lseg(x, x) on a nonempty heap fails (exactness).
  Heap H;
  H.set(1, 1);
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::lseg(X, X)}));
}

TEST_F(SemanticsTest, LsegPath) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 3);
  Heap H;
  H.set(1, 2);
  H.set(2, 3);
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::lseg(X, Y)}));
  // Cycle back to x is not a simple path to y.
  Heap Cycle;
  Cycle.set(1, 2);
  Cycle.set(2, 1);
  EXPECT_FALSE(satisfies(S, Cycle, {HeapAtom::lseg(X, Y)}));
}

TEST_F(SemanticsTest, LsegToNil) {
  Stack S;
  S.bind(X, 1);
  Heap H;
  H.set(1, 2);
  H.set(2, NilLoc);
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::lseg(X, Nil)}));
}

TEST_F(SemanticsTest, StarSplitsHeap) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 2);
  S.bind(Z, 3);
  Heap H;
  H.set(1, 2);
  H.set(2, 3);
  EXPECT_TRUE(
      satisfies(S, H, {HeapAtom::next(X, Y), HeapAtom::next(Y, Z)}));
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::lseg(X, Y), HeapAtom::lseg(Y, Z)}));
  // Overlap: both atoms want the same cell.
  EXPECT_FALSE(
      satisfies(S, H, {HeapAtom::next(X, Y), HeapAtom::lseg(X, Y)}));
  // Under-coverage: one atom covers only part of the heap.
  EXPECT_FALSE(satisfies(S, H, {HeapAtom::next(X, Y)}));
}

TEST_F(SemanticsTest, LsegStopsAtFirstVisit) {
  // Heap 1->2->3, lseg(x,z)*next(... the lseg from 1 to 3 must consume
  // exactly the two cells; checking the decomposition order does not
  // matter.
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 2);
  S.bind(Z, 3);
  Heap H;
  H.set(1, 2);
  H.set(2, 3);
  H.set(3, 0);
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::lseg(X, Z), HeapAtom::next(Z, Nil)}));
  EXPECT_TRUE(satisfies(S, H, {HeapAtom::next(Z, Nil), HeapAtom::lseg(X, Z)}));
}

TEST_F(SemanticsTest, AssertionCombinesPureAndSpatial) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 2);
  Heap H;
  H.set(1, 2);
  Assertion A;
  A.Pure.push_back(PureAtom::ne(X, Y));
  A.Spatial.push_back(HeapAtom::next(X, Y));
  EXPECT_TRUE(satisfies(S, H, A));
  A.Pure.push_back(PureAtom::eq(X, Y));
  EXPECT_FALSE(satisfies(S, H, A));
}

TEST_F(SemanticsTest, CounterexamplePredicate) {
  Stack S;
  S.bind(X, 1);
  S.bind(Y, 2);
  Heap H;
  H.set(1, 2);
  Entailment E;
  E.Lhs.Spatial.push_back(HeapAtom::next(X, Y));
  E.Rhs.Spatial.push_back(HeapAtom::lseg(X, Y));
  // next(x,y) |- lseg(x,y) holds at this model, so it's no cex.
  EXPECT_FALSE(isCounterexample(S, H, E));
  Entailment E2;
  E2.Lhs.Spatial.push_back(HeapAtom::next(X, Y));
  E2.Rhs.Spatial.push_back(HeapAtom::next(Y, X));
  EXPECT_TRUE(isCounterexample(S, H, E2));
}

TEST_F(SemanticsTest, HeapFreshLocation) {
  Heap H;
  H.set(1, 2);
  H.set(2, 3);
  EXPECT_EQ(H.freshLocation(1), 3u);
  EXPECT_EQ(H.freshLocation(0), 3u);
  EXPECT_EQ(H.freshLocation(5), 5u);
}
