//===- tests/sl/FormulaTest.cpp --------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Formula.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sl;

namespace {

class FormulaTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Symbol X = Terms.constant("x");
  Symbol Y = Terms.constant("y");
  Symbol Nil = Terms.nil();
};

} // namespace

TEST_F(FormulaTest, PureAtomEqualityIsSymmetric) {
  EXPECT_EQ(PureAtom::eq(X, Y), PureAtom::eq(Y, X));
  EXPECT_EQ(PureAtom::ne(X, Y), PureAtom::ne(Y, X));
  EXPECT_FALSE(PureAtom::eq(X, Y) == PureAtom::ne(X, Y));
}

TEST_F(FormulaTest, HeapAtomBasics) {
  HeapAtom N = HeapAtom::next(X, Y);
  HeapAtom L = HeapAtom::lseg(X, Y);
  EXPECT_TRUE(N.isNext());
  EXPECT_FALSE(N.isLseg());
  EXPECT_TRUE(L.isLseg());
  EXPECT_FALSE(N == L);
  EXPECT_FALSE(HeapAtom::next(X, X).isTrivialLseg());
  EXPECT_TRUE(HeapAtom::lseg(X, X).isTrivialLseg());
  EXPECT_FALSE(HeapAtom::lseg(X, Y).isTrivialLseg());
}

TEST_F(FormulaTest, Rendering) {
  EXPECT_EQ(str(Terms, PureAtom::eq(X, Y)), "x = y");
  EXPECT_EQ(str(Terms, PureAtom::ne(X, Nil)), "x != nil");
  EXPECT_EQ(str(Terms, HeapAtom::next(X, Y)), "next(x, y)");
  EXPECT_EQ(str(Terms, HeapAtom::lseg(X, Nil)), "lseg(x, nil)");
  EXPECT_EQ(str(Terms, SpatialFormula{}), "emp");
  EXPECT_EQ(str(Terms, SpatialFormula{HeapAtom::next(X, Y),
                                      HeapAtom::lseg(Y, Nil)}),
            "next(x, y) * lseg(y, nil)");
}

TEST_F(FormulaTest, AssertionRendering) {
  Assertion A;
  A.Pure.push_back(PureAtom::ne(X, Y));
  A.Spatial.push_back(HeapAtom::next(X, Y));
  EXPECT_EQ(str(Terms, A), "x != y & next(x, y)");
  Assertion Emp;
  EXPECT_EQ(str(Terms, Emp), "emp");
}

TEST_F(FormulaTest, EntailmentRendering) {
  Entailment E;
  E.Lhs.Spatial.push_back(HeapAtom::next(X, Y));
  E.Rhs.Spatial.push_back(HeapAtom::lseg(X, Y));
  EXPECT_EQ(str(Terms, E), "next(x, y) |- lseg(x, y)");
}

TEST_F(FormulaTest, CollectTermsDeduplicates) {
  Entailment E;
  E.Lhs.Pure.push_back(PureAtom::ne(X, Y));
  E.Lhs.Spatial.push_back(HeapAtom::next(X, Y));
  E.Rhs.Spatial.push_back(HeapAtom::lseg(X, Nil));
  std::vector<Symbol> Out;
  E.collectTerms(Out);
  EXPECT_EQ(Out.size(), 3u); // x, y, nil.
}
