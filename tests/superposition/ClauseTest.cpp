//===- tests/superposition/ClauseTest.cpp -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Clause.h"
#include "superposition/ClauseOrdering.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sup;

namespace {

class ClauseTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
};

} // namespace

TEST_F(ClauseTest, EquationCanonicalOrientation) {
  Equation E1(A, B);
  Equation E2(B, A);
  EXPECT_EQ(E1, E2);
  EXPECT_EQ(E1.hash(), E2.hash());
  EXPECT_EQ(E1.other(A), B);
  EXPECT_EQ(E1.other(B), A);
  EXPECT_FALSE(E1.trivial());
  EXPECT_TRUE(Equation(A, A).trivial());
}

TEST_F(ClauseTest, NilIsTheSmallerSideWhenInternedLast) {
  // In a fresh table x is interned before nil is ever asked for; nil is
  // still symbol 0, so it sorts first and is the smaller side.
  SymbolTable FreshSymbols;
  TermTable Fresh(FreshSymbols);
  Symbol X = Fresh.constant("x");
  Symbol Nil = Fresh.nil();
  Equation E(X, Nil);
  EXPECT_EQ(E.lhs(), Nil);
  EXPECT_EQ(E.rhs(), X);
  OrientedLiteral L = ClauseOrdering().orient(E, /*Negative=*/true);
  EXPECT_EQ(L.max(), X);
  EXPECT_EQ(L.min(), Nil);
  EXPECT_TRUE(L.negative());
}

TEST_F(ClauseTest, ClauseCanonicalization) {
  Clause C1({Equation(A, B), Equation(B, A), Equation(A, B)},
            {Equation(B, C)});
  EXPECT_EQ(C1.neg().size(), 1u); // Duplicates merged.
  Clause C2({Equation(B, A)}, {Equation(C, B)});
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(C1.fingerprint(), C2.fingerprint());
}

TEST_F(ClauseTest, EmptyClause) {
  Clause E({}, {});
  EXPECT_TRUE(E.empty());
  EXPECT_EQ(E.str(Terms), "[]");
}

TEST_F(ClauseTest, TautologyDetection) {
  EXPECT_TRUE(Clause({}, {Equation(A, A)}).isTautology());
  EXPECT_TRUE(Clause({Equation(A, B)}, {Equation(B, A)}).isTautology());
  EXPECT_FALSE(Clause({Equation(A, A)}, {}).isTautology());
  EXPECT_FALSE(Clause({Equation(A, B)}, {Equation(B, C)}).isTautology());
}

TEST_F(ClauseTest, Subsumption) {
  Clause Small({}, {Equation(A, B)});
  Clause Big({Equation(B, C)}, {Equation(A, B), Equation(A, C)});
  EXPECT_TRUE(Small.subsumes(Big));
  EXPECT_FALSE(Big.subsumes(Small));
  EXPECT_TRUE(Small.subsumes(Small));
}

TEST_F(ClauseTest, LiteralOrderingNegativeAboveSameEquation) {
  ClauseOrdering CO;
  OrientedLiteral Pos = CO.orient(Equation(A, B), /*Negative=*/false);
  OrientedLiteral Neg = CO.orient(Equation(A, B), /*Negative=*/true);
  EXPECT_EQ(CO.compareLiterals(Neg, Pos), Order::Greater);
  EXPECT_EQ(CO.compareLiterals(Pos, Neg), Order::Less);
}

TEST_F(ClauseTest, LiteralOrderingByMaxTerm) {
  ClauseOrdering CO;
  // c > b > a in creation-order precedence.
  OrientedLiteral AB = CO.orient(Equation(A, B), false);
  OrientedLiteral AC = CO.orient(Equation(A, C), false);
  EXPECT_EQ(CO.compareLiterals(AC, AB), Order::Greater);
}

TEST_F(ClauseTest, ClauseOrderingMultisetExtension) {
  ClauseOrdering CO;
  Clause C1({}, {Equation(A, B)});
  Clause C2({}, {Equation(A, C)});
  EXPECT_EQ(CO.compareClauses(C2, C1), Order::Greater);
  EXPECT_EQ(CO.compareClauses(C1, C1), Order::Equal);
  // A proper sub-multiset is smaller.
  Clause C3({}, {Equation(A, B), Equation(A, C)});
  EXPECT_EQ(CO.compareClauses(C1, C3), Order::Less);
  EXPECT_EQ(CO.compareClauses(C3, C2), Order::Greater);
}

TEST_F(ClauseTest, StrictMaximality) {
  ClauseOrdering CO;
  Clause C1({}, {Equation(A, B), Equation(A, C)});
  OrientedLiteral AB = CO.orient(Equation(A, B), false);
  OrientedLiteral AC = CO.orient(Equation(A, C), false);
  EXPECT_FALSE(CO.isMaximal(AB, C1));
  EXPECT_TRUE(CO.isMaximal(AC, C1));
  EXPECT_TRUE(CO.isStrictlyMaximal(AC, C1));
  EXPECT_FALSE(CO.isStrictlyMaximal(AB, C1));
}
