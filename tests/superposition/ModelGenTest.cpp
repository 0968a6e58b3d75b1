//===- tests/superposition/ModelGenTest.cpp -----------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Properties of the Gen(S*) model construction (Lemma 3.1 and
/// Theorem 3.1): the produced rewrite system is convergent (one rule
/// per left-hand side, strictly ordering-decreasing), satisfies every
/// clause of a saturated consistent set, and each edge's generating
/// clause has its side literals falsified. Checked on hand-picked sets
/// and on randomly generated clause soups.
///
//===----------------------------------------------------------------------===//

#include "superposition/Saturation.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sup;

namespace {

class ModelGenTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Fuel Unlimited;

  Symbol T(const std::string &N) { return Terms.constant(N); }

  /// Checks the Lemma 3.1 invariants for a generated model.
  void checkModelInvariants(const Saturation &Sat,
                            const GroundRewriteSystem &R) {
    // (1) Every live clause is satisfied (Theorem 3.1).
    EXPECT_TRUE(Sat.verifyModel(R));
    for (const RewriteRule &Rule : R.rules()) {
      // Rules strictly decrease the ordering => convergence.
      EXPECT_TRUE(Rule.Rhs < Rule.Lhs);
      // (2) The generating clause contains the edge positively and its
      // residual clause is falsified by R.
      ASSERT_NE(Rule.GeneratingClause, ~0u);
      ClauseView Gen = Sat.clause(Rule.GeneratingClause);
      Equation Edge(Rule.Lhs, Rule.Rhs);
      bool Found = false;
      for (const Equation &E : Gen.pos())
        Found |= (E == Edge);
      EXPECT_TRUE(Found) << "edge must come from its generating clause";
      for (const Equation &E : Gen.neg())
        EXPECT_TRUE(R.equivalent(E.lhs(), E.rhs()));
      for (const Equation &E : Gen.pos()) {
        if (E != Edge) {
          EXPECT_FALSE(R.equivalent(E.lhs(), E.rhs()));
        }
      }
    }
  }
};

} // namespace

TEST_F(ModelGenTest, EmptySetYieldsEmptyModel) {
  Saturation Sat(Terms);
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  EXPECT_TRUE(R.empty());
}

TEST_F(ModelGenTest, UnitEquationProducesEdge) {
  Saturation Sat(Terms);
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.equivalent(T("a"), T("b")));
  checkModelInvariants(Sat, R);
}

TEST_F(ModelGenTest, DisjunctionProducesOneEdge) {
  Saturation Sat(Terms);
  // The paper's §5 walkthrough: [] -> a'b, a'c produces one edge.
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  EXPECT_EQ(R.size(), 1u);
  bool AB = R.equivalent(T("a"), T("b"));
  bool AC = R.equivalent(T("a"), T("c"));
  EXPECT_TRUE(AB != AC) << "exactly one disjunct should hold";
  checkModelInvariants(Sat, R);
}

TEST_F(ModelGenTest, DiseqConstrainsChoice) {
  Saturation Sat(Terms);
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  EXPECT_TRUE(R.equivalent(T("a"), T("b")));
  EXPECT_FALSE(R.equivalent(T("a"), T("c")));
  checkModelInvariants(Sat, R);
}

TEST_F(ModelGenTest, NilMinimalSoNilClassNormalizesToNil) {
  Saturation Sat(Terms);
  Sat.addInput({}, {Equation(T("a"), Terms.nil())});
  Sat.addInput({}, {Equation(T("b"), T("a"))});
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  EXPECT_EQ(R.normalize(T("a")), Terms.nil());
  EXPECT_EQ(R.normalize(T("b")), Terms.nil());
  checkModelInvariants(Sat, R);
}

TEST_F(ModelGenTest, RandomClauseSoupsModelled) {
  SplitMix64 Rng(31337);
  for (int Round = 0; Round != 60; ++Round) {
    Saturation Sat(Terms);
    unsigned NumVars = 3 + Rng.below(4);
    unsigned NumClauses = 1 + Rng.below(6);
    for (unsigned I = 0; I != NumClauses; ++I) {
      std::vector<Equation> Neg, Pos;
      unsigned Lits = 1 + Rng.below(3);
      for (unsigned L = 0; L != Lits; ++L) {
        Symbol X = T("v" + std::to_string(Rng.below(NumVars)));
        Symbol Y = T("v" + std::to_string(Rng.below(NumVars)));
        if (Rng.chance(0.5))
          Neg.emplace_back(X, Y);
        else
          Pos.emplace_back(X, Y);
      }
      Sat.addInput(std::move(Neg), std::move(Pos));
    }
    SatResult SR = Sat.saturate(Unlimited);
    if (SR != SatResult::Saturated)
      continue; // Unsatisfiable soups have no model to check.
    GroundRewriteSystem R = Sat.genModel();
    checkModelInvariants(Sat, R);
  }
}
