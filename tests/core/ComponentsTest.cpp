//===- tests/core/ComponentsTest.cpp --------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the individual core components: the model adapter
/// (Definition 3.1 / 4.1), normalization (N rules, Lemma 4.2),
/// well-formedness consequences (W rules), and the unfolding walk
/// (U rules + SR, Lemma 4.4) — each exercised in isolation.
///
//===----------------------------------------------------------------------===//

#include "core/ModelAdapter.h"
#include "core/Normalization.h"
#include "core/Unfolding.h"
#include "core/WellFormedness.h"
#include "superposition/Saturation.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

class ComponentsTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  Symbol T(const char *N) { return Terms.constant(N); }
};

} // namespace

//===----------------------------------------------------------------------===//
// ModelAdapter
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, InducedStackSeparatesClasses) {
  GroundRewriteSystem R;
  R.addRule(T("b"), T("a"), 0); // b ~ a.
  std::vector<Symbol> Cs{Terms.nil(), T("a"), T("b"), T("c")};
  sl::Stack S = inducedStack(R, Cs);
  EXPECT_EQ(S.eval(T("a")), S.eval(T("b")));
  EXPECT_NE(S.eval(T("a")), S.eval(T("c")));
  EXPECT_NE(S.eval(T("a")), sl::NilLoc);
  EXPECT_EQ(S.eval(Terms.nil()), sl::NilLoc);
}

TEST_F(ComponentsTest, InducedStackSendsNilClassToNil) {
  GroundRewriteSystem R;
  R.addRule(T("a"), Terms.nil(), 0);
  std::vector<Symbol> Cs{Terms.nil(), T("a"), T("b")};
  sl::Stack S = inducedStack(R, Cs);
  EXPECT_EQ(S.eval(T("a")), sl::NilLoc);
  EXPECT_NE(S.eval(T("b")), sl::NilLoc);
}

TEST_F(ComponentsTest, GraphHeapOneEdgePerAtom) {
  GroundRewriteSystem R;
  std::vector<Symbol> Cs{Terms.nil(), T("x"), T("y"), T("z")};
  sl::Stack S = inducedStack(R, Cs);
  sl::SpatialFormula Sigma{sl::HeapAtom::lseg(T("x"), T("y")),
                           sl::HeapAtom::next(T("y"), T("z"))};
  sl::Heap H = graphHeap(S, Sigma);
  EXPECT_EQ(H.size(), 2u);
  EXPECT_EQ(H.get(S.eval(T("x"))), S.eval(T("y")));
  EXPECT_EQ(H.get(S.eval(T("y"))), S.eval(T("z")));
  // The graph heap satisfies Σ (Lemma 4.1(3)).
  EXPECT_TRUE(sl::satisfies(S, H, Sigma));
}

//===----------------------------------------------------------------------===//
// Normalization (N rules)
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, NormalizationRewritesAndDropsTrivial) {
  // Saturate { [] -> b ' a } so the model has an edge with a
  // generating clause, then normalize lseg(a, b) * next(b, c).
  // Intern in a fixed order so the precedence (and thus the rewrite
  // direction b => a) is deterministic.
  Symbol A = T("a");
  Symbol B = T("b");
  (void)A;
  (void)B;
  sup::Saturation Sat(Terms);
  Sat.addInput({}, {sup::Equation(T("a"), T("b"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  ASSERT_EQ(R.size(), 1u);

  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("a"), T("b")),
             sl::HeapAtom::next(T("b"), T("c"))};
  PosSpatialClause N = normalize(Sat, R, C);
  // lseg(a, b) became trivial and vanished; b rewrote to a.
  ASSERT_EQ(N.Sigma.size(), 1u);
  EXPECT_TRUE(N.Sigma[0].isNext());
  EXPECT_EQ(N.Sigma[0].Addr, T("a"));
  EXPECT_EQ(N.Sigma[0].Val, T("c"));
  // The generating clause was a unit, so no residue accumulates.
  EXPECT_TRUE(N.Neg.empty());
  EXPECT_TRUE(N.Pos.empty());
}

TEST_F(ComponentsTest, NormalizationAccumulatesResidue) {
  // [] -> a'b, a'c: whichever disjunct generates the edge leaves the
  // other as residue in the normalized clause (rule N1's ∆').
  Symbol A0 = T("a");
  Symbol B0 = T("b");
  Symbol C0 = T("c");
  (void)A0;
  (void)B0;
  (void)C0;
  sup::Saturation Sat(Terms);
  Sat.addInput({}, {sup::Equation(T("a"), T("b")),
                    sup::Equation(T("a"), T("c"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();
  ASSERT_EQ(R.size(), 1u);

  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("a"), T("b")),
             sl::HeapAtom::lseg(T("a"), T("c"))};
  PosSpatialClause N = normalize(Sat, R, C);
  ASSERT_EQ(N.Sigma.size(), 1u); // One lseg became trivial.
  ASSERT_EQ(N.Pos.size(), 1u);   // The other disjunct is the residue.
  EXPECT_TRUE(N.Neg.empty());
}

TEST_F(ComponentsTest, NormalizationOfNegativeClause) {
  Symbol A = T("a");
  Symbol B = T("b");
  (void)A;
  (void)B;
  sup::Saturation Sat(Terms);
  Sat.addInput({}, {sup::Equation(T("a"), T("b"))});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), sup::SatResult::Saturated);
  GroundRewriteSystem R = Sat.genModel();

  NegSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(T("b"), T("c"))};
  NegSpatialClause N = normalize(Sat, R, C);
  ASSERT_EQ(N.Sigma.size(), 1u);
  EXPECT_EQ(N.Sigma[0].Addr, T("a"));
}

//===----------------------------------------------------------------------===//
// Well-formedness (W rules)
//===----------------------------------------------------------------------===//

TEST_F(ComponentsTest, W1NextAtNil) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(Terms.nil(), T("y"))};
  auto Out = wellFormednessConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(Out[0].Neg.empty());
  EXPECT_TRUE(Out[0].Pos.empty()); // The empty clause: Σ unsatisfiable.
  EXPECT_EQ(Out[0].Rule, InputRule::W1);
}

TEST_F(ComponentsTest, W2LsegAtNil) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(Terms.nil(), T("y"))};
  auto Out = wellFormednessConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  ASSERT_EQ(Out[0].Pos.size(), 1u); // y ' nil.
  EXPECT_TRUE(Out[0].Pos[0].mentions(T("y")));
  EXPECT_EQ(Out[0].Rule, InputRule::W2);
}

TEST_F(ComponentsTest, W3W4W5SharedAddresses) {
  Symbol X = T("x"), Y = T("y"), Z = T("z");
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::next(X, Z)};
    auto Out = wellFormednessConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_TRUE(Out[0].Pos.empty()); // W3: contradiction.
    EXPECT_EQ(Out[0].Rule, InputRule::W3);
  }
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::lseg(X, Z)};
    auto Out = wellFormednessConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    ASSERT_EQ(Out[0].Pos.size(), 1u); // W4: x ' z.
    EXPECT_EQ(Out[0].Pos[0], sup::Equation(X, Z));
    EXPECT_EQ(Out[0].Rule, InputRule::W4);
  }
  {
    PosSpatialClause C;
    C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(X, Z)};
    auto Out = wellFormednessConsequences(C);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out[0].Pos.size(), 2u); // W5: x ' y, x ' z.
    EXPECT_EQ(Out[0].Rule, InputRule::W5);
  }
}

TEST_F(ComponentsTest, WRulesCarryClausePureParts) {
  PosSpatialClause C;
  C.Neg = {sup::Equation(T("p"), T("q"))};
  C.Pos = {sup::Equation(T("r"), T("s"))};
  C.Sigma = {sl::HeapAtom::next(T("x"), T("y")),
             sl::HeapAtom::next(T("x"), T("z"))};
  auto Out = wellFormednessConsequences(C);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Neg, C.Neg);
  EXPECT_EQ(Out[0].Pos, C.Pos);
}

TEST_F(ComponentsTest, WellFormedCleanSigmaNoConsequences) {
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(T("x"), T("y")),
             sl::HeapAtom::lseg(T("y"), T("z"))};
  EXPECT_TRUE(wellFormednessConsequences(C).empty());
  EXPECT_TRUE(isWellFormed(C.Sigma));
  C.Sigma.push_back(sl::HeapAtom::next(T("x"), T("w")));
  EXPECT_FALSE(isWellFormed(C.Sigma));
}

//===----------------------------------------------------------------------===//
// Unfolding walk (U rules + SR)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a stack binding each distinct constant to a distinct loc.
sl::Stack totalStack(std::initializer_list<Symbol> Vars) {
  sl::Stack S;
  sl::Loc L = 1;
  for (Symbol V : Vars)
    S.bind(V, L++);
  return S;
}

} // namespace

TEST_F(ComponentsTest, UnfoldExactMatchDerivesEmptyResidue) {
  Symbol X = T("x"), Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Neg.empty());
  EXPECT_TRUE(R.Derived.Pos.empty()); // SR alone: the empty clause.
  EXPECT_EQ(R.Derived.Rule, InputRule::SR);
}

TEST_F(ComponentsTest, UnfoldU1EmitsSideLiteral) {
  Symbol X = T("x"), Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Y)};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  ASSERT_EQ(R.Derived.Pos.size(), 1u);
  EXPECT_EQ(R.Derived.Pos[0], sup::Equation(X, Y)); // "or x ' y".
}

TEST_F(ComponentsTest, UnfoldU3NilTailNoSideLiteral) {
  Symbol X = T("x"), Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Terms.nil())};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Terms.nil())};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Pos.empty()); // U3 is unconditional.
}

TEST_F(ComponentsTest, UnfoldU5EmitsGuardLiteral) {
  Symbol X = T("x"), Y = T("y"), Z = T("z"), W = T("w");
  sl::Stack S = totalStack({X, Y, Z, W});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Z),
             sl::HeapAtom::lseg(Z, W)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Z), sl::HeapAtom::lseg(Z, W)};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  ASSERT_EQ(R.Derived.Pos.size(), 1u);
  EXPECT_EQ(R.Derived.Pos[0], sup::Equation(Z, W)); // "or z ' w".
}

TEST_F(ComponentsTest, UnfoldMismatchYieldsGraphCex) {
  Symbol X = T("x"), Y = T("y"), Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Z)}; // Wrong target.
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  // The countermodel is the graph heap itself and refutes Σ -> Σ'.
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldNextVsLsegStretches) {
  Symbol X = T("x"), Y = T("y");
  sl::Stack S = totalStack({X, Y});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_EQ(R.Cex.size(), 2u); // The stretched two-cell segment.
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldDanglingEndpointReroutes) {
  Symbol X = T("x"), Y = T("y"), Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::lseg(X, Y), sl::HeapAtom::lseg(Y, Z)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::lseg(X, Z)};
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_TRUE(sl::satisfies(S, R.Cex, C.Sigma));
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}

TEST_F(ComponentsTest, UnfoldEmpBothSides) {
  sl::Stack S = totalStack({});
  PosSpatialClause C;
  NegSpatialClause CP;
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::Derived);
  EXPECT_TRUE(R.Derived.Pos.empty());
}

TEST_F(ComponentsTest, UnfoldLeftoverAtomsYieldCex) {
  Symbol X = T("x"), Y = T("y"), Z = T("z");
  sl::Stack S = totalStack({X, Y, Z});
  PosSpatialClause C;
  C.Sigma = {sl::HeapAtom::next(X, Y), sl::HeapAtom::next(Z, Y)};
  NegSpatialClause CP;
  CP.Sigma = {sl::HeapAtom::next(X, Y)}; // Σ' misses the z cell.
  UnfoldResult R = unfold(S, C, CP);
  ASSERT_EQ(R.K, UnfoldResult::Kind::CounterModel);
  EXPECT_FALSE(sl::satisfies(S, R.Cex, CP.Sigma));
}
