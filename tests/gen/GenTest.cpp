//===- tests/gen/GenTest.cpp -----------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"

#include "core/Prover.h"

#include <gtest/gtest.h>

#include <set>

using namespace slp;
using namespace slp::gen;

namespace {

class GenTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST_F(GenTest, Distribution1Shape) {
  SplitMix64 Rng(5);
  sl::Entailment E = distribution1(Terms, Rng, 10, 0.10, 0.20);
  // Right-hand side is ⊥.
  ASSERT_EQ(E.Rhs.Pure.size(), 1u);
  EXPECT_TRUE(E.Rhs.Pure[0].Negated);
  EXPECT_TRUE(E.Rhs.Pure[0].Lhs.isNil());
  EXPECT_TRUE(E.Rhs.Spatial.empty());
  // Left-hand side has only lsegs and only disequalities.
  for (const sl::HeapAtom &A : E.Lhs.Spatial) {
    EXPECT_TRUE(A.isLseg());
    EXPECT_NE(A.Addr, A.Val);
  }
  for (const sl::PureAtom &A : E.Lhs.Pure)
    EXPECT_TRUE(A.Negated);
}

TEST_F(GenTest, Distribution1Deterministic) {
  SplitMix64 R1(9), R2(9);
  sl::Entailment E1 = distribution1(Terms, R1, 8, 0.2, 0.3);
  sl::Entailment E2 = distribution1(Terms, R2, 8, 0.2, 0.3);
  EXPECT_EQ(sl::str(Terms, E1), sl::str(Terms, E2));
}

TEST_F(GenTest, Distribution1AtomCountsCalibrated) {
  SplitMix64 Rng(123);
  // With P_lseg = 0.1 over 10*9 ordered pairs, expect about 9 atoms.
  double TotalAtoms = 0;
  for (int I = 0; I != 200; ++I)
    TotalAtoms += distribution1(Terms, Rng, 10, 0.1, 0.2).Lhs.Spatial.size();
  EXPECT_NEAR(TotalAtoms / 200, 9.0, 1.5);
}

TEST_F(GenTest, Distribution2IsPermutationGraph) {
  SplitMix64 Rng(77);
  for (int Round = 0; Round != 20; ++Round) {
    sl::Entailment E = distribution2(Terms, Rng, 12, 0.7);
    EXPECT_EQ(E.Lhs.Spatial.size(), 12u);
    std::set<Symbol> Addrs, Vals;
    for (const sl::HeapAtom &A : E.Lhs.Spatial) {
      EXPECT_NE(A.Addr, A.Val) << "π must be fixed-point-free";
      Addrs.insert(A.Addr);
      Vals.insert(A.Val);
    }
    // A permutation: all addresses distinct, all values distinct.
    EXPECT_EQ(Addrs.size(), 12u);
    EXPECT_EQ(Vals.size(), 12u);
    // Folding produces a nonempty right-hand side of lsegs only.
    EXPECT_FALSE(E.Rhs.Spatial.empty());
    EXPECT_LE(E.Rhs.Spatial.size(), 12u);
    for (const sl::HeapAtom &A : E.Rhs.Spatial)
      EXPECT_TRUE(A.isLseg());
  }
}

TEST_F(GenTest, CloningMultipliesAndRenames) {
  SplitMix64 Rng(3);
  sl::Entailment E = distribution2(Terms, Rng, 5, 0.5);
  sl::Entailment C3 = cloneEntailment(Terms, E, 3);
  EXPECT_EQ(C3.Lhs.Spatial.size(), 3 * E.Lhs.Spatial.size());
  EXPECT_EQ(C3.Rhs.Spatial.size(), 3 * E.Rhs.Spatial.size());
  // Copies use disjoint variables.
  std::set<Symbol> Copy0, Copy1;
  size_t N = E.Lhs.Spatial.size();
  for (size_t I = 0; I != N; ++I) {
    Copy0.insert(C3.Lhs.Spatial[I].Addr);
    Copy1.insert(C3.Lhs.Spatial[N + I].Addr);
  }
  for (Symbol T : Copy0)
    EXPECT_EQ(Copy1.count(T), 0u);
}

TEST_F(GenTest, CloningPreservesNil) {
  sl::Entailment E;
  E.Lhs.Spatial.push_back(
      sl::HeapAtom::lseg(Terms.constant("x"), Terms.nil()));
  sl::Entailment C2 = cloneEntailment(Terms, E, 2);
  EXPECT_TRUE(C2.Lhs.Spatial[0].Val.isNil());
  EXPECT_TRUE(C2.Lhs.Spatial[1].Val.isNil());
  EXPECT_NE(C2.Lhs.Spatial[0].Addr, C2.Lhs.Spatial[1].Addr);
}

TEST_F(GenTest, CloningPreservesVerdicts) {
  // A clone is a conjunction of variable-disjoint copies, so it is
  // valid iff the original is.
  core::SlpProver Prover(Terms);
  SplitMix64 Rng(99);
  for (int I = 0; I != 12; ++I) {
    sl::Entailment E = distribution2(Terms, Rng, 5, 0.6);
    core::ProveResult Orig = Prover.prove(E);
    for (unsigned Copies : {2u, 3u}) {
      sl::Entailment C = cloneEntailment(Terms, E, Copies);
      core::ProveResult Cloned = Prover.prove(C);
      EXPECT_EQ(Orig.V, Cloned.V)
          << "clone x" << Copies << " changed the verdict of "
          << sl::str(Terms, E);
    }
  }
}

TEST_F(GenTest, CloneOfOneIsRenamedOriginal) {
  sl::Entailment E;
  E.Lhs.Spatial.push_back(
      sl::HeapAtom::next(Terms.constant("x"), Terms.constant("y")));
  sl::Entailment C1 = cloneEntailment(Terms, E, 1);
  EXPECT_EQ(C1.Lhs.Spatial.size(), 1u);
}
