//===- tests/superposition/IndexTest.cpp ---------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Clause signatures and the subsumption scans they filter: the
/// signature has no false negatives (over standalone and pooled
/// clauses), the demodulator fingerprint, delete/revive handling, the
/// brute-force saturation invariant that no live clause subsumes
/// another, and end-to-end verdict identity with subsumption on and
/// off over the regression corpus and the Table 1-3 distributions.
///
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "superposition/Index.h"
#include "superposition/Saturation.h"
#include "support/Random.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sup;

namespace {

class IndexTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  Symbol T(const std::string &N) { return Terms.constant(N); }

  /// A random clause over a small constant pool: up to three negative
  /// and three positive equations.
  Clause randomClause(SplitMix64 &Rng) {
    auto RandTerm = [&] { return T("c" + std::to_string(Rng.next() % 6)); };
    std::vector<Equation> Neg, Pos;
    for (uint64_t I = 0, N = Rng.next() % 4; I != N; ++I)
      Neg.emplace_back(RandTerm(), RandTerm());
    for (uint64_t I = 0, N = Rng.next() % 4; I != N; ++I)
      Pos.emplace_back(RandTerm(), RandTerm());
    return Clause(std::move(Neg), std::move(Pos));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// ClauseSig
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, SignatureHasNoFalseNegatives) {
  SplitMix64 Rng(11);
  std::vector<Clause> Cs;
  for (int I = 0; I != 120; ++I)
    Cs.push_back(randomClause(Rng));
  unsigned Pairs = 0;
  for (const Clause &A : Cs)
    for (const Clause &B : Cs)
      if (A.subsumes(B)) {
        ++Pairs;
        ClauseSig SA = ClauseSig::of(A), SB = ClauseSig::of(B);
        EXPECT_TRUE(ClauseSig::maySubsume(SA.Neg, SA.Pos, SB.Neg, SB.Pos))
            << A.str(Terms) << " subsumes " << B.str(Terms)
            << " but its signature rejects the pair";
      }
  EXPECT_GT(Pairs, Cs.size()) << "no proper subsumption pairs drawn";
}

TEST_F(IndexTest, SignatureOverPooledClauseViewsHasNoFalseNegatives) {
  // Sign through the saturation engine's flat clause arena (ClauseView
  // spans) rather than standalone Clauses: the view and the
  // materialized copy must agree, and no subsuming pair among the
  // pooled clauses may be rejected. Subsumption is off so that every
  // input, subsumed or not, lands in the pool.
  Saturation Sat(Terms, SaturationOptions{.Subsumption = false});
  SplitMix64 Rng(31);
  for (int I = 0; I != 100; ++I) {
    Clause C = randomClause(Rng);
    Sat.addInput(std::vector<Equation>(C.neg()),
                 std::vector<Equation>(C.pos()));
  }
  std::vector<ClauseSig> Sigs;
  for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id) {
    ClauseView V = Sat.clause(Id);
    ClauseSig FromView = ClauseSig::of(V);
    ClauseSig FromCopy = ClauseSig::of(V.materialize());
    ASSERT_TRUE(FromView.Neg == FromCopy.Neg && FromView.Pos == FromCopy.Pos &&
                FromView.Syms == FromCopy.Syms)
        << "view and materialized signatures diverge for clause " << Id;
    Sigs.push_back(FromView);
  }
  unsigned Pairs = 0;
  for (uint32_t D = 0; D != Sigs.size(); ++D)
    for (uint32_t C = 0; C != Sigs.size(); ++C)
      if (D != C && Sat.clause(D).subsumes(Sat.clause(C))) {
        ++Pairs;
        EXPECT_TRUE(ClauseSig::maySubsume(Sigs[D].Neg, Sigs[D].Pos,
                                          Sigs[C].Neg, Sigs[C].Pos))
            << "pooled clause " << D << " subsumes " << C;
      }
  EXPECT_GT(Pairs, 0u) << "no subsumption pairs among the pooled clauses";
}

TEST_F(IndexTest, ClauseSigSetsOneBitPerEquation) {
  // -> a ' b: one positive equation, no negative ones.
  Symbol A = T("a");
  Symbol B = T("b");
  ClauseSig S = ClauseSig::of(Clause({}, {Equation(A, B)}));
  EXPECT_EQ(S.Neg, 0u);
  EXPECT_EQ(S.Pos, ClauseSig::equationBit(Equation(A, B)));
  EXPECT_EQ(__builtin_popcountll(S.Pos), 1);

  // a ' b, b ' c -> : the bits of both equations, on the negative side.
  Equation E1(A, B), E2(B, T("c"));
  ClauseSig N = ClauseSig::of(Clause({E1, E2}, {}));
  EXPECT_EQ(N.Neg, ClauseSig::equationBit(E1) | ClauseSig::equationBit(E2));
  EXPECT_EQ(N.Pos, 0u);
}

TEST_F(IndexTest, ClauseSigSymbolMaskCoversEveryConstant) {
  // a ' b -> c ' nil: the mask is exactly the four constants' bits.
  Symbol A = T("a");
  Symbol B = T("b");
  Symbol C = T("c");
  ClauseSig S =
      ClauseSig::of(Clause({Equation(A, B)}, {Equation(C, Terms.nil())}));
  uint64_t Expected = 0;
  for (Symbol X : {A, B, C, Terms.nil()})
    Expected |= ClauseSig::symbolBit(X);
  EXPECT_EQ(S.Syms, Expected);
}

//===----------------------------------------------------------------------===//
// DemodIndex
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, DemodIndexTracksRootSymbols) {
  DemodIndex Idx;
  Symbol A = Symbols.constant("a");
  Symbol B = Symbols.constant("b");
  EXPECT_TRUE(Idx.empty());
  EXPECT_FALSE(Idx.mayMatchRoot(A));

  Idx.addLhs(A);
  Idx.addLhs(A);
  EXPECT_TRUE(Idx.mayMatchRoot(A));
  EXPECT_TRUE(Idx.mayRewrite(ClauseSig::symbolBit(A)));

  // Reference counting: the bit survives one of two removals.
  Idx.removeLhs(A);
  EXPECT_TRUE(Idx.mayMatchRoot(A));
  Idx.removeLhs(A);
  EXPECT_FALSE(Idx.mayMatchRoot(A));
  EXPECT_TRUE(Idx.empty());
  EXPECT_FALSE(Idx.mayRewrite(ClauseSig::symbolBit(B)));
}

//===----------------------------------------------------------------------===//
// Saturation integration
//===----------------------------------------------------------------------===//

namespace {

class SatIndexTest : public IndexTest {
protected:
};

} // namespace

TEST_F(SatIndexTest, BackwardSubsumptionDeletesWeakerClauses) {
  Saturation Sat(Terms);
  auto Wide =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  ASSERT_TRUE(Wide.New);
  EXPECT_FALSE(Sat.deleted(Wide.Id));

  // The stronger unit deletes the disjunction the moment it is kept.
  auto Unit = Sat.addInput({}, {Equation(T("a"), T("b"))});
  ASSERT_TRUE(Unit.New);
  EXPECT_TRUE(Sat.deleted(Wide.Id));
  EXPECT_EQ(Sat.stats().SubsumedBwd, 1u);
}

TEST_F(SatIndexTest, RevivedDuplicateRechecksForwardSubsumption) {
  Saturation Sat(Terms);
  auto Wide =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  auto Unit = Sat.addInput({}, {Equation(T("a"), T("b"))});
  ASSERT_TRUE(Wide.New);
  ASSERT_TRUE(Unit.New);
  ASSERT_TRUE(Sat.deleted(Wide.Id)) << "precondition: deleted";

  // Re-adding the deleted duplicate while its subsumer is live must
  // NOT resurrect it.
  uint64_t FwdBefore = Sat.stats().SubsumedFwd;
  auto Again =
      Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  EXPECT_FALSE(Again.New);
  EXPECT_EQ(Again.Id, Wide.Id);
  EXPECT_TRUE(Sat.deleted(Wide.Id));
  EXPECT_EQ(Sat.stats().SubsumedFwd, FwdBefore + 1);

  // And the set still saturates without resurrected redundancy.
  Fuel F;
  EXPECT_EQ(Sat.saturate(F), SatResult::Saturated);
  for (uint32_t Id : Sat.liveClauses())
    EXPECT_NE(Id, Wide.Id);
}

TEST_F(SatIndexTest, IndexedQueriesPruneAgainstScanBaseline) {
  Saturation Sat(Terms);
  // A batch of unrelated units: the signature filter should test far
  // fewer candidates than the scans visit.
  for (int I = 0; I != 40; ++I)
    Sat.addInput({}, {Equation(T("a" + std::to_string(I)),
                               T("b" + std::to_string(I)))});
  Fuel F;
  EXPECT_EQ(Sat.saturate(F), SatResult::Saturated);
  const SaturationStats &S = Sat.stats();
  EXPECT_GT(S.SubQueries, 0u);
  EXPECT_LT(S.SubChecks, S.SubScanBaseline)
      << "signature filter failed to reject any candidates";
}

TEST_F(SatIndexTest, NoLiveClauseSubsumesAnother) {
  // The brute-force oracle for the filtered scans: forward subsumption
  // keeps subsumed clauses out and backward subsumption deletes the
  // clauses a new one subsumes, so no live clause ever subsumes
  // another. A signature false negative or a stale Live entry breaks
  // this. (It holds only while there is no empty clause, which
  // subsumes everything but deletes nothing.)
  unsigned States = 0;
  auto CheckInvariant = [&](const Saturation &Sat, const std::string &Where) {
    if (Sat.hasEmptyClause())
      return;
    ++States;
    std::vector<uint32_t> Live;
    for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id)
      if (!Sat.deleted(Id))
        Live.push_back(Id);
    for (uint32_t D : Live)
      for (uint32_t C : Live)
        if (D != C && Sat.clause(D).subsumes(Sat.clause(C)))
          ADD_FAILURE() << Where << ": live " << Sat.clause(D).str(Terms)
                        << " subsumes live " << Sat.clause(C).str(Terms);
  };
  for (uint64_t Seed = 1; Seed != 21; ++Seed) {
    SplitMix64 Rng(Seed);
    Saturation Sat(Terms);
    for (int I = 0; I != 30 && !Sat.hasEmptyClause(); ++I) {
      Clause C = randomClause(Rng);
      if (C.empty())
        continue;
      Sat.addInput(std::vector<Equation>(C.neg()),
                   std::vector<Equation>(C.pos()));
      CheckInvariant(Sat, "seed " + std::to_string(Seed) + " input " +
                              std::to_string(I));
      if (I % 10 == 9) {
        Fuel F(200);
        Sat.saturate(F);
        CheckInvariant(Sat, "seed " + std::to_string(Seed) +
                                " saturate after input " + std::to_string(I));
      }
    }
    Fuel F;
    Sat.saturate(F);
    CheckInvariant(Sat, "seed " + std::to_string(Seed) + " final saturate");
  }
  EXPECT_GT(States, 200u) << "too few consistent states checked";
}

//===----------------------------------------------------------------------===//
// End-to-end verdict identity (subsumption on vs. off)
//===----------------------------------------------------------------------===//

namespace {

/// Proves \p E with and without subsumption and checks the verdicts
/// match: deleting subsumed clauses must never change an answer.
/// Returns the (shared) verdict.
core::Verdict proveBothWays(TermTable &Terms, const sl::Entailment &E,
                            const std::string &Label) {
  core::ProverOptions With;
  core::ProverOptions Without;
  Without.Sat.Subsumption = false;
  core::SlpProver PW(Terms, With);
  core::SlpProver PO(Terms, Without);
  core::ProveResult RW = PW.prove(E);
  core::ProveResult RO = PO.prove(E);
  EXPECT_EQ(RW.V, RO.V) << "verdict diverges on " << Label;
  return RW.V;
}

} // namespace

TEST_F(IndexTest, RegressionCorpusVerdictsIdentical) {
  std::vector<std::string> Corpus = test::regressionQueryLines();
  ASSERT_GE(Corpus.size(), 40u) << "regression corpus not found";
  for (const std::string &Line : Corpus) {
    sl::ParseResult P = sl::parseEntailment(Terms, Line);
    ASSERT_TRUE(P.ok()) << Line;
    proveBothWays(Terms, *P.Value, Line);
  }
}

TEST_F(IndexTest, Table1DistributionVerdictsIdentical) {
  // Ten variables: without subsumption the Table 1 refutations blow up
  // from about twelve on.
  SplitMix64 Rng(1);
  for (int I = 0; I != 40; ++I) {
    sl::Entailment E = gen::distribution1(Terms, Rng, 10, 0.09, 0.11);
    proveBothWays(Terms, E, "table1 #" + std::to_string(I));
  }
}

TEST_F(IndexTest, Table2DistributionVerdictsIdentical) {
  SplitMix64 Rng(2);
  for (int I = 0; I != 25; ++I) {
    sl::Entailment E = gen::distribution2(Terms, Rng, 10, 0.7);
    proveBothWays(Terms, E, "table2 #" + std::to_string(I));
  }
}

TEST_F(IndexTest, Table3VcCorpusVerdictsIdentical) {
  unsigned Checked = 0;
  for (const symexec::Program &P : symexec::corpus(Terms)) {
    symexec::VcGenResult R = symexec::generateVCs(Terms, P);
    ASSERT_TRUE(R.ok());
    for (symexec::VC &V : R.VCs) {
      // Clone once, as the Table 3 harness does, to widen the clauses.
      sl::Entailment E = gen::cloneEntailment(Terms, V.E, 2);
      EXPECT_EQ(proveBothWays(Terms, E, P.Name), core::Verdict::Valid);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}
