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

#include <algorithm>
#include <span>
#include <string>
#include <vector>

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
    ASSERT_TRUE(FromView.Neg == FromCopy.Neg && FromView.Pos == FromCopy.Pos)
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

TEST_F(IndexTest, OnePassSignsAndFingerprintsAsTheReferences) {
  SplitMix64 Rng(41);
  for (int I = 0; I != 200; ++I) {
    Clause C = randomClause(Rng);
    uint64_t Fingerprint = 0;
    ClauseSig S = ClauseSig::of(C.neg(), C.pos(), Fingerprint);
    EXPECT_EQ(Fingerprint, clauseFingerprint(C.neg(), C.pos()));
    EXPECT_EQ(Fingerprint, C.fingerprint());
    uint64_t Neg = 0, Pos = 0;
    for (const Equation &E : C.neg())
      Neg |= ClauseSig::equationBit(E);
    for (const Equation &E : C.pos())
      Pos |= ClauseSig::equationBit(E);
    EXPECT_EQ(S.Neg, Neg) << C.str(Terms);
    EXPECT_EQ(S.Pos, Pos) << C.str(Terms);
  }
}

//===----------------------------------------------------------------------===//
// Superposition tautologies
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, PreMergeTautologyTestMatchesMergeThenTest) {
  // Premise pairs as superpose() sees them: From holds FromEq = s ' r
  // positively, Into holds IntoEq = s ' t on the side the rule names,
  // neither is a tautology, and the conclusion adds NewEq = r ' t. The
  // test decided on the premises must equal merging the conclusion as
  // superpose() does and testing it.
  std::vector<Symbol> K;
  for (int I = 0; I != 7; ++I)
    K.push_back(T("k" + std::to_string(I)));
  SplitMix64 Rng(27);
  auto RandomSide = [&](std::vector<Equation> Side) {
    for (uint64_t N = Rng.below(4); N != 0; --N)
      Side.emplace_back(K[Rng.below(K.size())], K[Rng.below(K.size())]);
    return Side;
  };
  auto In = [](std::span<const Equation> Run, const Equation &E) {
    return std::find(Run.begin(), Run.end(), E) != Run.end();
  };
  unsigned Cases[2] = {0, 0}, Tautologies[2] = {0, 0}, TrivialNew = 0,
           NewIsFrom = 0, SkipInBoth = 0;
  std::vector<Equation> Neg, Pos;
  for (int Round = 0; Round != 4000; ++Round) {
    const bool Left = Rng.below(2) == 0;
    const Symbol S = K[Rng.below(K.size())], R = K[Rng.below(K.size())],
                 U = K[Rng.below(K.size())];
    if (R == S || (!Left && U == S))
      continue; // FromEq is nontrivial; Into would be a tautology.
    const Equation FromEq(S, R), IntoEq(S, U), NewEq(R, U);
    std::vector<Equation> IntoNeg, IntoPos;
    (Left ? IntoNeg : IntoPos).push_back(IntoEq);
    // Now and then each skip also sits on its side of the other premise.
    std::vector<Equation> FromNeg, FromPos{FromEq};
    if (Rng.below(4) == 0)
      (Left ? FromNeg : FromPos).push_back(IntoEq);
    if (Rng.below(4) == 0)
      IntoPos.push_back(FromEq);
    Clause F(RandomSide(FromNeg), RandomSide(FromPos));
    Clause G(RandomSide(IntoNeg), RandomSide(IntoPos));
    if (F.isTautology() || G.isTautology())
      continue;
    if (Left) {
      mergeCanonical(Neg, F.neg(), std::nullopt, G.neg(), IntoEq, NewEq);
      mergeCanonical(Pos, F.pos(), FromEq, G.pos(), std::nullopt,
                     std::nullopt);
    } else {
      mergeCanonical(Neg, F.neg(), std::nullopt, G.neg(), std::nullopt,
                     std::nullopt);
      mergeCanonical(Pos, F.pos(), FromEq, G.pos(), IntoEq, NewEq);
    }
    const bool Expected = ClauseView(Neg, Pos, 0).isTautology();
    EXPECT_EQ(superpositionIsTautology(F, ClauseSig::of(F), G,
                                       ClauseSig::of(G), FromEq, IntoEq, NewEq,
                                       Left),
              Expected)
        << (Left ? "sup-left " : "sup-right ") << F.str(Terms) << " into "
        << G.str(Terms) << " on " << Terms.str(S);
    ++Cases[Left];
    Tautologies[Left] += Expected;
    TrivialNew += !Left && NewEq.trivial();
    NewIsFrom += Left && NewEq == FromEq;
    SkipInBoth += Left ? In(F.neg(), IntoEq) || In(G.pos(), FromEq)
                       : In(F.pos(), IntoEq) || In(G.pos(), FromEq);
  }
  for (int Left = 0; Left != 2; ++Left) {
    EXPECT_GT(Tautologies[Left], 100u) << "Left=" << Left;
    EXPECT_GT(Cases[Left] - Tautologies[Left], 100u) << "Left=" << Left;
  }
  EXPECT_GT(TrivialNew, 50u);
  EXPECT_GT(NewIsFrom, 50u);
  EXPECT_GT(SkipInBoth, 100u);
}

//===----------------------------------------------------------------------===//
// LiveSet
//===----------------------------------------------------------------------===//

TEST_F(IndexTest, LiveScansMatchALinearScan) {
  // For every set size up to two blocks and a bit, and the subsumer
  // (forward) or the subsumed clause (backward) at every slot, the
  // blocked scans visit the same clauses in the same order as a plain
  // loop over the slots, so they make the same subsumes() checks
  // (SaturationStats::SubChecks) and reach the same result.
  SplitMix64 Rng(17);
  const Clause Query({Equation(T("c0"), T("c1"))},
                     {Equation(T("c2"), T("c3")), Equation(T("c4"), T("c5"))});
  const ClauseSig QSig = ClauseSig::of(Query);
  const Clause Subsumer({}, {Equation(T("c2"), T("c3"))});
  const Clause Subsumed({Equation(T("c0"), T("c1")), Equation(T("c1"), T("c2"))},
                        {Equation(T("c2"), T("c3")), Equation(T("c4"), T("c5")),
                         Equation(T("c0"), T("c5"))});
  unsigned Checks = 0;
  for (size_t N = 0; N != 18; ++N) {
    for (size_t At = 0; At <= N; ++At) { // At == N: no planted clause.
      for (bool Forward : {true, false}) {
        std::vector<Clause> Cs;
        for (size_t I = 0; I != N; ++I)
          Cs.push_back(I == At ? (Forward ? Subsumer : Subsumed)
                               : randomClause(Rng));
        std::vector<ClauseSig> Sigs;
        LiveSet Live;
        for (uint32_t Id = 0; Id != N; ++Id) {
          Sigs.push_back(ClauseSig::of(Cs[Id]));
          EXPECT_EQ(Live.push(Id, Sigs.back()), Id);
        }
        std::vector<uint32_t> Visits, RefVisits;
        if (Forward) {
          const bool Found =
              Live.findSubsumer(QSig.Neg, QSig.Pos, [&](uint32_t Id) {
                Visits.push_back(Id);
                return Cs[Id].subsumes(Query);
              });
          bool RefFound = false;
          for (uint32_t Id = 0; Id != N && !RefFound; ++Id)
            if (ClauseSig::maySubsume(Sigs[Id].Neg, Sigs[Id].Pos, QSig.Neg,
                                      QSig.Pos)) {
              RefVisits.push_back(Id);
              RefFound = Cs[Id].subsumes(Query);
            }
          EXPECT_EQ(Found, RefFound) << "N=" << N << " At=" << At;
          EXPECT_EQ(Found, At < N || RefFound);
        } else {
          // Delete what the query subsumes, swap-removing as
          // Saturation::deleteClause does.
          Live.forEachSubsumed(QSig.Neg, QSig.Pos, [&](uint32_t Id) {
            Visits.push_back(Id);
            if (!Query.subsumes(Cs[Id]))
              return false;
            size_t Slot = 0;
            while (Live.id(Slot) != Id)
              ++Slot;
            Live.swapRemove(Slot);
            return true;
          });
          std::vector<uint32_t> Ref(N);
          for (uint32_t Id = 0; Id != N; ++Id)
            Ref[Id] = Id;
          for (size_t I = 0; I < Ref.size();) {
            const uint32_t Id = Ref[I];
            if (!ClauseSig::maySubsume(QSig.Neg, QSig.Pos, Sigs[Id].Neg,
                                       Sigs[Id].Pos)) {
              ++I;
              continue;
            }
            RefVisits.push_back(Id);
            if (Query.subsumes(Cs[Id])) {
              Ref[I] = Ref.back();
              Ref.pop_back();
            } else {
              ++I;
            }
          }
          ASSERT_EQ(Live.size(), Ref.size()) << "N=" << N << " At=" << At;
          for (size_t Slot = 0; Slot != Ref.size(); ++Slot)
            EXPECT_EQ(Live.id(Slot), Ref[Slot]) << "N=" << N << " At=" << At;
          if (At < N) {
            EXPECT_LT(Live.size(), N) << "the planted clause survived";
          }
        }
        EXPECT_EQ(Visits, RefVisits)
            << (Forward ? "forward" : "backward") << " N=" << N
            << " At=" << At;
        Checks += Visits.size();
      }
    }
  }
  EXPECT_GT(Checks, 300u) << "too few signature-filter passes drawn";
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
