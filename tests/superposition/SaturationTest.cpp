//===- tests/superposition/SaturationTest.cpp ---------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Saturation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <string>
#include <vector>

using namespace slp;
using namespace slp::sup;

namespace {

class SaturationTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Saturation Sat{Terms};
  Fuel Unlimited;

  Symbol T(const char *N) { return Terms.constant(N); }
};

} // namespace

TEST_F(SaturationTest, EmptySetIsSaturated) {
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  EXPECT_FALSE(Sat.hasEmptyClause());
}

TEST_F(SaturationTest, DirectContradiction) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
  EXPECT_TRUE(Sat.hasEmptyClause());
}

TEST_F(SaturationTest, TransitivityRefutation) {
  // a=b, b=c, a!=c is unsatisfiable.
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({}, {Equation(T("b"), T("c"))});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, SatisfiableDiseqs) {
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  Sat.addInput({Equation(T("b"), T("c"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
}

TEST_F(SaturationTest, DisjunctionForcesCase) {
  // a=b \/ a=c, a!=b, a!=c is unsatisfiable.
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, DisjunctionSatisfiable) {
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
}

TEST_F(SaturationTest, CongruenceChainRefutation) {
  // x1=x2, x2=x3, ..., x9=x10, x1!=x10.
  for (int I = 1; I != 10; ++I)
    Sat.addInput({}, {Equation(T(("x" + std::to_string(I)).c_str()),
                               T(("x" + std::to_string(I + 1)).c_str()))});
  Sat.addInput({Equation(T("x1"), T("x10"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, TautologyInputIsDropped) {
  auto R = Sat.addInput({}, {Equation(T("a"), T("a"))});
  EXPECT_FALSE(R.New);
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
}

TEST_F(SaturationTest, DuplicateInputNotNew) {
  auto R1 = Sat.addInput({}, {Equation(T("a"), T("b"))});
  auto R2 = Sat.addInput({}, {Equation(T("b"), T("a"))});
  EXPECT_TRUE(R1.New);
  EXPECT_FALSE(R2.New);
  EXPECT_EQ(R1.Id, R2.Id);
}

TEST_F(SaturationTest, SubsumedInputNotNew) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  auto R = Sat.addInput({Equation(T("c"), T("d"))},
                        {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  EXPECT_FALSE(R.New);
}

TEST_F(SaturationTest, NilDiseqFromConstants) {
  // a=nil, b=nil, a!=b is unsatisfiable.
  Sat.addInput({}, {Equation(T("a"), Terms.nil())});
  Sat.addInput({}, {Equation(T("b"), Terms.nil())});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, FuelExhaustionReported) {
  for (int I = 0; I != 20; ++I)
    Sat.addInput({}, {Equation(T(("a" + std::to_string(I)).c_str()),
                               T(("b" + std::to_string(I)).c_str()))});
  Fuel Tiny(3);
  EXPECT_EQ(Sat.saturate(Tiny), SatResult::OutOfFuel);
}

TEST_F(SaturationTest, IncrementalAdditionAfterSaturation) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, EmptyClauseDirectInput) {
  Sat.addInput({}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, ProofRecordsParents) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);
  EXPECT_TRUE(Sat.clause(Sat.emptyClauseId()).empty());
  // The refutation must trace back to inputs through real rules.
  const Justification &J = Sat.justification(Sat.emptyClauseId());
  EXPECT_NE(J.Kind, RuleKind::Input);
  EXPECT_FALSE(J.Parents.empty());
}

TEST_F(SaturationTest, ModelGuidedFindsCertifiedModelEarly) {
  // A wide disjunction whose full saturation closure is large; the
  // model-guided mode must stop after a few steps with a certified
  // model rather than computing the closure.
  std::vector<Equation> Wide;
  for (int I = 0; I != 8; ++I)
    Wide.emplace_back(T(("w" + std::to_string(I)).c_str()), T("target"));
  Sat.addInput({}, Wide);
  for (int I = 0; I != 6; ++I)
    Sat.addInput({Equation(T(("w" + std::to_string(I)).c_str()),
                           T(("w" + std::to_string(I + 1)).c_str()))},
                 {});
  std::optional<GroundRewriteSystem> Model;
  EXPECT_EQ(Sat.saturateModelGuided(Unlimited, Model),
            SatResult::Saturated);
  ASSERT_TRUE(Model.has_value());
  EXPECT_TRUE(Sat.verifyModel(*Model));
}

TEST_F(SaturationTest, ModelGuidedDetectsUnsat) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({}, {Equation(T("b"), T("c"))});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  std::optional<GroundRewriteSystem> Model;
  EXPECT_EQ(Sat.saturateModelGuided(Unlimited, Model),
            SatResult::Unsatisfiable);
  EXPECT_FALSE(Model.has_value());
}

TEST_F(SaturationTest, ModelGuidedEmptySetYieldsEmptyModel) {
  std::optional<GroundRewriteSystem> Model;
  EXPECT_EQ(Sat.saturateModelGuided(Unlimited, Model),
            SatResult::Saturated);
  ASSERT_TRUE(Model.has_value());
  EXPECT_TRUE(Model->empty());
}

TEST_F(SaturationTest, ModelGuidedRespectsFuel) {
  // Enough mutually-contradicting clauses that no early model
  // certifies, with a one-step budget.
  for (int I = 0; I != 10; ++I) {
    Sat.addInput({}, {Equation(T(("p" + std::to_string(I)).c_str()),
                               T(("q" + std::to_string(I)).c_str()))});
    Sat.addInput({Equation(T(("p" + std::to_string(I)).c_str()),
                           T(("q" + std::to_string(I)).c_str()))},
                 {});
  }
  Fuel Tiny(1);
  std::optional<GroundRewriteSystem> Model;
  SatResult R = Sat.saturateModelGuided(Tiny, Model);
  EXPECT_TRUE(R == SatResult::OutOfFuel || R == SatResult::Unsatisfiable);
}

TEST_F(SaturationTest, ModelGuidedCertifiedModelsEdgeResiduals) {
  // Certification must include Lemma 3.1(2): each edge's generating
  // clause residual is falsified by the final model.
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  Sat.addInput({}, {Equation(T("d"), T("e"))});
  std::optional<GroundRewriteSystem> Model;
  ASSERT_EQ(Sat.saturateModelGuided(Unlimited, Model),
            SatResult::Saturated);
  ASSERT_TRUE(Model.has_value());
  for (const RewriteRule &Rule : Model->rules()) {
    ClauseView Gen = Sat.clause(Rule.GeneratingClause);
    Equation Edge(Rule.Lhs, Rule.Rhs);
    for (const Equation &E : Gen.pos()) {
      if (E != Edge) {
        EXPECT_FALSE(Model->equivalent(E.lhs(), E.rhs()));
      }
    }
    for (const Equation &E : Gen.neg())
      EXPECT_TRUE(Model->equivalent(E.lhs(), E.rhs()));
  }
}

TEST_F(SaturationTest, NoSimplificationStillRefutes) {
  Saturation Bare(Terms,
                  SaturationOptions{.Subsumption = false,
                                    .Demodulation = false});
  Bare.addInput({}, {Equation(T("a"), T("b"))});
  Bare.addInput({}, {Equation(T("b"), T("c"))});
  Bare.addInput({Equation(T("a"), T("c"))}, {});
  Fuel F;
  EXPECT_EQ(Bare.saturate(F), SatResult::Unsatisfiable);
}

//===----------------------------------------------------------------------===//
// clear() lifecycle and index compaction
//===----------------------------------------------------------------------===//

TEST_F(SaturationTest, ClearRestoresFreshState) {
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  EXPECT_EQ(Sat.saturate(Unlimited), SatResult::Unsatisfiable);

  Sat.clear();
  EXPECT_EQ(Sat.numClauses(), 0u);
  EXPECT_FALSE(Sat.hasEmptyClause());
  EXPECT_EQ(Sat.stats().Derived, 0u);
  Fuel F;
  EXPECT_EQ(Sat.saturate(F), SatResult::Saturated);
}

TEST_F(SaturationTest, ClearedInstanceMatchesFreshInstance) {
  // Run a satisfiable problem, clear, re-run a different problem, and
  // compare the whole observable state against a never-used engine fed
  // the same inputs.
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  Sat.addInput({Equation(T("x"), T("y"))}, {});
  Fuel F1;
  (void)Sat.saturate(F1);
  Sat.clear();

  Saturation Fresh(Terms);
  auto Feed = [&](Saturation &S) {
    S.addInput({}, {Equation(T("p"), T("q"))});
    S.addInput({}, {Equation(T("q"), T("r")), Equation(T("p"), T("r"))});
    S.addInput({Equation(T("p"), T("r"))}, {});
    Fuel F;
    return S.saturate(F);
  };
  EXPECT_EQ(Feed(Sat), Feed(Fresh));
  ASSERT_EQ(Sat.numClauses(), Fresh.numClauses());
  for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id) {
    EXPECT_TRUE(Sat.clause(Id) == Fresh.clause(Id)) << "clause " << Id;
    EXPECT_EQ(Sat.deleted(Id), Fresh.deleted(Id)) << "clause " << Id;
  }
  EXPECT_EQ(Sat.stats(), Fresh.stats());
}

TEST_F(SaturationTest, CompactionPurgesStaleIndexEntriesAndIsNeutral) {
  // Mass deletion: 100 active disjunctions a=b ∨ a=c_i are all
  // backward-subsumed the moment the unit a=b arrives, leaving 100
  // clauses' worth of lazily-invalidated index entries behind. The
  // next given-clause step must sweep them (stale >> live), and the
  // sweep must not change any outcome. A second engine compacted
  // eagerly at every stage serves as the reference.
  Saturation Eager(Terms);
  auto Feed = [&](Saturation &S, bool CompactEagerly) {
    for (int I = 0; I != 100; ++I)
      S.addInput({}, {Equation(T("a"), T("b")),
                      Equation(T("a"), T(("c" + std::to_string(I)).c_str()))});
    Fuel F1;
    EXPECT_EQ(S.saturate(F1), SatResult::Saturated); // Activate all.
    if (CompactEagerly)
      S.compactIndexes();
    S.addInput({}, {Equation(T("a"), T("b"))}); // Deletes all 100.
    if (CompactEagerly)
      S.compactIndexes();
    // The engine still refutes correctly after the sweep.
    S.addInput({Equation(T("a"), T("b"))}, {});
    Fuel F2;
    return S.saturate(F2);
  };
  SatResult RLazy = Feed(Sat, /*CompactEagerly=*/false);
  SatResult REager = Feed(Eager, /*CompactEagerly=*/true);

  EXPECT_EQ(RLazy, SatResult::Unsatisfiable);
  EXPECT_EQ(REager, SatResult::Unsatisfiable);
  // The default engine hit the compaction threshold on its own and
  // purged the stale entries (one fingerprint plus partner-index
  // entries per deleted clause).
  EXPECT_GT(Sat.stats().Compactions, 0u);
  EXPECT_GE(Sat.stats().StalePurged, 100u);
  // Identical verdict-relevant state despite different sweep timing.
  ASSERT_EQ(Sat.numClauses(), Eager.numClauses());
  for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id) {
    EXPECT_TRUE(Sat.clause(Id) == Eager.clause(Id)) << "clause " << Id;
    EXPECT_EQ(Sat.deleted(Id), Eager.deleted(Id)) << "clause " << Id;
  }
}

// Duplicate detection chains clause ids by fingerprint. Storing more
// clauses than the initial bucket count makes the table double (more
// than once), and every stored clause must still be found; after a
// compaction unlinks the deleted ones, re-adding one of those takes the
// fresh path instead of the still-subsumed one.
TEST_F(SaturationTest, FingerprintChainsSurviveGrowthAndCompaction) {
  const size_t N = 4 * Saturation::InitialFingerprintBuckets + 3;
  // -> g ' c_i, c_i ' d_i: pairwise non-subsuming. The even ones share
  // p ' q instead of g ' c_i, so the unit -> p ' q subsumes exactly
  // those.
  auto Nth = [&](size_t I) -> std::vector<Equation> {
    Symbol C = T(("c" + std::to_string(I)).c_str());
    Symbol D = T(("d" + std::to_string(I)).c_str());
    return {I % 2 ? Equation(T("g"), C) : Equation(T("p"), T("q")),
            Equation(C, D)};
  };
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I != N; ++I) {
    auto R = Sat.addInput({}, Nth(I));
    ASSERT_TRUE(R.New) << I;
    Ids.push_back(R.Id);
  }
  for (size_t I = 0; I != N; ++I) {
    auto R = Sat.addInput({}, Nth(I));
    EXPECT_FALSE(R.New) << I;
    EXPECT_EQ(R.Id, Ids[I]) << I;
  }

  const uint64_t Fwd0 = Sat.stats().SubsumedFwd;
  auto Unit = Sat.addInput({}, {Equation(T("p"), T("q"))});
  ASSERT_TRUE(Unit.New);
  const size_t Subsumed = (N + 1) / 2;
  EXPECT_EQ(Sat.stats().SubsumedBwd, Subsumed);

  // Still linked: the deleted duplicate is found and stays deleted.
  auto Still = Sat.addInput({}, Nth(0));
  EXPECT_FALSE(Still.New);
  EXPECT_EQ(Still.Id, Ids[0]);
  EXPECT_EQ(Sat.stats().SubsumedFwd, Fwd0 + 1);

  // Nothing was activated, so the fingerprint chains hold the only
  // stale entries.
  EXPECT_EQ(Sat.stats().StalePurged, 0u);
  Sat.compactIndexes();
  EXPECT_EQ(Sat.stats().StalePurged, Subsumed);
  const size_t Stored = Sat.numClauses();
  auto Fresh = Sat.addInput({}, Nth(2));
  EXPECT_FALSE(Fresh.New);
  EXPECT_EQ(Fresh.Id, ~0u);
  EXPECT_EQ(Sat.stats().SubsumedFwd, Fwd0 + 2);
  EXPECT_EQ(Sat.numClauses(), Stored);
  // The live ones stay linked through the compaction.
  for (size_t I = 1; I < N; I += 2) {
    auto R = Sat.addInput({}, Nth(I));
    EXPECT_FALSE(R.New) << I;
    EXPECT_EQ(R.Id, Ids[I]) << I;
  }
}

// SaturationStats is the single counter set, so its merge, comparison
// and visitor must cover every field — including one added later. The
// struct is viewed as the flat uint64_t array it is (the static_assert
// beside SaturationCounters pins that layout), so this test needs no
// edit when a counter is added.
TEST(SaturationStatsTest, MergeAndVisitorCoverEveryField) {
  constexpr size_t N = sizeof(SaturationStats) / sizeof(uint64_t);
  using Words = std::array<uint64_t, N>;
  auto Make = [](uint64_t Base) {
    Words W;
    for (size_t I = 0; I != N; ++I)
      W[I] = Base + I;
    return std::bit_cast<SaturationStats>(W);
  };

  SaturationStats A = Make(1);
  A += Make(1000);
  Words Sum = std::bit_cast<Words>(A);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Sum[I], 1001 + 2 * I) << "operator+= skips word " << I;

  // forEach visits every field exactly once, under a distinct name.
  std::set<uint64_t> Seen;
  std::set<std::string> Names;
  Make(1).forEach([&](const char *Name, uint64_t V) {
    EXPECT_EQ(std::string(Name).rfind("sat.", 0), 0u) << Name;
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
    EXPECT_TRUE(Seen.insert(V).second) << "field visited twice: " << Name;
  });
  ASSERT_EQ(Seen.size(), N);
  EXPECT_EQ(*Seen.rbegin(), N); // The values 1..N, each field once.

  // operator== compares every field.
  for (size_t I = 0; I != N; ++I) {
    Words W = std::bit_cast<Words>(Make(1));
    ++W[I];
    EXPECT_FALSE(std::bit_cast<SaturationStats>(W) == Make(1))
        << "operator== ignores word " << I;
  }
  EXPECT_EQ(Make(7), Make(7));
}

TEST_F(SaturationTest, DemodulatorRetiresWithItsClause) {
  // Constants are ordered by creation, so a < b < c < d < e and the
  // larger side of a unit is its rule's left-hand side.
  Symbol A = T("a"), B = T("b"), C = T("c"), D = T("d"), E = T("e");
  // The Demod conclusion whose first parent is \p Id; ~0u if none.
  auto DemodOf = [&](uint32_t Id) {
    for (uint32_t K = 0; K != Sat.numClauses(); ++K) {
      const Justification &J = Sat.justification(K);
      if (J.Kind == RuleKind::Demod && J.Parents.front() == Id)
        return K;
    }
    return ~0u;
  };
  using Parents = std::vector<uint32_t>;

  // U1 = (-> c = b) becomes the rule c => b.
  const uint32_t U1 = Sat.addInput({}, {Equation(C, B)}).Id;
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);

  // Forward: the given clause c != d is rewritten to b != d by U1.
  const uint32_t G = Sat.addInput({Equation(C, D)}, {}).Id;
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  const uint32_t G1 = DemodOf(G);
  ASSERT_NE(G1, ~0u);
  EXPECT_EQ(Sat.justification(G1).Parents, (Parents{G, U1}));
  EXPECT_TRUE(Sat.deleted(G));

  // Backward: U2 = (-> b = a) rewrites the active demodulator U1 to
  // (-> c = a), which deletes U1 and so retires c => b.
  const uint32_t U2 = Sat.addInput({}, {Equation(B, A)}).Id;
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  const uint32_t U1New = DemodOf(U1);
  ASSERT_NE(U1New, ~0u);
  EXPECT_EQ(Sat.justification(U1New).Parents, (Parents{U1, U2}));
  EXPECT_TRUE(Sat.deleted(U1));
  EXPECT_EQ(Sat.justification(DemodOf(G1)).Parents, (Parents{G1, U2}));

  // c now rewrites by U1New's rule alone: c != e becomes a != e in one
  // step, and the deleted U1 is no parent.
  const uint32_t H = Sat.addInput({Equation(C, E)}, {}).Id;
  ASSERT_EQ(Sat.saturate(Unlimited), SatResult::Saturated);
  const uint32_t H1 = DemodOf(H);
  ASSERT_NE(H1, ~0u);
  EXPECT_EQ(Sat.justification(H1).Parents, (Parents{H, U1New}));
  const Equation Expected[] = {Equation(A, E)};
  EXPECT_TRUE(std::ranges::equal(Sat.clause(H1).neg(), Expected));
}
