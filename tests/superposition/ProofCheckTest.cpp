//===- tests/superposition/ProofCheckTest.cpp -----------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "gen/RandomEntailments.h"
#include "superposition/ProofCheck.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sup;

namespace {

class ProofCheckTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  Symbol T(const char *N) { return Terms.constant(N); }
};

} // namespace

TEST_F(ProofCheckTest, EntailsGroundBasics) {
  Clause AB({}, {Equation(T("a"), T("b"))});
  Clause BC({}, {Equation(T("b"), T("c"))});
  Clause AC({}, {Equation(T("a"), T("c"))});
  Clause AD({}, {Equation(T("a"), T("d"))});
  // Transitivity is a semantic consequence; a = d is not.
  EXPECT_TRUE(entailsGround({AB, BC}, AC));
  EXPECT_FALSE(entailsGround({AB, BC}, AD));
  // Weakening: any clause follows from itself plus junk.
  EXPECT_TRUE(entailsGround({AB}, AB));
  Clause Weaker({}, {Equation(T("a"), T("b")), Equation(T("c"), T("d"))});
  EXPECT_TRUE(entailsGround({AB}, Weaker));
}

TEST_F(ProofCheckTest, EntailsGroundEmptyClause) {
  Clause AB({}, {Equation(T("a"), T("b"))});
  Clause NotAB({Equation(T("a"), T("b"))}, {});
  Clause Empty({}, {});
  EXPECT_TRUE(entailsGround({AB, NotAB}, Empty));
  EXPECT_FALSE(entailsGround({AB}, Empty));
}

TEST_F(ProofCheckTest, RefutationAudits) {
  Saturation Sat(Terms);
  Sat.addInput({}, {Equation(T("a"), T("b"))});
  Sat.addInput({}, {Equation(T("b"), T("c"))});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), SatResult::Unsatisfiable);
  ProofCheckResult R = checkRefutation(Sat);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.StepsChecked, 0u);
  EXPECT_EQ(R.StepsSkipped, 0u);
}

TEST_F(ProofCheckTest, DisjunctiveRefutationAudits) {
  Saturation Sat(Terms);
  Sat.addInput({}, {Equation(T("a"), T("b")), Equation(T("a"), T("c"))});
  Sat.addInput({Equation(T("a"), T("b"))}, {});
  Sat.addInput({Equation(T("a"), T("c"))}, {});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), SatResult::Unsatisfiable);
  ProofCheckResult R = checkRefutation(Sat);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_F(ProofCheckTest, RandomProverRefutationsAudit) {
  // End-to-end: random valid entailments; every SLP refutation's
  // superposition steps must pass the independent semantic check.
  SplitMix64 Rng(515);
  core::SlpProver Prover(Terms);
  unsigned Audited = 0;
  for (int I = 0; I != 30 && Audited < 8; ++I) {
    sl::Entailment E = gen::distribution1(Terms, Rng, 4, 0.4, 0.5);
    core::ProveResult PR = Prover.prove(E);
    if (PR.V != core::Verdict::Valid)
      continue;
    ProofCheckResult R = checkRefutation(Prover.saturation());
    EXPECT_TRUE(R.Ok) << R.Error << "\n  on: " << sl::str(Terms, E);
    ++Audited;
  }
  EXPECT_GT(Audited, 0u);
}

TEST_F(ProofCheckTest, OversizedStepsAreSkippedNotFailed) {
  Saturation Sat(Terms);
  // A chain over 12 constants: the refutation has steps mentioning
  // more constants than the checker's partition cap.
  for (int I = 1; I != 12; ++I)
    Sat.addInput({}, {Equation(T(("k" + std::to_string(I)).c_str()),
                               T(("k" + std::to_string(I + 1)).c_str()))});
  Sat.addInput({Equation(T("k1"), T("k12"))}, {});
  Fuel F;
  ASSERT_EQ(Sat.saturate(F), SatResult::Unsatisfiable);
  // With a zero cap every non-input step is skipped; the refutation
  // necessarily contains at least one.
  ProofCheckResult R = checkRefutation(Sat, /*MaxConstants=*/0);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.StepsSkipped, 0u);
}
