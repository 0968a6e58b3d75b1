//===- tests/core/ProverBasicTest.cpp -------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Hand-written entailments with known verdicts, covering the pure
/// fragment, the W rules, the U rules, emp/nil edge cases, and
/// countermodel production. Every Invalid verdict's countermodel is
/// machine-checked against the executable semantics.
///
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

class ProverBasicTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  SlpProver Prover{Terms};

  void expectValid(const char *Input) {
    sl::ParseResult P = sl::parseEntailment(Terms, Input);
    ASSERT_TRUE(P.ok()) << Input;
    ProveResult R = Prover.prove(*P.Value);
    EXPECT_EQ(R.V, Verdict::Valid) << Input;
  }

  void expectInvalid(const char *Input) {
    sl::ParseResult P = sl::parseEntailment(Terms, Input);
    ASSERT_TRUE(P.ok()) << Input;
    ProveResult R = Prover.prove(*P.Value);
    ASSERT_EQ(R.V, Verdict::Invalid) << Input;
    ASSERT_TRUE(R.Cex.has_value()) << Input;
    EXPECT_TRUE(sl::isCounterexample(R.Cex->S, R.Cex->H, *P.Value))
        << Input << "\n  claimed countermodel: "
        << sl::str(Terms, R.Cex->S, R.Cex->H);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Pure fragment
//===----------------------------------------------------------------------===//

TEST_F(ProverBasicTest, PureReflexivity) {
  expectValid("emp |- x = x & emp");
  expectValid("true |- emp");
}

TEST_F(ProverBasicTest, PureTransitivity) {
  expectValid("x = y & y = z & emp |- x = z & emp");
  expectInvalid("x = y & emp |- x = z & emp");
}

TEST_F(ProverBasicTest, PureSymmetry) {
  expectValid("x = y & emp |- y = x & emp");
}

TEST_F(ProverBasicTest, PureContradictionOnLhs) {
  expectValid("x != x & emp |- false");
  expectValid("x = y & x != y & emp |- false");
  expectValid("x = y & y = z & x != z & emp |- false");
}

TEST_F(ProverBasicTest, PureDiseqPropagation) {
  expectValid("x = y & y != z & emp |- x != z & emp");
  expectInvalid("x != y & y != z & emp |- x != z & emp");
}

TEST_F(ProverBasicTest, SatisfiableLhsNotFalse) {
  expectInvalid("x != y & emp |- false");
  expectInvalid("emp |- false");
}

//===----------------------------------------------------------------------===//
// Well-formedness (W rules)
//===----------------------------------------------------------------------===//

TEST_F(ProverBasicTest, NilAddressContradictions) {
  expectValid("next(nil, x) |- false");                 // W1
  expectValid("x = nil & next(x, y) |- false");         // W1 via N
  expectValid("y != nil & lseg(nil, y) |- false");      // W2
  expectInvalid("lseg(nil, y) |- false");               // y=nil model.
}

TEST_F(ProverBasicTest, SharedAddressContradictions) {
  expectValid("next(x, y) * next(x, z) |- false");      // W3
  expectValid("x != z & x != y & lseg(x, y) * lseg(x, z) |- false"); // W5
  expectValid("x != z & next(x, y) * lseg(x, z) |- false");          // W4
  expectInvalid("next(x, y) * lseg(x, z) |- false");    // lseg empty.
}

TEST_F(ProverBasicTest, AliasedAddressesViaEqualities) {
  expectValid("x = y & next(x, a) * next(y, b) |- false");
  expectInvalid("next(x, a) * next(y, b) |- false");
}

TEST_F(ProverBasicTest, SeparationImpliesDisequality) {
  expectValid("next(x, a) * next(y, b) |- x != y & next(x, a) * next(y, b)");
  expectValid("next(x, a) |- x != nil & next(x, a)");
}

//===----------------------------------------------------------------------===//
// Spatial matching and unfolding (U rules)
//===----------------------------------------------------------------------===//

TEST_F(ProverBasicTest, ReflexiveSpatial) {
  expectValid("next(x, y) |- next(x, y)");
  expectValid("lseg(x, y) |- lseg(x, y)");
  expectValid("emp |- emp");
  expectValid("emp |- lseg(x, x)");
  expectValid("x = y & emp |- lseg(x, y)");
}

TEST_F(ProverBasicTest, NextEntailsLsegOnlyWithGuard) {
  expectValid("x != y & next(x, y) |- lseg(x, y)"); // U1
  // Without the guard the entailment fails: with x = y the left-hand
  // side is a one-cell self-loop, but lseg(x,x) demands emp.
  expectInvalid("next(x, y) |- lseg(x, y)");
}

TEST_F(ProverBasicTest, LsegDoesNotEntailNext) {
  expectInvalid("lseg(x, y) |- next(x, y)");
  expectInvalid("x != y & lseg(x, y) |- next(x, y)");
}

TEST_F(ProverBasicTest, TwoCellsFoldIntoLseg) {
  expectValid("next(x, y) * next(y, nil) |- lseg(x, nil)");
  expectValid("x != z & next(x, y) * next(y, z) * next(z, nil) "
              "|- lseg(x, z) * next(z, nil)");
}

TEST_F(ProverBasicTest, GuardedCompositions) {
  expectValid("lseg(x, y) * lseg(y, nil) |- lseg(x, nil)");           // U3
  expectValid("lseg(x, y) * lseg(y, z) * next(z, w) "
              "|- lseg(x, z) * next(z, w)");                           // U4
  expectValid("z != w & lseg(x, y) * lseg(y, z) * lseg(z, w) "
              "|- lseg(x, z) * lseg(z, w)");                           // U5
}

TEST_F(ProverBasicTest, UnguardedCompositionInvalid) {
  expectInvalid("lseg(x, y) * lseg(y, z) |- lseg(x, z)");
  // U5 without the z != w guard: lseg(z, w) may be empty.
  expectInvalid("lseg(x, y) * lseg(y, z) * lseg(z, w) "
                "|- lseg(x, z) * lseg(z, w)");
}

TEST_F(ProverBasicTest, MixedChains) {
  expectValid("next(x, y) * lseg(y, nil) |- lseg(x, nil)");
  expectValid("lseg(x, y) * next(y, nil) |- lseg(x, nil)");
  expectValid("lseg(a, b) * next(b, c) * lseg(c, nil) |- lseg(a, nil)");
}

TEST_F(ProverBasicTest, FrameMismatch) {
  expectInvalid("next(x, y) |- next(x, y) * next(y, x)");
  expectInvalid("next(x, y) * next(y, x) |- next(x, y)");
  expectInvalid("next(x, y) |- emp");
  expectInvalid("emp |- next(x, y)");
}

TEST_F(ProverBasicTest, SelfLoops) {
  expectValid("next(x, x) |- next(x, x)");
  expectInvalid("next(x, x) |- lseg(x, x)"); // lseg(x,x) is emp.
  expectInvalid("next(x, x) |- emp");
  expectValid("x = y & next(x, y) |- next(y, x)");
}

TEST_F(ProverBasicTest, RhsPureFailure) {
  expectInvalid("next(x, y) |- x = y & next(x, y)");
  expectValid("next(x, x) |- x != nil & next(x, x)");
}

TEST_F(ProverBasicTest, EqualityDrivenMatching) {
  expectValid("x = z & next(x, y) |- next(z, y)");
  expectValid("y = z & lseg(x, y) |- lseg(x, z)");
  expectInvalid("next(x, y) |- next(z, y)");
}

//===----------------------------------------------------------------------===//
// The paper's §2 running example and variations
//===----------------------------------------------------------------------===//

TEST_F(ProverBasicTest, PaperRunningExample) {
  expectValid("c != e & lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
              "|- lseg(b, c) * lseg(c, e)");
}

TEST_F(ProverBasicTest, PaperExampleWithoutGuardInvalid) {
  // Dropping c != e invalidates the entailment (c = e collapses the
  // right-hand side to lseg(b,c) while the left keeps a cell at c).
  expectInvalid("lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
                "|- lseg(b, c) * lseg(c, e)");
}

//===----------------------------------------------------------------------===//
// Fuel handling
//===----------------------------------------------------------------------===//

TEST_F(ProverBasicTest, OutOfFuelReportsUnknown) {
  sl::ParseResult P = sl::parseEntailment(
      Terms, "c != e & lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
             "|- lseg(b, c) * lseg(c, e)");
  ASSERT_TRUE(P.ok());
  Fuel Tiny(1);
  ProveResult R = Prover.prove(*P.Value, Tiny);
  EXPECT_EQ(R.V, Verdict::Unknown);
}

//===----------------------------------------------------------------------===//
// Provenance bookkeeping
//===----------------------------------------------------------------------===//

// The prover keeps one provenance record per stored input clause: a
// duplicate that addInput rejects leaves no record behind, and every
// input clause's external tag names a rendered label.
TEST_F(ProverBasicTest, OneProvenanceRecordPerStoredInput) {
  std::vector<std::string> Queries = test::regressionQueryLines();
  ASSERT_FALSE(Queries.empty()) << "data/regression.slp not found";
  for (const std::string &Q : Queries) {
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    ASSERT_TRUE(P.ok()) << Q;
    Prover.prove(*P.Value);
    const sup::Saturation &Sat = Prover.saturation();
    std::vector<std::string> Labels = Prover.inputLabels();
    size_t Inputs = 0;
    for (uint32_t Id = 0; Id != Sat.numClauses(); ++Id) {
      const sup::Justification &J = Sat.justification(Id);
      if (J.Kind != sup::RuleKind::Input)
        continue;
      ++Inputs;
      ASSERT_LT(J.ExternalTag, Labels.size()) << Q;
      EXPECT_FALSE(Labels[J.ExternalTag].empty()) << Q;
    }
    EXPECT_EQ(Labels.size(), Inputs) << Q;
  }
}
