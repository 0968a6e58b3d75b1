//===- tests/symexec/CorpusTest.cpp ---------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The whole 18-program corpus must verify: symbolic execution
/// succeeds and every generated VC is valid, checked with SLP (and
/// with the complete baseline for the smaller VCs as a cross-check).
///
//===----------------------------------------------------------------------===//

#include "baselines/BerdineProver.h"
#include "core/Prover.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::symexec;

namespace {

class CorpusTest : public ::testing::TestWithParam<unsigned> {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST(CorpusShape, Has18Programs) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  EXPECT_EQ(corpus(Terms).size(), 18u);
}

TEST_P(CorpusTest, ProgramVerifies) {
  std::vector<Program> All = corpus(Terms);
  ASSERT_LT(GetParam(), All.size());
  const Program &P = All[GetParam()];

  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok()) << *R.Error;
  EXPECT_FALSE(R.VCs.empty());

  core::SlpProver Prover(Terms);
  baselines::BerdineProver Baseline(Terms);
  for (const VC &V : R.VCs) {
    core::ProveResult PR = Prover.prove(V.E);
    EXPECT_EQ(PR.V, core::Verdict::Valid)
        << V.Name << ": " << sl::str(Terms, V.E);

    // Cross-check small VCs against the complete baseline.
    std::vector<Symbol> Vars;
    V.E.collectTerms(Vars);
    if (Vars.size() <= 7) {
      Fuel F(2'000'000);
      baselines::BaselineVerdict BV = Baseline.prove(V.E, F);
      if (BV != baselines::BaselineVerdict::Unknown) {
        EXPECT_EQ(BV, baselines::BaselineVerdict::Valid) << V.Name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CorpusTest,
                         ::testing::Range(0u, 18u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           SymbolTable Symbols;
                           TermTable Terms(Symbols);
                           return corpus(Terms)[Info.param].Name;
                         });
