//===- tests/analysis/PresolveDifferentialTest.cpp ------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Differential tests for the static pre-solver: every definitive
/// analyzer verdict must be bit-identical to the full SLP backend on
/// the regression corpus, the Table 1/2 random distributions, and the
/// symexec verification conditions; the batch engine must produce
/// identical verdicts with the pre-solver on and off; and every Invalid
/// verdict must come from the backend, never from the pre-solver.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"

#include "core/Prover.h"
#include "engine/BatchProver.h"
#include "engine/VcTasks.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "support/Random.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::analysis;

namespace {

/// Asserts that a definitive analyze() verdict on \p E matches the
/// full prover's. Returns the analyzer's verdict.
core::Verdict checkAgainstProver(TermTable &Terms, core::SlpProver &Prover,
                                 const sl::Entailment &E, const char *What) {
  AnalysisResult A = analyze(Terms, E);
  if (!A.definitive())
    return A.V;
  Fuel F;
  core::ProveResult R = Prover.prove(E, F);
  EXPECT_EQ(A.V, R.V) << What << ": " << sl::str(Terms, E)
                      << "\n  presolver: " << reasonName(A.R) << ": "
                      << A.Detail;
  return A.V;
}

/// The regression corpus followed by small dist-1 and dist-2 sweeps,
/// rendered as query lines for the batch engine.
std::vector<std::string> engineCorpus() {
  std::vector<std::string> Queries = test::regressionQueryLines();
  SplitMix64 Rng(0xE2E2u);
  SymbolTable Syms;
  TermTable Terms(Syms);
  for (int I = 0; I != 60; ++I)
    Queries.push_back(
        sl::str(Terms, gen::distribution1(Terms, Rng, 5, 0.3, 0.3)));
  for (int I = 0; I != 40; ++I)
    Queries.push_back(sl::str(Terms, gen::distribution2(Terms, Rng, 5, 0.5)));
  return Queries;
}

} // namespace

TEST(PresolveDifferentialTest, AgreesWithProverOnRegressionCorpus) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  core::SlpProver Prover(Terms);
  size_t Valid = 0, Total = 0;
  for (const std::string &Line : test::regressionQueryLines()) {
    sl::ParseResult P = sl::parseEntailment(Terms, Line);
    ASSERT_TRUE(P.ok()) << Line;
    ++Total;
    Valid += checkAgainstProver(Terms, Prover, *P.Value, "regression") ==
             core::Verdict::Valid;
  }
  ASSERT_GE(Total, 40u);
  // The Valid stages' yield on the corpus is pinned exactly: a change
  // to the closure, the W1-W5 fixpoint or the matcher that decides
  // fewer (or more) of these queries must say so.
  EXPECT_EQ(Valid, 9u);
}

TEST(PresolveDifferentialTest, AgreesWithProverOnDistribution1) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  core::SlpProver Prover(Terms);
  SplitMix64 Rng(0x7AB1Eu);
  for (int I = 0; I != 150; ++I) {
    sl::Entailment E = gen::distribution1(Terms, Rng, 6, 0.3, 0.3);
    checkAgainstProver(Terms, Prover, E, "dist1");
  }
}

TEST(PresolveDifferentialTest, AgreesWithProverOnDistribution2) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  core::SlpProver Prover(Terms);
  SplitMix64 Rng(0x7AB2Eu);
  for (int I = 0; I != 100; ++I) {
    sl::Entailment E = gen::distribution2(Terms, Rng, 6, 0.5);
    checkAgainstProver(Terms, Prover, E, "dist2");
  }
}

TEST(PresolveDifferentialTest, AgreesWithProverOnSymexecVCs) {
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());
  SymbolTable Syms;
  TermTable Terms(Syms);
  core::SlpProver Prover(Terms);
  for (const engine::ProofTask &T : Vcs.Tasks) {
    sl::ParseResult P = sl::parseEntailment(Terms, T.Text);
    ASSERT_TRUE(P.ok()) << T.Name;
    checkAgainstProver(Terms, Prover, *P.Value, T.Name.c_str());
  }
}

TEST(PresolveDifferentialTest, EngineVerdictsIdenticalWithAndWithoutPresolve) {
  std::vector<std::string> Queries = engineCorpus();
  ASSERT_GT(Queries.size(), 100u);

  engine::BatchOptions On;
  On.Presolve = true;
  On.CacheEnabled = false;
  engine::BatchOptions Off = On;
  Off.Presolve = false;
  engine::BatchProver EngineOn(On), EngineOff(Off);
  std::vector<engine::QueryResult> ROn = EngineOn.run(Queries);
  std::vector<engine::QueryResult> ROff = EngineOff.run(Queries);
  ASSERT_EQ(ROn.size(), ROff.size());
  size_t Presolved = 0;
  for (size_t I = 0; I != ROn.size(); ++I) {
    EXPECT_EQ(ROn[I].Status, ROff[I].Status) << Queries[I];
    EXPECT_EQ(ROn[I].V, ROff[I].V) << Queries[I];
    EXPECT_FALSE(ROff[I].Presolved);
    Presolved += ROn[I].Presolved;
  }
  EXPECT_GT(Presolved, 0u);
  EXPECT_EQ(EngineOn.stats().PresolvedValid, Presolved);
  EXPECT_EQ(EngineOff.stats().PresolvedValid, 0u);
}

TEST(PresolveDifferentialTest, PresolvedResultsAreMarkedAndCounted) {
  // A corpus the analyzer fully decides: the prover must never run.
  std::vector<std::string> Queries = {
      "x = y & x != y |- lseg(a, b)",      // pure contradiction
      "next(nil, x) |- true",              // W1
      "next(x, y) |- next(x, y)",          // syntactic match
      "x != y & next(x, y) |- lseg(x, y)", // next-to-lseg weakening
  };
  engine::BatchOptions Opts;
  Opts.CacheEnabled = false;
  engine::BatchProver Engine(Opts);
  std::vector<engine::QueryResult> R = Engine.run(Queries);
  ASSERT_EQ(R.size(), 4u);
  for (size_t I = 0; I != R.size(); ++I) {
    EXPECT_EQ(R[I].V, core::Verdict::Valid) << Queries[I];
    EXPECT_TRUE(R[I].Presolved) << Queries[I];
    EXPECT_EQ(R[I].Backend, "presolve") << Queries[I];
    EXPECT_EQ(R[I].FuelUsed, 0u) << Queries[I];
  }
  EXPECT_EQ(Engine.stats().PresolvedValid, 4u);
  EXPECT_EQ(Engine.stats().CacheMisses, 0u);
}

TEST(PresolveDifferentialTest, InvalidVerdictsComeFromTheBackend) {
  // The pre-solver answers only Valid: every Invalid verdict, with its
  // countermodel, is the SLP backend's.
  std::vector<std::string> Queries = engineCorpus();
  engine::BatchOptions Opts;
  Opts.CacheEnabled = false;
  engine::BatchProver Engine(Opts);
  std::vector<engine::QueryResult> R = Engine.run(Queries);
  ASSERT_EQ(R.size(), Queries.size());
  size_t Invalid = 0, Presolved = 0;
  for (size_t I = 0; I != R.size(); ++I) {
    Presolved += R[I].Presolved;
    if (R[I].V != core::Verdict::Invalid)
      continue;
    ++Invalid;
    EXPECT_FALSE(R[I].Presolved) << Queries[I];
    EXPECT_EQ(R[I].Backend, "slp") << Queries[I];
  }
  EXPECT_GT(Invalid, 0u);
  EXPECT_EQ(Engine.stats().PresolvedValid, Presolved);
}
