//===- tests/superposition/SoaDifferentialTest.cpp ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential safety net for the struct-of-arrays clause-database
/// layout: verdicts, countermodels, and fuel consumption over the
/// regression corpus, Table 1/2-style random batches, and the symexec
/// VC corpus must be bit-identical to the snapshots taken before the
/// refactor (tests/data/soa_golden.txt). Any layout or ordering change
/// that perturbs a single inference shows up as a one-line diff here.
///
/// Regenerate (only after independently validating the new behavior,
/// e.g. against the IndexTest brute-force oracles and the
/// incremental-vs-scratch differential suite) with
/// SLP_REGEN_SOA_GOLDEN=1.
///
//===----------------------------------------------------------------------===//

#include "core/ProverSession.h"
#include "engine/VcTasks.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"

#include "../TestUtil.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace slp;

namespace {

/// Proves every query of \p Queries in one long-lived session (the
/// engine's lifecycle) and renders one snapshot line per query:
///   <corpus>:<index> <verdict> fuel=<used> cex=<rendered countermodel>
void snapshotCorpus(const std::string &Name,
                    const std::vector<std::string> &Queries,
                    uint64_t FuelPerQuery, std::ostream &OS) {
  core::ProverSession Session;
  for (size_t I = 0; I != Queries.size(); ++I) {
    Session.reset();
    sl::ParseResult P = sl::parseEntailment(Session.terms(), Queries[I]);
    ASSERT_TRUE(P.ok()) << Name << ":" << I << " " << Queries[I];
    Fuel F = FuelPerQuery ? Fuel(FuelPerQuery) : Fuel();
    core::ProveResult R = Session.prove(*P.Value, F);
    OS << Name << ":" << I << " " << core::verdictName(R.V)
       << " fuel=" << R.Stats.FuelUsed << " cex=";
    if (R.Cex)
      OS << sl::str(Session.terms(), R.Cex->S, R.Cex->H);
    OS << "\n";
  }
}

/// Renders \p N generator instances into concrete syntax.
template <typename Gen>
std::vector<std::string> render(unsigned N, uint64_t Seed, Gen &&G) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(Seed);
  std::vector<std::string> Out;
  Out.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(sl::str(Terms, G(Terms, Rng)));
  return Out;
}

} // namespace

TEST(SoaDifferentialTest, MatchesPreRefactorSnapshots) {
  std::ostringstream Snap;

  std::vector<std::string> Regression = test::regressionQueryLines();
  ASSERT_FALSE(Regression.empty()) << "data/regression.slp not found";
  snapshotCorpus("regression", Regression, /*FuelPerQuery=*/0, Snap);

  // Table 1 distribution, including rows heavy enough to time out at
  // this budget — OutOfFuel paths must burn bit-identical fuel too.
  for (unsigned Vars : {10u, 13u})
    snapshotCorpus("dist1-v" + std::to_string(Vars),
                   render(25, 1000 + Vars,
                          [Vars](TermTable &T, SplitMix64 &R) {
                            return gen::distribution1(T, R, Vars, 0.08, 0.15);
                          }),
                   /*FuelPerQuery=*/12000, Snap);

  // Table 2 distribution (deep lseg chains; demodulation heavy).
  for (unsigned Vars : {10u, 12u})
    snapshotCorpus("dist2-v" + std::to_string(Vars),
                   render(20, 2000 + Vars,
                          [Vars](TermTable &T, SplitMix64 &R) {
                            return gen::distribution2(T, R, Vars, 0.7);
                          }),
                   /*FuelPerQuery=*/20000, Snap);

  // Table 3: the 46 symbolic-execution verification conditions.
  engine::VcTaskSet Vcs = engine::symexecVcTasks();
  ASSERT_TRUE(Vcs.ok()) << Vcs.Error.value_or("");
  std::vector<std::string> VcQueries;
  for (const core::ProofTask &T : Vcs.Tasks)
    VcQueries.push_back(T.Text);
  snapshotCorpus("symexec-vc", VcQueries, /*FuelPerQuery=*/0, Snap);

  const std::string Path = test::sourcePath("tests/data/soa_golden.txt");
  if (std::getenv("SLP_REGEN_SOA_GOLDEN")) {
    std::ofstream Out(Path, std::ios::trunc);
    Out << Snap.str();
    GTEST_SKIP() << "regenerated " << Path;
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In) << "cannot open " << Path;
  std::ostringstream Golden;
  Golden << In.rdbuf();
  std::istringstream Got(Snap.str()), Want(Golden.str());
  std::string GotLine, WantLine;
  size_t LineNo = 0;
  while (std::getline(Want, WantLine)) {
    ++LineNo;
    ASSERT_TRUE(static_cast<bool>(std::getline(Got, GotLine)))
        << "snapshot ends early at golden line " << LineNo;
    ASSERT_EQ(GotLine, WantLine) << "first divergence at line " << LineNo;
  }
  ASSERT_FALSE(static_cast<bool>(std::getline(Got, GotLine)))
      << "snapshot has extra lines past the golden file";
}
