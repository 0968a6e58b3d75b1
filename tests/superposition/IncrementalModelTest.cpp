//===- tests/superposition/IncrementalModelTest.cpp ---------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The incremental model attempts of saturateModelGuided (persistently
/// ordered live set, Gen replay from the change watermark, incremental
/// certification, watermarked normal-form memo) must be *bit-identical*
/// to the from-scratch attempts: same SatResult, same rewrite system R,
/// same generating-clause map g, same fuel consumption — and at the
/// prover level, same verdicts, countermodels, and statistics over the
/// regression corpus and the Table 1–3 distributions. These tests run
/// the two modes in lockstep and compare everything observable,
/// including the attempt-period boundary (attempts landing mid-run
/// under sliced fuel) and post-clear() engine reuse.
///
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "core/ProverSession.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"
#include "superposition/Saturation.h"
#include "support/Random.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sup;

namespace {

/// Asserts that two optional models are the same system: same rule
/// sequence, same generating clauses (the map g).
void expectSameModel(const std::optional<GroundRewriteSystem> &A,
                     const std::optional<GroundRewriteSystem> &B) {
  ASSERT_EQ(A.has_value(), B.has_value());
  if (!A)
    return;
  ASSERT_EQ(A->rules().size(), B->rules().size());
  for (size_t I = 0; I != A->rules().size(); ++I)
    EXPECT_TRUE(A->rules()[I] == B->rules()[I]) << "rule " << I << " differs";
}

/// One random pure clause over v0..v(NumVars-1).
void randomClause(TermTable &Terms, SplitMix64 &Rng, unsigned NumVars,
                  std::vector<Equation> &Neg, std::vector<Equation> &Pos) {
  unsigned Lits = 1 + Rng.below(3);
  for (unsigned L = 0; L != Lits; ++L) {
    Symbol X = Terms.constant("v" + std::to_string(Rng.below(NumVars)));
    Symbol Y = Terms.constant("v" + std::to_string(Rng.below(NumVars)));
    if (Rng.chance(0.5))
      Neg.emplace_back(X, Y);
    else
      Pos.emplace_back(X, Y);
  }
}

} // namespace

// Random clause soups fed in batches, with a model attempt after each
// batch: the incremental engine must track the from-scratch engine
// through insertions, subsumption deletions, and repeated
// saturateModelGuided calls (the prover's inner-loop shape).
TEST(IncrementalModel, LockstepRandomSoups) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(20260729);
  for (int Round = 0; Round != 60; ++Round) {
    SaturationOptions ScratchOpts;
    ScratchOpts.IncrementalModel = false;
    Saturation Inc(Terms);
    Saturation Scratch(Terms, ScratchOpts);
    unsigned NumVars = 3 + Rng.below(5);
    unsigned Batches = 1 + Rng.below(4);
    for (unsigned B = 0; B != Batches; ++B) {
      unsigned NumClauses = 1 + Rng.below(5);
      for (unsigned I = 0; I != NumClauses; ++I) {
        std::vector<Equation> Neg, Pos;
        randomClause(Terms, Rng, NumVars, Neg, Pos);
        Saturation::AddResult AI = Inc.addInput(Neg, Pos);
        Saturation::AddResult AS = Scratch.addInput(Neg, Pos);
        EXPECT_EQ(AI.Id, AS.Id);
        EXPECT_EQ(AI.New, AS.New);
      }
      Fuel FI, FS;
      std::optional<GroundRewriteSystem> MI, MS;
      SatResult RI = Inc.saturateModelGuided(FI, MI);
      SatResult RS = Scratch.saturateModelGuided(FS, MS);
      ASSERT_EQ(RI, RS);
      EXPECT_EQ(FI.used(), FS.used());
      EXPECT_EQ(Inc.numClauses(), Scratch.numClauses());
      if (RI == SatResult::Unsatisfiable)
        break;
      expectSameModel(MI, MS);
      // The certified model satisfies the whole database in both modes.
      EXPECT_TRUE(Inc.verifyModel(*MI));
    }
  }
}

// Attempt-period boundary: sliced fuel forces OutOfFuel returns with
// attempts landing mid-simplification, and the incremental snapshot
// must survive across saturateModelGuided calls and interleaved
// insertions.
TEST(IncrementalModel, LockstepUnderFuelSlices) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(411);
  for (int Round = 0; Round != 25; ++Round) {
    SaturationOptions ScratchOpts;
    ScratchOpts.IncrementalModel = false;
    Saturation Inc(Terms);
    Saturation Scratch(Terms, ScratchOpts);
    unsigned NumVars = 4 + Rng.below(4);
    for (unsigned I = 0, N = 4 + Rng.below(6); I != N; ++I) {
      std::vector<Equation> Neg, Pos;
      randomClause(Terms, Rng, NumVars, Neg, Pos);
      Inc.addInput(Neg, Pos);
      Scratch.addInput(Neg, Pos);
    }
    for (int Slice = 0; Slice != 200; ++Slice) {
      Fuel FI(3), FS(3);
      std::optional<GroundRewriteSystem> MI, MS;
      SatResult RI = Inc.saturateModelGuided(FI, MI);
      SatResult RS = Scratch.saturateModelGuided(FS, MS);
      ASSERT_EQ(RI, RS);
      EXPECT_EQ(FI.used(), FS.used());
      if (RI != SatResult::OutOfFuel) {
        if (RI == SatResult::Saturated)
          expectSameModel(MI, MS);
        break;
      }
      if (Slice % 5 == 0) {
        std::vector<Equation> Neg, Pos;
        randomClause(Terms, Rng, NumVars, Neg, Pos);
        Inc.addInput(Neg, Pos);
        Scratch.addInput(Neg, Pos);
      }
    }
  }
}

// clear() must reset the incremental snapshot: a reused engine decides
// a query stream exactly like a fresh engine per query.
TEST(IncrementalModel, ClearResetsIncrementalState) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(77);
  Saturation Reused(Terms);
  for (int Round = 0; Round != 20; ++Round) {
    Reused.clear();
    Saturation Fresh(Terms);
    unsigned NumVars = 3 + Rng.below(4);
    for (unsigned I = 0, N = 2 + Rng.below(5); I != N; ++I) {
      std::vector<Equation> Neg, Pos;
      randomClause(Terms, Rng, NumVars, Neg, Pos);
      Reused.addInput(Neg, Pos);
      Fresh.addInput(Neg, Pos);
    }
    Fuel FR, FF;
    std::optional<GroundRewriteSystem> MR, MF;
    SatResult RR = Reused.saturateModelGuided(FR, MR);
    SatResult RF = Fresh.saturateModelGuided(FF, MF);
    ASSERT_EQ(RR, RF);
    EXPECT_EQ(FR.used(), FF.used());
    expectSameModel(MR, MF);
  }
}

// The replay and reuse counters actually fire on a workload with
// repeated attempts (they are the point of the optimization), and stay
// zero with the toggle off.
TEST(IncrementalModel, CountersReportAmortization) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(5);
  SaturationOptions ScratchOpts;
  ScratchOpts.IncrementalModel = false;
  Saturation Inc(Terms);
  Saturation Scratch(Terms, ScratchOpts);
  // Several saturate-then-extend rounds over one growing set.
  for (int Round = 0; Round != 6; ++Round) {
    for (unsigned I = 0; I != 8; ++I) {
      std::vector<Equation> Neg, Pos;
      randomClause(Terms, Rng, 8, Neg, Pos);
      Inc.addInput(Neg, Pos);
      Scratch.addInput(Neg, Pos);
    }
    Fuel FI, FS;
    std::optional<GroundRewriteSystem> MI, MS;
    SatResult RI = Inc.saturateModelGuided(FI, MI);
    (void)Scratch.saturateModelGuided(FS, MS);
    if (RI == SatResult::Unsatisfiable)
      break;
  }
  EXPECT_EQ(Inc.stats().ModelAttempts, Scratch.stats().ModelAttempts);
  EXPECT_GT(Inc.stats().ModelAttempts, 1u);
  EXPECT_GT(Inc.stats().GenReplayedFrom, 0u);
  EXPECT_EQ(Scratch.stats().GenReplayedFrom, 0u);
  EXPECT_EQ(Scratch.stats().CertSkipped, 0u);
  EXPECT_EQ(Scratch.stats().NfCacheReuse, 0u);
}

//===----------------------------------------------------------------------===//
// Prover-level differential identity
//===----------------------------------------------------------------------===//

namespace {

struct Outcome {
  core::Verdict V = core::Verdict::Unknown;
  std::string Cex;
  core::ProveStats Stats;
};

Outcome proveWith(const std::string &Query, bool Incremental) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  sl::ParseResult P = sl::parseEntailment(Terms, Query);
  EXPECT_TRUE(P.ok()) << Query;
  core::ProverOptions Opts;
  Opts.Sat.IncrementalModel = Incremental;
  core::SlpProver Prover(Terms, Opts);
  core::ProveResult R = Prover.prove(*P.Value);
  Outcome O{R.V, "", R.Stats};
  if (R.Cex)
    O.Cex = sl::str(Terms, R.Cex->S, R.Cex->H);
  return O;
}

/// Everything the from-scratch and incremental modes must agree on.
/// (GenReplayedFrom/CertSkipped/NfCacheReuse are intentionally NOT
/// compared: they count the amortized work and are zero from scratch.)
void expectIdentical(const Outcome &A, const Outcome &B,
                     const std::string &Label) {
  EXPECT_EQ(A.V, B.V) << Label;
  EXPECT_EQ(A.Cex, B.Cex) << Label;
  EXPECT_EQ(A.Stats.OuterIterations, B.Stats.OuterIterations) << Label;
  EXPECT_EQ(A.Stats.InnerIterations, B.Stats.InnerIterations) << Label;
  EXPECT_EQ(A.Stats.PureClauses, B.Stats.PureClauses) << Label;
  EXPECT_EQ(A.Stats.FuelUsed, B.Stats.FuelUsed) << Label;
  EXPECT_EQ(A.Stats.Sat.SubsumedFwd, B.Stats.Sat.SubsumedFwd) << Label;
  EXPECT_EQ(A.Stats.Sat.SubsumedBwd, B.Stats.Sat.SubsumedBwd) << Label;
  EXPECT_EQ(A.Stats.Sat.SubChecks, B.Stats.Sat.SubChecks) << Label;
  EXPECT_EQ(A.Stats.Sat.SubScanBaseline, B.Stats.Sat.SubScanBaseline)
      << Label;
  EXPECT_EQ(A.Stats.Sat.ModelAttempts, B.Stats.Sat.ModelAttempts) << Label;
}

void runIdentity(const std::vector<std::string> &Corpus) {
  for (const std::string &Q : Corpus)
    expectIdentical(proveWith(Q, /*Incremental=*/true),
                    proveWith(Q, /*Incremental=*/false), Q);
}

} // namespace

TEST(IncrementalModel, RegressionCorpusIdenticalToFromScratch) {
  std::vector<std::string> Corpus = test::regressionQueryLines();
  ASSERT_GE(Corpus.size(), 40u) << "regression corpus not found";
  runIdentity(Corpus);
}

TEST(IncrementalModel, Table1DistributionIdenticalToFromScratch) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(1);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 25; ++I)
    Corpus.push_back(
        sl::str(Terms, gen::distribution1(Terms, Rng, 12, 0.09, 0.11)));
  runIdentity(Corpus);
}

TEST(IncrementalModel, Table2DistributionIdenticalToFromScratch) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(2);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 15; ++I)
    Corpus.push_back(sl::str(Terms, gen::distribution2(Terms, Rng, 10, 0.7)));
  runIdentity(Corpus);
}

TEST(IncrementalModel, Table3VcCorpusIdenticalToFromScratch) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  std::vector<std::string> Corpus;
  for (const symexec::Program &P : symexec::corpus(Terms)) {
    symexec::VcGenResult R = symexec::generateVCs(Terms, P);
    ASSERT_TRUE(R.ok());
    for (const symexec::VC &V : R.VCs)
      Corpus.push_back(sl::str(Terms, V.E));
  }
  ASSERT_GT(Corpus.size(), 0u);
  runIdentity(Corpus);
}

// Countermodels from the incremental path are not just textually equal
// to the from-scratch ones — they re-check against the semantics.
TEST(IncrementalModel, CountermodelsRecheckAgainstSemantics) {
  SymbolTable GenSyms;
  TermTable GenTerms(GenSyms);
  SplitMix64 Rng(13);
  unsigned Invalid = 0;
  for (int I = 0; I != 25; ++I) {
    std::string Q =
        sl::str(GenTerms, gen::distribution2(GenTerms, Rng, 6, 0.6));
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    ASSERT_TRUE(P.ok()) << Q;
    core::SlpProver Prover(Terms); // Incremental is the default.
    core::ProveResult R = Prover.prove(*P.Value);
    if (R.V != core::Verdict::Invalid)
      continue;
    ++Invalid;
    ASSERT_TRUE(R.Cex.has_value());
    EXPECT_TRUE(sl::isCounterexample(R.Cex->S, R.Cex->H, *P.Value)) << Q;
  }
  EXPECT_GT(Invalid, 0u) << "distribution produced no invalid instances";
}

// Post-clear() session reuse: one ProverSession (whose SlpProver
// clear()s its Saturation — including the incremental model snapshot —
// between queries, and whose table rewinds to the nil baseline)
// decides a corpus stream exactly like per-query fresh provers running
// the *from-scratch* attempts. This crosses the reuse boundary and the
// incremental/from-scratch boundary in one comparison.
TEST(IncrementalModel, SessionReuseIdenticalToFromScratchProver) {
  SymbolTable GenSyms;
  TermTable GenTerms(GenSyms);
  SplitMix64 Rng(17);
  core::ProverSession Session; // Incremental attempts (the default).
  for (int I = 0; I != 20; ++I) {
    std::string Q =
        sl::str(GenTerms, gen::distribution1(GenTerms, Rng, 10, 0.1, 0.2));
    Session.reset();
    sl::ParseResult P = sl::parseEntailment(Session.terms(), Q);
    ASSERT_TRUE(P.ok()) << Q;
    core::ProveResult R = Session.prove(*P.Value);
    Outcome A{R.V, "", R.Stats};
    if (R.Cex)
      A.Cex = sl::str(Session.terms(), R.Cex->S, R.Cex->H);

    // Fresh from-scratch prover over the session's baseline prefix
    // (nil pinned as term 0).
    SymbolTable Syms;
    TermTable Terms(Syms);
    Terms.nil();
    sl::ParseResult PF = sl::parseEntailment(Terms, Q);
    ASSERT_TRUE(PF.ok()) << Q;
    core::ProverOptions Opts;
    Opts.Sat.IncrementalModel = false;
    core::SlpProver Fresh(Terms, Opts);
    core::ProveResult RF = Fresh.prove(*PF.Value);
    Outcome B{RF.V, "", RF.Stats};
    if (RF.Cex)
      B.Cex = sl::str(Terms, RF.Cex->S, RF.Cex->H);

    expectIdentical(A, B, Q);
  }
}
