//===- tests/core/ProverSessionTest.cpp -----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Session reuse must be invisible: verdicts, countermodels, and
/// statistics from one ProverSession reused across a whole corpus must
/// be bit-identical to fresh-prover runs (fresh SymbolTable, TermTable,
/// and SlpProver per query over the session's baseline prefix). The
/// corpora mirror the IndexTest verdict-identity tests: the tagged
/// regression suite plus the Table 1-3 distributions.
///
//===----------------------------------------------------------------------===//

#include "core/ProverSession.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

/// Everything observable about one prove() run.
struct Outcome {
  Verdict V = Verdict::Unknown;
  std::string Cex; ///< Rendered countermodel; empty unless Invalid.
  ProveStats Stats;
};

/// Proves \p Query through the reused session.
Outcome proveWithSession(ProverSession &S, const std::string &Query) {
  S.reset();
  sl::ParseResult P = sl::parseEntailment(S.terms(), Query);
  EXPECT_TRUE(P.ok()) << Query;
  ProveResult R = S.prove(*P.Value);
  Outcome O{R.V, "", R.Stats};
  if (R.Cex)
    O.Cex = sl::str(S.terms(), R.Cex->S, R.Cex->H);
  return O;
}

/// Proves \p Query with a from-scratch prover over the same baseline
/// the session rewinds to (a fresh table whose shared prefix is nil).
Outcome proveFresh(const std::string &Query) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  Terms.nil(); // The session baseline pins nil as term 0.
  sl::ParseResult P = sl::parseEntailment(Terms, Query);
  EXPECT_TRUE(P.ok()) << Query;
  SlpProver Prover(Terms);
  ProveResult R = Prover.prove(*P.Value);
  Outcome O{R.V, "", R.Stats};
  if (R.Cex)
    O.Cex = sl::str(Terms, R.Cex->S, R.Cex->H);
  return O;
}

void expectIdentical(const Outcome &A, const Outcome &B,
                     const std::string &Label) {
  EXPECT_EQ(A.V, B.V) << Label;
  EXPECT_EQ(A.Cex, B.Cex) << Label;
  EXPECT_EQ(A.Stats.OuterIterations, B.Stats.OuterIterations) << Label;
  EXPECT_EQ(A.Stats.InnerIterations, B.Stats.InnerIterations) << Label;
  EXPECT_EQ(A.Stats.PureClauses, B.Stats.PureClauses) << Label;
  EXPECT_EQ(A.Stats.FuelUsed, B.Stats.FuelUsed) << Label;
  EXPECT_EQ(A.Stats.Sat, B.Stats.Sat) << Label;
}

/// One reused session against per-query fresh provers over a corpus.
void runIdentity(const std::vector<std::string> &Corpus) {
  ProverSession Session;
  for (const std::string &Q : Corpus)
    expectIdentical(proveWithSession(Session, Q), proveFresh(Q), Q);
}

} // namespace

TEST(ProverSession, RegressionCorpusIdenticalToFreshProver) {
  std::vector<std::string> Corpus = test::regressionQueryLines();
  ASSERT_GE(Corpus.size(), 40u) << "regression corpus not found";
  runIdentity(Corpus);
}

TEST(ProverSession, Table1DistributionIdenticalToFreshProver) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(1);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 30; ++I)
    Corpus.push_back(
        sl::str(Terms, gen::distribution1(Terms, Rng, 12, 0.09, 0.11)));
  runIdentity(Corpus);
}

TEST(ProverSession, Table2DistributionIdenticalToFreshProver) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  SplitMix64 Rng(2);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 20; ++I)
    Corpus.push_back(
        sl::str(Terms, gen::distribution2(Terms, Rng, 10, 0.7)));
  runIdentity(Corpus);
}

TEST(ProverSession, Table3VcCorpusIdenticalToFreshProver) {
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

TEST(ProverSession, VerdictsMatchProverOverBareTable) {
  // Verdicts are also independent of the baseline prefill: a prover
  // over a table *without* nil pre-interned decides the same.
  SymbolTable GenSyms;
  TermTable GenTerms(GenSyms);
  SplitMix64 Rng(7);
  ProverSession Session;
  for (int I = 0; I != 20; ++I) {
    std::string Q =
        sl::str(GenTerms, gen::distribution1(GenTerms, Rng, 8, 0.2, 0.2));
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    ASSERT_TRUE(P.ok()) << Q;
    SlpProver Prover(Terms);
    EXPECT_EQ(proveWithSession(Session, Q).V, Prover.prove(*P.Value).V) << Q;
  }
}

TEST(ProverSession, CountermodelsRecheckAgainstSemantics) {
  ProverSession Session;
  SymbolTable GenSyms;
  TermTable GenTerms(GenSyms);
  SplitMix64 Rng(3);
  unsigned Invalid = 0;
  for (int I = 0; I != 30; ++I) {
    std::string Q =
        sl::str(GenTerms, gen::distribution2(GenTerms, Rng, 6, 0.6));
    Session.reset();
    sl::ParseResult P = sl::parseEntailment(Session.terms(), Q);
    ASSERT_TRUE(P.ok()) << Q;
    ProveResult R = Session.prove(*P.Value);
    if (R.V != Verdict::Invalid)
      continue;
    ++Invalid;
    // The countermodel stays usable (and semantically correct) until
    // the next reset().
    ASSERT_TRUE(R.Cex.has_value());
    EXPECT_TRUE(sl::isCounterexample(R.Cex->S, R.Cex->H, *P.Value)) << Q;
  }
  EXPECT_GT(Invalid, 0u) << "distribution produced no invalid instances";
}

TEST(ProverSession, StatsTrackReuse) {
  ProverSession Session;
  const SessionStats &S = Session.stats();
  EXPECT_EQ(Session.symbols().size(), 1u); // Just nil.
  EXPECT_EQ(S.Resets, 0u);

  for (int I = 0; I != 10; ++I)
    (void)proveWithSession(
        Session, "x != y & next(x, y) * lseg(y, z) |- lseg(x, z)");

  EXPECT_EQ(S.Resets, 10u);
  // x, y and z are dropped by each reset after the first.
  EXPECT_EQ(S.TermsReclaimed, 27u);
  // After a final reset the table is back at the baseline.
  Session.reset();
  EXPECT_EQ(Session.symbols().size(), 1u);
}

TEST(ProverSession, ProofReconstructionSurvivesUntilReset) {
  ProverSession Session;
  Session.reset();
  sl::ParseResult P = sl::parseEntailment(
      Session.terms(), "x = y & next(x, z) |- next(y, z)");
  ASSERT_TRUE(P.ok());
  ProveResult R = Session.prove(*P.Value);
  EXPECT_EQ(R.V, Verdict::Valid);
  // The refutation is still inspectable through the session's prover.
  EXPECT_TRUE(Session.prover().saturation().hasEmptyClause());
}
