//===- core/ProverSession.cpp - Reusable prover context -----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/ProverSession.h"

#include "support/Invariants.h"

using namespace slp;
using namespace slp::core;

ProverSession::ProverSession(ProverOptions Opts)
    : Terms(Syms), P(Terms, Opts) {
  // Pin the shared prefix: nil is term 0 / symbol 0 in every rebuilt
  // state, exactly as in a fresh table.
  Terms.nil();
  Baseline = Terms.mark();
}

void ProverSession::reset() {
  ++Stats.Resets;
  Stats.TermsReclaimed += Terms.size() - Baseline.NumTerms;
  Terms.reset(Baseline);
  SLP_INVARIANT(Terms.size() == Baseline.NumTerms,
                "session rewind did not restore the term baseline");
  P.onTermTableReset();
}
