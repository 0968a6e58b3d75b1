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
    : Terms(Syms), P(Terms, Opts), Baseline(Terms.mark()) {}

void ProverSession::reset() {
  ++Stats.Resets;
  Stats.TermsReclaimed += localSymbols();
  Terms.reset(Baseline);
  SLP_INVARIANT(Syms.size() == Baseline.NumSymbols,
                "session rewind did not restore the symbol baseline");
  P.onTermTableReset();
}
