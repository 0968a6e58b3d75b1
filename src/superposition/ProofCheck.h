//===- superposition/ProofCheck.h - Refutation auditing ---------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent checker for derivations recorded by the saturation
/// engine: every non-input step's conclusion must be semantically
/// entailed by its premises. Entailment of ground clauses over
/// constants is decided by brute force — enumerating all partitions of
/// the constants occurring in the step (the only thing a model of pure
/// equality logic can vary). This gives the test suite an oracle for
/// the calculus that shares no code with the inference rules.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_PROOFCHECK_H
#define SLP_SUPERPOSITION_PROOFCHECK_H

#include "superposition/Saturation.h"

#include <string>

namespace slp {
namespace sup {

/// Result of auditing one refutation.
struct ProofCheckResult {
  bool Ok = true;
  std::string Error;        ///< First failing step, if any.
  unsigned StepsChecked = 0;
  unsigned StepsSkipped = 0; ///< Steps exceeding MaxConstants.
};

/// Audits the derivation of \p RootId (premises first). Steps whose
/// clauses mention more than \p MaxConstants distinct constants are
/// skipped (partition enumeration is exponential); Bell(9) ≈ 21k
/// partitions per step is still instant.
ProofCheckResult checkDerivation(const Saturation &Sat, uint32_t RootId,
                                 unsigned MaxConstants = 9);

/// Audits the recorded refutation (requires an empty clause).
inline ProofCheckResult checkRefutation(const Saturation &Sat,
                                        unsigned MaxConstants = 9) {
  return checkDerivation(Sat, Sat.emptyClauseId(), MaxConstants);
}

/// Brute-force ground entailment: true iff every equality model (i.e.
/// every partition of the occurring constants) satisfying all
/// \p Premises satisfies \p Conclusion. Only defined for clauses over
/// constants.
bool entailsGround(const std::vector<ClauseView> &Premises,
                   ClauseView Conclusion);

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_PROOFCHECK_H
