//===- core/Unfolding.h - Rules U1-U5 and SR --------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unfolding inferences of Figure 1, applied as the deterministic
/// walk of Lemma 4.4: the heap graph gr_R Σ_R disambiguates how the
/// atoms of the negative clause's Σ'_R must decompose, so each U-rule
/// application is forced. A successful walk rewrites Σ'_R into Σ_R and
/// finishes with spatial resolution SR, yielding one new pure clause
/// (the side literals collected by U1/U2/U5 plus the pure parts of
/// both clauses). A failed walk yields a concrete countermodel: either
/// gr_R Σ_R itself (when it does not satisfy Σ'_R), or one of the two
/// heap surgeries from the completeness proof — stretching an lseg
/// edge through a fresh cell when Σ' demands a single next cell, or
/// rerouting an lseg edge through a dangling endpoint.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_UNFOLDING_H
#define SLP_CORE_UNFOLDING_H

#include "core/ClausalForm.h"
#include "sl/Semantics.h"

namespace slp {
namespace core {

/// Outcome of the unfolding phase.
struct UnfoldResult {
  enum class Kind {
    Derived,      ///< Walk succeeded: a new pure clause was derived.
    CounterModel, ///< Walk failed: a concrete countermodel heap.
  };

  Kind K;
  PureInput Derived;  ///< Valid iff K == Derived.
  sl::Heap Cex;       ///< Valid iff K == CounterModel.
  const char *Note = ""; ///< Human-readable reason for the outcome.
};

/// Runs the walk. Preconditions (established by the prover loop):
/// both clauses are normalized w.r.t. the same model R whose induced
/// stack is \p SR; C.Sigma is well-formed; R forces Σ_R and ¬Σ'_R.
UnfoldResult unfold(const sl::Stack &SR, const PosSpatialClause &C,
                    const NegSpatialClause &CPrime);

} // namespace core
} // namespace slp

#endif // SLP_CORE_UNFOLDING_H
