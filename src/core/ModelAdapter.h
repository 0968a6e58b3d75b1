//===- core/ModelAdapter.h - From R to (s_R, gr_R Σ) ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the equality model R produced by Gen and the concrete
/// semantics: the induced stack s_R of Definition 3.1 (distinct
/// normal forms map to distinct locations; anything equivalent to nil
/// maps to the nil location) and the graph heap gr_R Σ of
/// Definition 4.1.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_MODELADAPTER_H
#define SLP_CORE_MODELADAPTER_H

#include "sl/Semantics.h"
#include "term/Rewrite.h"

#include <span>

namespace slp {
namespace core {

/// Builds s_R over \p Constants: each constant is bound to the
/// location of its R-normal form (an arbitrary fixed injection ι into
/// positive locations; nil-equivalent constants map to NilLoc).
/// Normal forms themselves are bound too, so normalized atoms can be
/// evaluated directly.
sl::Stack inducedStack(const GroundRewriteSystem &R,
                       std::span<const Symbol> Constants);

/// gr_R Σ for a normalized spatial formula: one edge per non-trivial
/// basic atom. Precondition: Σ_R is well-formed (distinct non-nil
/// addresses), so the union of the edges is a heap (Lemma 4.1(3)).
sl::Heap graphHeap(const sl::Stack &S, const sl::SpatialFormula &Sigma);

} // namespace core
} // namespace slp

#endif // SLP_CORE_MODELADAPTER_H
