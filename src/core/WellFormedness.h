//===- core/WellFormedness.h - Rules W1-W5 ----------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The well-formedness inferences of Figure 1. Given a normalized
/// positive spatial clause Γ → ∆, Σ_R they emit the pure clauses
/// PCns_W({C}): contradictions of nil-addressed atoms (W1, W2) and of
/// atoms sharing an address (W3, W4, W5). No search is involved —
/// consequences are read off the atom multiset (Lemma 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_WELLFORMEDNESS_H
#define SLP_CORE_WELLFORMEDNESS_H

#include "core/ClausalForm.h"

namespace slp {
namespace core {

/// Computes PCns_W({C}), each clause tagged with its rule (W1-W5).
std::vector<PureInput> wellFormednessConsequences(const PosSpatialClause &C);

/// True iff Σ is well-formed: no nil address, no duplicate address.
bool isWellFormed(const sl::SpatialFormula &Sigma);

} // namespace core
} // namespace slp

#endif // SLP_CORE_WELLFORMEDNESS_H
