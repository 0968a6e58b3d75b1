//===- core/ClausalForm.h - The cnf embedding -------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clausal embedding cnf(E) of §3.2: the negation of an
/// entailment E ≡ Π ∧ Σ → Π' ∧ Σ' is represented by
///
///   { ∅→P | P positive in Π } ∪ { N→∅ | ¬N in Π } ∪
///   { ∅→Σ } ∪ { Π'+, Σ' → Π'− }
///
/// E is valid iff cnf(E) is unsatisfiable.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_CLAUSALFORM_H
#define SLP_CORE_CLAUSALFORM_H

#include "core/SpatialClause.h"

namespace slp {
namespace core {

/// The SL-level inference that injected a pure clause. W1-W5 have the
/// values 1-5.
enum class InputRule : uint8_t { Cnf, W1, W2, W3, W4, W5, SR };

/// A pure clause destined for the superposition engine, tagged with the
/// rule that produced it. The prover keeps what the rule's label names
/// and renders the text only when a proof is printed.
struct PureInput {
  std::vector<sup::Equation> Neg;
  std::vector<sup::Equation> Pos;
  InputRule Rule = InputRule::Cnf;
};

/// cnf(E), with the single positive and negative spatial clauses kept
/// in structured form.
struct ClausalForm {
  std::vector<PureInput> PureClauses; ///< From the pure part of Π.
  PosSpatialClause PosSigma;          ///< ∅ → Σ.
  NegSpatialClause NegSigma;          ///< Π'+, Σ' → Π'−.
};

/// Builds the clausal embedding of \p E.
ClausalForm cnf(const sl::Entailment &E);

/// Provenance labels, as proof trees print them.
/// "cnf: Eq -> []" for a negated atom of Π, "cnf: [] -> Eq" otherwise.
std::string cnfLabel(const TermTable &Terms, const sup::Equation &Eq,
                     bool Negated);
/// "W? on C" for a consequence of rule \p Rule (W1-W5) on \p C.
std::string wellFormednessLabel(const TermTable &Terms, InputRule Rule,
                                const PosSpatialClause &C);
/// "SR after unfolding C' against C".
std::string unfoldingLabel(const TermTable &Terms, const PosSpatialClause &C,
                           const NegSpatialClause &CPrime);

} // namespace core
} // namespace slp

#endif // SLP_CORE_CLAUSALFORM_H
