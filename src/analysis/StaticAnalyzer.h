//===- analysis/StaticAnalyzer.h - Polynomial entailment pre-solver -*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sound static analyzer over parsed entailments that proves a
/// useful fragment Valid in polynomial time and never calls
/// saturation. It runs two stages:
///
///   1. A union-find closure of the antecedent's pure part Π with
///      disequality tracking (analysis::PureClosure), extended to a
///      fixpoint with the W1-W5 well-formedness consequences of the
///      antecedent's spatial part Σ (core/WellFormedness, Figure 1
///      read off the atom multiset): nil-addressed `next` atoms and
///      aliased `next` pairs contradict; nil-addressed or aliased
///      `lseg` atoms force their emptiness equations; definitely
///      non-empty atoms contribute derived disequalities (address
///      != nil, pairwise distinct addresses). A contradiction means
///      the antecedent is unsatisfiable, so the entailment is
///      vacuously Valid.
///
///   2. A syntactic matcher on the closure-normalized forms: every
///      atom is rewritten to class representatives, trivial
///      lseg(x, x) atoms are dropped, and the `*`-multisets are
///      compared (an RHS lseg(a, b) additionally matches an LHS
///      next(a, b) when a != b is entailed). If every RHS pure atom
///      is entailed by the closure and the spatial multisets match,
///      the entailment is Valid.
///
/// Everything else returns Unknown and falls through to the full
/// prover, which decides Invalid queries with a countermodel of its
/// own. Soundness contract: the answer is Valid or Unknown, and Valid
/// only when the entailment holds; the differential test suite
/// asserts agreement with the SLP backend on every corpus.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ANALYSIS_STATICANALYZER_H
#define SLP_ANALYSIS_STATICANALYZER_H

#include "core/Prover.h"

#include <string>

namespace slp {
namespace analysis {

/// Which rule proved the entailment Valid.
enum class Reason : uint8_t {
  None,              ///< Verdict is Unknown.
  PureContradiction, ///< Π alone is unsatisfiable.
  WfContradiction,   ///< Π + W1-W5 consequences of Σ are unsatisfiable.
  SyntacticMatch,    ///< Normalized RHS is syntactically entailed.
};

const char *reasonName(Reason R);

/// Outcome of one analyze() call: Valid or Unknown.
struct AnalysisResult {
  core::Verdict V = core::Verdict::Unknown;
  Reason R = Reason::None;
  /// Human-readable provenance, e.g. "W3 on next(x, y) / next(x, z)";
  /// consumed by slp-lint diagnostics. Empty when Unknown.
  std::string Detail;

  bool definitive() const { return V != core::Verdict::Unknown; }
};

/// Statically analyzes \p E. Never calls saturation; polynomial in
/// the size of the entailment. \p Terms must be the table \p E was
/// built over (it is only used to look up nil and to render
/// provenance, no query-visible terms are interned).
AnalysisResult analyze(TermTable &Terms, const sl::Entailment &E);

} // namespace analysis
} // namespace slp

#endif // SLP_ANALYSIS_STATICANALYZER_H
