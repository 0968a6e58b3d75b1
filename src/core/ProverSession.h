//===- core/ProverSession.h - Reusable prover context -----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable proving context: one ProverSession owns a SymbolTable, a
/// TermTable, and an SlpProver (with its Saturation engine), and is
/// rewound between queries instead of being rebuilt. The table is
/// checkpointed right after construction — the baseline holds exactly
/// the shared prefix (nil, symbol 0) — and reset() truncates the
/// symbols back to it.
///
/// Lifecycle:
///
///   core::ProverSession S;
///   for (const std::string &Query : Corpus) {
///     S.reset();                                  // rewind to baseline
///     sl::ParseResult P = sl::parseEntailment(S.terms(), Query);
///     core::ProveResult R = S.prove(*P.Value);    // verdict, stats, ...
///     ...                                         // countermodel/proof
///   }                                             // valid until reset()
///
/// Verdicts, countermodels, and statistics are bit-identical to
/// constructing a fresh SymbolTable + TermTable + SlpProver per query:
/// reset() restores exactly the freshly constructed state (dense ids
/// are reassigned deterministically, every symbol-id-keyed cache is
/// invalidated), only the allocations survive. That reuse is the point
/// — on small entailments, table construction and teardown dominate
/// the non-inference cost (see the engine's per-worker sessions and
/// the bench_micro session-reuse case).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_PROVERSESSION_H
#define SLP_CORE_PROVERSESSION_H

#include "core/Prover.h"

namespace slp {
namespace core {

/// Counters describing the reuse behavior of one session.
struct SessionStats {
  uint64_t Resets = 0;         ///< Rewinds back to the baseline.
  uint64_t TermsReclaimed = 0; ///< Query-local symbols dropped by resets.
};

/// Owns the full per-query proving state and rewinds it between
/// queries. Not thread safe; the batch engine keeps one per worker.
class ProverSession {
public:
  explicit ProverSession(ProverOptions Opts = {});

  /// The session's term table. Callers intern query terms here (e.g.
  /// by parsing into it) on top of the baseline checkpoint.
  TermTable &terms() { return Terms; }
  SymbolTable &symbols() { return Syms; }

  /// The underlying prover, for proof reconstruction after prove().
  SlpProver &prover() { return P; }
  const SlpProver &prover() const { return P; }

  /// Checks \p E (built over terms()) with an explicit fuel budget.
  ProveResult prove(const sl::Entailment &E, Fuel &F) {
    return P.prove(E, F);
  }

  /// Checks \p E with unlimited fuel.
  ProveResult prove(const sl::Entailment &E) {
    Fuel Unlimited;
    return prove(E, Unlimited);
  }

  /// Rewinds the term table to the baseline and clears the prover's
  /// clause database and symbol-id-keyed caches. Constants interned since
  /// construction or the last reset() — and any ProveResult
  /// countermodel or proof referencing them — become invalid.
  void reset();

  const SessionStats &stats() const { return Stats; }

  /// Query-local symbols interned since construction or the last
  /// reset(): what the next reset() will reclaim.
  uint64_t localSymbols() const { return Syms.size() - Baseline.NumSymbols; }

private:
  SymbolTable Syms;
  TermTable Terms;
  SlpProver P;
  TermTable::Mark Baseline;
  SessionStats Stats;
};

} // namespace core
} // namespace slp

#endif // SLP_CORE_PROVERSESSION_H
