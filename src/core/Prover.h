//===- core/Prover.h - The SLP entailment prover ----------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The entailment checking algorithm of Figure 3. Starting from the
/// pure part of cnf(E), the prover alternates between
///
///   (1) saturating the pure clauses with the superposition calculus I
///       (refutation => the entailment is valid),
///   (2) generating an equality model ⟨R, g⟩ = Gen(S*),
///   (3) normalizing ∅ → Σ along R and adding the well-formedness
///       consequences PCns_W (inner loop, until fixpoint),
///   (4) checking R |= Π' (failure => concrete countermodel), and
///   (5) running the unfolding walk against the normalized
///       Π'+, Σ' → Π'−, which either derives one new pure clause (loop
///       again) or exhibits a countermodel.
///
/// The prover is sound and complete for the fragment (Theorem 5.1);
/// every Invalid verdict carries a concrete (stack, heap) countermodel
/// that the executable semantics can re-check.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_PROVER_H
#define SLP_CORE_PROVER_H

#include "core/ClausalForm.h"
#include "sl/Oracle.h"
#include "superposition/Saturation.h"
#include "support/Fuel.h"

#include <memory>

namespace slp {
namespace core {

/// Final verdict for an entailment query.
enum class Verdict {
  Valid,   ///< The empty clause was derived; E holds.
  Invalid, ///< A countermodel was constructed; E does not hold.
  Unknown, ///< The fuel budget ran out (never happens with unlimited
           ///< fuel: the algorithm always terminates).
};

const char *verdictName(Verdict V);

/// Counters describing one prove() run.
struct ProveStats {
  unsigned OuterIterations = 0; ///< Unfolding rounds (Fig. 3 main loop).
  unsigned InnerIterations = 0; ///< Saturate/normalize/W rounds.
  uint64_t PureClauses = 0;     ///< Clauses in the final database.
  uint64_t FuelUsed = 0;        ///< Elementary inference steps.
  sup::SaturationStats Sat;     ///< The saturation engine's counters.
};

/// Everything prove() reports.
struct ProveResult {
  Verdict V = Verdict::Unknown;
  /// Concrete countermodel; present iff V == Invalid.
  std::optional<sl::CounterModel> Cex;
  ProveStats Stats;
};

/// Prover configuration (the ablation benchmarks toggle these).
struct ProverOptions {
  sup::SaturationOptions Sat;
};

/// The SLP prover. One instance can check many entailments; per-query
/// state (the clause database) is cleared on each prove() call and
/// remains accessible afterwards for proof reconstruction. The
/// Saturation engine itself is allocated once and reused across
/// queries, so its index pools and hash tables amortize; behavior is
/// bit-identical to constructing a fresh prover per query.
class SlpProver {
public:
  explicit SlpProver(TermTable &Terms, ProverOptions Opts = {});

  /// Checks E with an explicit fuel budget.
  ProveResult prove(const sl::Entailment &E, Fuel &F);

  /// Checks E with unlimited fuel (always terminates).
  ProveResult prove(const sl::Entailment &E) {
    Fuel Unlimited;
    return prove(E, Unlimited);
  }

  /// The pure clause database of the most recent query; valid until
  /// the next prove() call. Input clauses carry external tags indexing
  /// into inputLabels().
  const sup::Saturation &saturation() const { return *Sat; }

  /// Provenance labels for the SL-level inferences that injected the
  /// stored input clauses (cnf, W1-W5, SR-after-unfolding), one per
  /// external tag. Rendered on each call from the most recent query's
  /// provenance records; call it before the next prove() or
  /// onTermTableReset().
  std::vector<std::string> inputLabels() const;

  TermTable &terms() { return Terms; }

  /// Must be called after the underlying TermTable was reset() to a
  /// mark: rewinding reuses dense symbol ids for different constants,
  /// so the clause database (which stores symbol ids) and its
  /// symbol-id-keyed caches are cleared.
  /// ProverSession calls this from its reset().
  void onTermTableReset();

private:
  /// What an input clause's label names: the rule, plus the cnf
  /// equation (Lhs ' Rhs, Negative for a negated atom of Π) or indices
  /// into the spatial clause snapshots (W1-W5 name PosSnaps[PosSnap];
  /// SR names NegSnaps[NegSnap] against PosSnaps[PosSnap]).
  struct Provenance {
    InputRule Rule;
    bool Negative;
    uint32_t PosSnap, NegSnap;
    Symbol Lhs, Rhs;
  };

  /// Adds a pure clause whose label names the given snapshots; returns
  /// true if it was new. A provenance record is kept only when the
  /// clause is stored, since only then does a clause carry its tag.
  bool addPure(PureInput In, uint32_t PosSnap = 0, uint32_t NegSnap = 0);
  void clearProvenance();

  TermTable &Terms;
  ProverOptions Opts;
  std::unique_ptr<sup::Saturation> Sat;
  /// Per-query provenance store, indexed by external tag. Terms stay
  /// valid until onTermTableReset(), which clears the store.
  std::vector<Provenance> Provs;
  std::vector<PosSpatialClause> PosSnaps;
  std::vector<NegSpatialClause> NegSnaps;
};

} // namespace core
} // namespace slp

#endif // SLP_CORE_PROVER_H
