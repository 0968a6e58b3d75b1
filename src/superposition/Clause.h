//===- superposition/Clause.h - Pure clauses --------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure clauses Γ → ∆ in the sense of §3.2: Γ is the set of equations
/// occurring negatively, ∆ the set occurring positively. Clauses are
/// kept in a canonical sorted, deduplicated form so that identity,
/// subsumption and fixpoint detection are cheap.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSE_H
#define SLP_SUPERPOSITION_CLAUSE_H

#include "superposition/Literal.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace slp {
namespace sup {

/// How a clause entered the clause database; used to reconstruct
/// Figure-4 style proof trees spanning both calculi.
enum class RuleKind : uint8_t {
  Input,         ///< Supplied by the SL layer (cnf, N, W, U/SR).
  SupLeft,       ///< Superposition into a negative literal.
  SupRight,      ///< Superposition into a positive literal.
  EqRes,         ///< Equality resolution (reflexivity).
  EqFact,        ///< Equality factoring.
  Demod,         ///< Demodulation by unit equations.
};

/// Names a RuleKind for proof printing.
const char *ruleKindName(RuleKind K);

/// A derivation record: the rule and the ids of premise clauses.
struct Justification {
  RuleKind Kind = RuleKind::Input;
  std::vector<uint32_t> Parents;
  /// Opaque tag the SL layer uses to attach its own provenance to
  /// Input clauses (e.g. "derived by W4 from clause C").
  uint32_t ExternalTag = ~0u;
};

/// Sorts and deduplicates one clause side into canonical form.
void canonicalizeSide(std::vector<Equation> &Eqs);

/// Structural hash of a canonical clause Γ → ∆ (both sides sorted and
/// duplicate-free): the one fingerprint function, shared by Clause's
/// constructor and the saturation engine's scratch intake.
uint64_t clauseFingerprint(std::span<const Equation> Neg,
                           std::span<const Equation> Pos);

/// Writes (A \ {SkipA}) ∪ (B \ {SkipB}) ∪ {Extra} to \p Out, sorted and
/// duplicate-free. \p A and \p B must be canonical clause sides and
/// must not alias \p Out. A skip removes the equation from its own run
/// only, so an equation skipped in A but present in B is kept. Absent
/// skips and extras are nullopt. One linear merge with no test per
/// step but the loop's replaces concatenating and sorting: each run is
/// split at its skip, and Extra is placed by binary search afterwards.
void mergeCanonical(std::vector<Equation> &Out, std::span<const Equation> A,
                    std::optional<Equation> SkipA,
                    std::span<const Equation> B,
                    std::optional<Equation> SkipB,
                    std::optional<Equation> Extra);

/// An immutable pure clause in canonical form, built by sorting and
/// deduplicating two equation lists. The saturation engine builds its
/// conclusions in scratch instead and stores them in the ClauseDB's
/// flat pool; long-lived code reads clauses back as ClauseViews.
class Clause {
public:
  /// Builds the canonical form: sorts and deduplicates both sides.
  Clause(std::vector<Equation> Neg, std::vector<Equation> Pos);

  /// Equations occurring negatively (the set Γ).
  const std::vector<Equation> &neg() const { return NegEqs; }
  /// Equations occurring positively (the set ∆).
  const std::vector<Equation> &pos() const { return PosEqs; }

  bool empty() const { return NegEqs.empty() && PosEqs.empty(); }
  size_t size() const { return NegEqs.size() + PosEqs.size(); }

  /// A tautology is valid in every interpretation: either some s ' s
  /// occurs positively, or Γ and ∆ intersect.
  bool isTautology() const;

  /// True iff this clause subsumes \p Other (Γ ⊆ Γ' and ∆ ⊆ ∆').
  bool subsumes(const Clause &Other) const;

  /// Structural hash of the canonical form.
  uint64_t fingerprint() const { return Hash; }

  friend bool operator==(const Clause &A, const Clause &B) {
    return A.NegEqs == B.NegEqs && A.PosEqs == B.PosEqs;
  }

  /// Renders e.g. "a ' b, c ' d -> e ' f" ("[]" for the empty clause).
  std::string str(const TermTable &Terms) const;

private:
  std::vector<Equation> NegEqs;
  std::vector<Equation> PosEqs;
  uint64_t Hash;
};

/// A non-owning, trivially copyable window onto a canonical clause
/// whose equations live in someone else's storage — the ClauseDB's
/// flat equation pool, the saturation engine's scratch sides, or a
/// Clause's own vectors (the implicit conversion). Spans are
/// invalidated when the underlying storage grows: a view into the
/// pool must not be read after a clause is appended.
class ClauseView {
public:
  ClauseView() = default;
  ClauseView(std::span<const Equation> Neg, std::span<const Equation> Pos,
             uint64_t Hash)
      : Neg(Neg), Pos(Pos), Hash(Hash) {}
  /*implicit*/ ClauseView(const Clause &C)
      : Neg(C.neg()), Pos(C.pos()), Hash(C.fingerprint()) {}

  std::span<const Equation> neg() const { return Neg; }
  std::span<const Equation> pos() const { return Pos; }

  bool empty() const { return Neg.empty() && Pos.empty(); }
  size_t size() const { return Neg.size() + Pos.size(); }

  /// See Clause::isTautology.
  bool isTautology() const;

  /// True iff this clause subsumes \p Other (Γ ⊆ Γ' and ∆ ⊆ ∆').
  bool subsumes(ClauseView Other) const;

  uint64_t fingerprint() const { return Hash; }

  /// Deep copy into an owning Clause (the ranges are already
  /// canonical, so this is a plain copy plus the hash).
  Clause materialize() const {
    return Clause(std::vector<Equation>(Neg.begin(), Neg.end()),
                  std::vector<Equation>(Pos.begin(), Pos.end()));
  }

  friend bool operator==(ClauseView A, ClauseView B) {
    return A.Neg.size() == B.Neg.size() && A.Pos.size() == B.Pos.size() &&
           std::equal(A.Neg.begin(), A.Neg.end(), B.Neg.begin()) &&
           std::equal(A.Pos.begin(), A.Pos.end(), B.Pos.begin());
  }
  friend bool operator!=(ClauseView A, ClauseView B) { return !(A == B); }

  /// Renders e.g. "a ' b, c ' d -> e ' f" ("[]" for the empty clause).
  std::string str(const TermTable &Terms) const;

private:
  std::span<const Equation> Neg;
  std::span<const Equation> Pos;
  uint64_t Hash = 0;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSE_H
