//===- superposition/Index.h - Clause indexing ------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clause signatures for the saturation engine's redundancy elimination.
///
/// ClauseSig is the Eén-Biere literal-abstraction signature ("Effective
/// Preprocessing in SAT through Variable and Clause Elimination", SAT
/// 2005), one 64-bit word per polarity: every equation sets the bit its
/// hash selects. Subsumption here is set inclusion per polarity (Γ_D ⊆
/// Γ_C and ∆_D ⊆ ∆_C), so D can subsume C only if D's bits are a subset
/// of C's — one AND-NOT rejects almost every pair before the sorted-
/// range inclusion test runs. The pure clauses of the SLP prover range
/// over constants only, so the signature is nearly exact on them.
///
/// The third word, Syms, is a bloom mask over the symbols of the
/// clause's constants. DemodIndex is the matching mask over the
/// left-hand sides of the active unit demodulators (per-bit reference
/// counted, so retiring a rule clears its bit when the last rule
/// sharing it disappears). Demodulation then skips the rewrite-rule
/// hash lookup for every constant whose symbol cannot match, and whole
/// clauses are skipped when their Syms mask is disjoint from the rule
/// mask.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_INDEX_H
#define SLP_SUPERPOSITION_INDEX_H

#include "superposition/Clause.h"

#include <array>
#include <cstdint>

namespace slp {
namespace sup {

/// Subsumption signature and symbol mask of one clause.
struct ClauseSig {
  uint64_t Neg = 0;  ///< One bit per hashed negative equation.
  uint64_t Pos = 0;  ///< One bit per hashed positive equation.
  uint64_t Syms = 0; ///< Bloom mask over the symbols of its constants.

  /// Computes the signature of \p C. Takes a view so pooled clauses
  /// are signed without materializing; a `const Clause &` converts
  /// implicitly.
  static ClauseSig of(ClauseView C);

  /// The signature bit an equation hashes to (either polarity).
  static uint64_t equationBit(const Equation &E) {
    return 1ull << (E.hash() & 63);
  }

  /// The mask bit a symbol hashes to (shared with DemodIndex).
  static uint64_t symbolBit(Symbol S);

  /// False when a clause with signature (\p DNeg, \p DPos) certainly
  /// cannot subsume a clause with signature (\p CNeg, \p CPos). Never
  /// false for an actual subsumer (no false negatives).
  static bool maySubsume(uint64_t DNeg, uint64_t DPos, uint64_t CNeg,
                         uint64_t CPos) {
    return ((DNeg & ~CNeg) | (DPos & ~CPos)) == 0;
  }
};

/// Symbol fingerprint of the current demodulator set.
class DemodIndex {
public:
  /// Records a rule whose left-hand side has symbol \p S.
  void addLhs(Symbol S);

  /// Retires a rule previously added with symbol \p S.
  void removeLhs(Symbol S);

  /// True iff some rule's left-hand side has a symbol hashing to the
  /// same fingerprint bit as \p S (no false negatives).
  bool mayMatchRoot(Symbol S) const {
    return (Mask & ClauseSig::symbolBit(S)) != 0;
  }

  /// True iff a clause with symbol mask \p ClauseMask can contain any
  /// rule's left-hand side.
  bool mayRewrite(uint64_t ClauseMask) const {
    return (Mask & ClauseMask) != 0;
  }

  uint64_t mask() const { return Mask; }
  bool empty() const { return Mask == 0; }

  /// Retires every rule at once.
  void clear() {
    Mask = 0;
    BitCount.fill(0);
  }

private:
  uint64_t Mask = 0;
  /// Rules per fingerprint bit; a bit clears when its count drops to 0.
  std::array<uint32_t, 64> BitCount{};
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_INDEX_H
