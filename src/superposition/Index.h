//===- superposition/Index.h - Clause indexing ------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clause signatures, and the redundancy tests of the saturation
/// engine that run on them.
///
/// ClauseSig is the Eén-Biere literal-abstraction signature ("Effective
/// Preprocessing in SAT through Variable and Clause Elimination", SAT
/// 2005), one 64-bit word per polarity: every equation sets the bit its
/// hash selects. Subsumption here is set inclusion per polarity (Γ_D ⊆
/// Γ_C and ∆_D ⊆ ∆_C), so D can subsume C only if D's bits are a subset
/// of C's — one AND-NOT rejects almost every pair before the sorted-
/// range inclusion test runs. The pure clauses of the SLP prover range
/// over constants only, so the signature is nearly exact on them. One
/// pass over a clause computes both words and its clauseFingerprint,
/// hashing each equation once.
///
/// The same words let superpositionIsTautology decide whether a
/// superposition's conclusion is a tautology from its premises, before
/// anything is merged: a Γ and a ∆ can share an equation only if their
/// words intersect.
///
/// LiveSet holds the words and ids of the live clauses as flat arrays.
/// Both subsumption scans filter them in branch-free blocks of eight
/// and test only the slots that pass, in slot order.
///
/// Demodulation needs no index: the rule table of the saturation's
/// GroundRewriteSystem is a vector indexed by symbol id, so a constant's
/// rule is one load.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_INDEX_H
#define SLP_SUPERPOSITION_INDEX_H

#include "superposition/Clause.h"

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace slp {
namespace sup {

/// Subsumption signature of one clause.
struct ClauseSig {
  uint64_t Neg = 0; ///< One bit per hashed negative equation.
  uint64_t Pos = 0; ///< One bit per hashed positive equation.

  /// Computes the signature of \p C. Takes a view so pooled clauses
  /// are signed without materializing; a `const Clause &` converts
  /// implicitly.
  static ClauseSig of(ClauseView C) {
    uint64_t Fingerprint = 0;
    return of(C.neg(), C.pos(), Fingerprint);
  }

  /// Signs the canonical clause \p Neg → \p Pos and sets \p Fingerprint
  /// to its clauseFingerprint in the same pass, hashing each equation
  /// once: the equation hash feeds both the signature bit and the
  /// fingerprint.
  static ClauseSig of(std::span<const Equation> Neg,
                      std::span<const Equation> Pos, uint64_t &Fingerprint);

  /// The signature bit an equation hashes to (either polarity).
  static uint64_t equationBit(const Equation &E) {
    return 1ull << (E.hash() & 63);
  }

  /// False when a clause with signature (\p DNeg, \p DPos) certainly
  /// cannot subsume a clause with signature (\p CNeg, \p CPos). Never
  /// false for an actual subsumer (no false negatives).
  static bool maySubsume(uint64_t DNeg, uint64_t DPos, uint64_t CNeg,
                         uint64_t CPos) {
    return ((DNeg & ~CNeg) | (DPos & ~CPos)) == 0;
  }
};

/// Decides, without building it, whether the superposition of \p From
/// into \p Into is a tautology. \p FromEq is From's maximal literal
/// (positive), \p IntoEq Into's (negative iff \p Left, superposition
/// left), and \p NewEq the equation the inference adds; \p FromSig and
/// \p IntoSig are the premises' signatures. Both premises must be
/// non-tautological, as every stored clause is; then the conclusion is
/// one iff a premise's Γ meets the other's ∆ (each superposed equation
/// left out of its own side only), NewEq lands on the opposite side,
/// or NewEq is trivial on the right. Each of those sweeps runs only
/// when the signature words of the two sides it compares intersect.
bool superpositionIsTautology(ClauseView From, const ClauseSig &FromSig,
                              ClauseView Into, const ClauseSig &IntoSig,
                              Equation FromEq, Equation IntoEq, Equation NewEq,
                              bool Left);

/// The live clauses of a saturation: each one's ClauseSig words and id
/// by slot, as three flat arrays. Slots carry no meaning; a removal
/// moves the last slot into the hole. Both subsumption scans filter
/// the words in branch-free blocks of eight slots and visit the
/// clauses that pass in slot order, so they visit exactly the pairs,
/// in exactly the order, of a plain linear scan that tests
/// ClauseSig::maySubsume per slot.
class LiveSet {
public:
  size_t size() const { return Count; }
  uint32_t id(size_t Slot) const { return Ids[Slot]; }

  /// Appends clause \p Id with signature \p Sig; returns its slot.
  size_t push(uint32_t Id, const ClauseSig &Sig) {
    if (Ids.size() < Count + 1 + Block) {
      NegWords.resize(Count + 1 + Block);
      PosWords.resize(Count + 1 + Block);
      Ids.resize(Count + 1 + Block);
    }
    NegWords[Count] = Sig.Neg;
    PosWords[Count] = Sig.Pos;
    Ids[Count] = Id;
    return Count++;
  }

  /// Removes slot \p Slot by moving the last slot into it. Returns the
  /// id now at \p Slot, which is the removed one if it was last.
  uint32_t swapRemove(size_t Slot) {
    --Count;
    NegWords[Slot] = NegWords[Count];
    PosWords[Slot] = PosWords[Count];
    Ids[Slot] = Ids[Count];
    return Ids[Slot];
  }

  /// Empties the set, keeping its arrays.
  void clear() { Count = 0; }

  /// Calls \p Test(Id) for each clause whose signature may subsume
  /// (\p CNeg, \p CPos), in slot order, until one call returns true.
  /// Returns whether one did.
  template <typename Fn>
  bool findSubsumer(uint64_t CNeg, uint64_t CPos, Fn &&Test) const {
    for (size_t Base = 0; Base < Count; Base += Block)
      for (uint32_t M = blockMask(Base, CNeg, CPos, /*Backward=*/false); M;
           M &= M - 1)
        if (Test(Ids[Base + std::countr_zero(M)]))
          return true;
    return false;
  }

  /// Calls \p Visit(Id) for each clause that a clause with signature
  /// (\p Neg, \p Pos) may subsume, in slot order. A call that removes
  /// the visited clause's slot (by swapRemove) must return true; the
  /// scan then resumes at that slot, which now holds the last clause.
  template <typename Fn> void forEachSubsumed(uint64_t Neg, uint64_t Pos,
                                              Fn &&Visit) {
    for (size_t Base = 0; Base < Count;) {
      size_t Next = Base + Block;
      for (uint32_t M = blockMask(Base, Neg, Pos, /*Backward=*/true); M;
           M &= M - 1) {
        const size_t Slot = Base + std::countr_zero(M);
        if (Visit(Ids[Slot])) {
          Next = Slot;
          break;
        }
      }
      Base = Next;
    }
  }

private:
  static constexpr size_t Block = 8;

  /// Bit K is set iff slot Base + K is below Count and passes the
  /// signature filter: its clause may subsume (\p Neg, \p Pos) or,
  /// \p Backward, may be subsumed by it. No branch per slot; the arrays
  /// hold Block slots past Count, so the block never reads out of them.
  uint32_t blockMask(size_t Base, uint64_t Neg, uint64_t Pos,
                     bool Backward) const {
    uint32_t M = 0;
    for (size_t K = 0; K != Block; ++K) {
      const uint64_t DNeg = NegWords[Base + K], DPos = PosWords[Base + K];
      const bool Pass = Backward ? ClauseSig::maySubsume(Neg, Pos, DNeg, DPos)
                                 : ClauseSig::maySubsume(DNeg, DPos, Neg, Pos);
      M |= uint32_t(Pass) << K;
    }
    return Count - Base >= Block ? M : M & ((1u << (Count - Base)) - 1);
  }

  size_t Count = 0;
  std::vector<uint64_t> NegWords, PosWords;
  std::vector<uint32_t> Ids;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_INDEX_H
