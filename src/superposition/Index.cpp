//===- superposition/Index.cpp - Clause indexing --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Index.h"

#include "support/Hashing.h"

#include <algorithm>
#include <optional>

using namespace slp;
using namespace slp::sup;

//===----------------------------------------------------------------------===//
// ClauseSig
//===----------------------------------------------------------------------===//

ClauseSig ClauseSig::of(std::span<const Equation> Neg,
                        std::span<const Equation> Pos,
                        uint64_t &Fingerprint) {
  // clauseFingerprint's recurrence, sharing each Equation::hash() with
  // the signature bit.
  ClauseSig S;
  uint64_t H = hashValue(0x5157);
  auto Add = [&H](const Equation &E, uint64_t &Bits, uint64_t Polarity) {
    const uint64_t EH = E.hash();
    H = hashCombine(H, EH * 2 + Polarity);
    Bits |= 1ull << (EH & 63);
  };
  for (const Equation &E : Neg)
    Add(E, S.Neg, 1);
  for (const Equation &E : Pos)
    Add(E, S.Pos, 0);
  Fingerprint = H;
  return S;
}

//===----------------------------------------------------------------------===//
// Superposition tautologies
//===----------------------------------------------------------------------===//

/// True iff the sorted runs \p A \ {SkipA} and \p B \ {SkipB} share an
/// equation: a skip leaves only its own run.
static bool meet(std::span<const Equation> A, std::optional<Equation> SkipA,
                 std::span<const Equation> B, std::optional<Equation> SkipB) {
  auto AI = A.begin(), BI = B.begin();
  while (AI != A.end() && BI != B.end()) {
    if (*AI < *BI) {
      ++AI;
    } else if (*BI < *AI) {
      ++BI;
    } else {
      if (*AI != SkipA && *AI != SkipB)
        return true;
      ++AI;
      ++BI;
    }
  }
  return false;
}

static bool contains(std::span<const Equation> Run, Equation E) {
  return std::binary_search(Run.begin(), Run.end(), E);
}

bool slp::sup::superpositionIsTautology(ClauseView From,
                                        const ClauseSig &FromSig,
                                        ClauseView Into,
                                        const ClauseSig &IntoSig,
                                        Equation FromEq, Equation IntoEq,
                                        Equation NewEq, bool Left) {
  // A premise meets itself in nothing, so only the cross pairs count.
  const uint64_t NewBit = ClauseSig::equationBit(NewEq);
  if (Left) {
    // Γ1, Γ2 \ {IntoEq}, NewEq -> ∆1 \ {FromEq}, ∆2.
    return ((FromSig.Neg & IntoSig.Pos) &&
            meet(From.neg(), std::nullopt, Into.pos(), std::nullopt)) ||
           ((IntoSig.Neg & FromSig.Pos) &&
            meet(Into.neg(), IntoEq, From.pos(), FromEq)) ||
           ((NewBit & FromSig.Pos) && NewEq != FromEq &&
            contains(From.pos(), NewEq)) ||
           ((NewBit & IntoSig.Pos) && contains(Into.pos(), NewEq));
  }
  // Γ1, Γ2 -> ∆1 \ {FromEq}, ∆2 \ {IntoEq}, NewEq.
  return NewEq.trivial() ||
         ((FromSig.Neg & IntoSig.Pos) &&
          meet(From.neg(), std::nullopt, Into.pos(), IntoEq)) ||
         ((IntoSig.Neg & FromSig.Pos) &&
          meet(Into.neg(), std::nullopt, From.pos(), FromEq)) ||
         ((NewBit & FromSig.Neg) && contains(From.neg(), NewEq)) ||
         ((NewBit & IntoSig.Neg) && contains(Into.neg(), NewEq));
}
