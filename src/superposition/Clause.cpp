//===- superposition/Clause.cpp - Pure clauses ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Clause.h"

#include <algorithm>
#include <sstream>

using namespace slp;
using namespace slp::sup;

const char *slp::sup::ruleKindName(RuleKind K) {
  switch (K) {
  case RuleKind::Input:
    return "input";
  case RuleKind::SupLeft:
    return "sup-left";
  case RuleKind::SupRight:
    return "sup-right";
  case RuleKind::EqRes:
    return "eq-res";
  case RuleKind::EqFact:
    return "eq-fact";
  case RuleKind::Demod:
    return "demod";
  }
  return "?";
}

void slp::sup::canonicalizeSide(std::vector<Equation> &Eqs) {
  std::sort(Eqs.begin(), Eqs.end());
  Eqs.erase(std::unique(Eqs.begin(), Eqs.end()), Eqs.end());
}

uint64_t slp::sup::clauseFingerprint(std::span<const Equation> Neg,
                                     std::span<const Equation> Pos) {
  uint64_t H = hashValue(0x5157);
  for (const Equation &E : Neg)
    H = hashCombine(H, E.hash() * 2 + 1);
  for (const Equation &E : Pos)
    H = hashCombine(H, E.hash() * 2);
  return H;
}

/// The skip's position in \p Run, or the run's end when it is absent
/// or not in the run.
static const Equation *holeOf(std::span<const Equation> Run,
                              std::optional<Equation> Skip) {
  const Equation *End = Run.data() + Run.size();
  if (!Skip)
    return End;
  const Equation *H = std::lower_bound(Run.data(), End, *Skip);
  return H != End && *H == *Skip ? H : End;
}

void slp::sup::mergeCanonical(std::vector<Equation> &Out,
                              std::span<const Equation> A,
                              std::optional<Equation> SkipA,
                              std::span<const Equation> B,
                              std::optional<Equation> SkipB,
                              std::optional<Equation> Extra) {
  // The result never exceeds both runs plus Extra. Out keeps its
  // capacity, so a warm scratch is not reallocated; but it is cut to
  // the result's length at the end, so this resize refills that gap.
  if (Out.size() < A.size() + B.size() + 1)
    Out.resize(A.size() + B.size() + 1);
  Equation *O = Out.data();
  // Each run is two segments split at its skip: [I, Stop) now, then
  // (Stop, End) once Stop is passed. Stop == End means no skip is left.
  const Equation *AI = A.data(), *AE = AI + A.size(), *AStop = holeOf(A, SkipA);
  const Equation *BI = B.data(), *BE = BI + B.size(), *BStop = holeOf(B, SkipB);
  for (;;) {
    // Both runs are sorted and duplicate-free, so an equation in both
    // advances both and is written once: no per-step test but the
    // loop's own.
    while (AI != AStop && BI != BStop) {
      const Equation X = *AI, Y = *BI;
      *O++ = Y < X ? Y : X;
      AI += !(Y < X);
      BI += !(X < Y);
    }
    if (AI == AStop && AStop != AE) {
      AI = AStop + 1;
      AStop = AE;
    } else if (BI == BStop && BStop != BE) {
      BI = BStop + 1;
      BStop = BE;
    } else {
      break;
    }
  }
  // One run is exhausted; copy what is left of the other.
  auto CopyRest = [&O](const Equation *I, const Equation *Stop,
                       const Equation *End) {
    O = std::copy(I, Stop, O);
    if (Stop != End)
      O = std::copy(Stop + 1, End, O);
  };
  CopyRest(AI, AStop, AE);
  CopyRest(BI, BStop, BE);
  if (Extra) {
    Equation *At = std::lower_bound(Out.data(), O, *Extra);
    if (At == O || *At != *Extra) {
      std::copy_backward(At, O, O + 1);
      *At = *Extra;
      ++O;
    }
  }
  Out.resize(static_cast<size_t>(O - Out.data()));
}

Clause::Clause(std::vector<Equation> Neg, std::vector<Equation> Pos)
    : NegEqs(std::move(Neg)), PosEqs(std::move(Pos)) {
  canonicalizeSide(NegEqs);
  canonicalizeSide(PosEqs);
  Hash = clauseFingerprint(NegEqs, PosEqs);
}

// The set algorithms run on spans so the vector-backed Clause and the
// pool-backed ClauseView share one implementation.

static bool spanTautology(std::span<const Equation> Neg,
                          std::span<const Equation> Pos) {
  for (const Equation &E : Pos)
    if (E.trivial())
      return true;
  // Both sides are sorted; a linear sweep finds common equations.
  auto NI = Neg.begin();
  auto PI = Pos.begin();
  while (NI != Neg.end() && PI != Pos.end()) {
    if (*NI == *PI)
      return true;
    if (*NI < *PI)
      ++NI;
    else
      ++PI;
  }
  return false;
}

static bool sortedIncludes(std::span<const Equation> Small,
                           std::span<const Equation> Big) {
  return std::includes(Big.begin(), Big.end(), Small.begin(), Small.end());
}

static bool spanSubsumes(std::span<const Equation> ANeg,
                         std::span<const Equation> APos,
                         std::span<const Equation> BNeg,
                         std::span<const Equation> BPos) {
  if (ANeg.size() > BNeg.size() || APos.size() > BPos.size())
    return false;
  return sortedIncludes(ANeg, BNeg) && sortedIncludes(APos, BPos);
}

static std::string spanStr(const TermTable &Terms,
                           std::span<const Equation> Neg,
                           std::span<const Equation> Pos) {
  if (Neg.empty() && Pos.empty())
    return "[]";
  std::ostringstream OS;
  bool First = true;
  for (const Equation &E : Neg) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Terms.str(E.lhs()) << " ' " << Terms.str(E.rhs());
  }
  OS << " -> ";
  First = true;
  for (const Equation &E : Pos) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Terms.str(E.lhs()) << " ' " << Terms.str(E.rhs());
  }
  return OS.str();
}

bool Clause::isTautology() const { return spanTautology(NegEqs, PosEqs); }

bool Clause::subsumes(const Clause &Other) const {
  return spanSubsumes(NegEqs, PosEqs, Other.NegEqs, Other.PosEqs);
}

std::string Clause::str(const TermTable &Terms) const {
  return spanStr(Terms, NegEqs, PosEqs);
}

bool ClauseView::isTautology() const { return spanTautology(Neg, Pos); }

bool ClauseView::subsumes(ClauseView Other) const {
  return spanSubsumes(Neg, Pos, Other.Neg, Other.Pos);
}

std::string ClauseView::str(const TermTable &Terms) const {
  return spanStr(Terms, Neg, Pos);
}
