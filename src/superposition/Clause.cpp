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

void slp::sup::mergeCanonical(std::vector<Equation> &Out,
                              std::span<const Equation> A,
                              std::optional<Equation> SkipA,
                              std::span<const Equation> B,
                              std::optional<Equation> SkipB,
                              std::optional<Equation> Extra) {
  Out.clear();
  // Inputs arrive in ascending order, so a duplicate is always the
  // last equation written.
  auto Push = [&Out](const Equation &E) {
    if (Out.empty() || Out.back() != E)
      Out.push_back(E);
  };
  const Equation *AI = A.data(), *AE = AI + A.size();
  const Equation *BI = B.data(), *BE = BI + B.size();
  const Equation *Ex = Extra ? &*Extra : nullptr;
  for (;;) {
    if (AI != AE && SkipA && *AI == *SkipA) {
      ++AI;
      continue;
    }
    if (BI != BE && SkipB && *BI == *SkipB) {
      ++BI;
      continue;
    }
    const Equation **Next = AI != AE ? &AI : nullptr;
    if (BI != BE && (!Next || *BI < **Next))
      Next = &BI;
    if (Ex && (!Next || *Ex < **Next)) {
      Push(*Ex);
      Ex = nullptr;
      continue;
    }
    if (!Next)
      return;
    Push(*(*Next)++);
  }
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
