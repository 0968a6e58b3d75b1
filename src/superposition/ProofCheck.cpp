//===- superposition/ProofCheck.cpp - Refutation auditing ---------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/ProofCheck.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace slp;
using namespace slp::sup;

namespace {

void collectConstants(ClauseView C, std::vector<Symbol> &Out) {
  auto Add = [&Out](Symbol T) {
    if (std::find(Out.begin(), Out.end(), T) == Out.end())
      Out.push_back(T);
  };
  for (const Equation &E : C.neg()) {
    Add(E.lhs());
    Add(E.rhs());
  }
  for (const Equation &E : C.pos()) {
    Add(E.lhs());
    Add(E.rhs());
  }
}

/// Evaluates a clause under a partition given as class index per
/// constant (parallel to the constant list).
bool clauseHolds(ClauseView C, const std::vector<Symbol> &Consts,
                 const std::vector<unsigned> &ClassOf) {
  auto Cls = [&](Symbol T) {
    size_t I =
        std::find(Consts.begin(), Consts.end(), T) - Consts.begin();
    return ClassOf[I];
  };
  for (const Equation &E : C.neg())
    if (Cls(E.lhs()) != Cls(E.rhs()))
      return true; // A negative premise fails => clause holds.
  for (const Equation &E : C.pos())
    if (Cls(E.lhs()) == Cls(E.rhs()))
      return true;
  return false;
}

} // namespace

bool sup::entailsGround(const std::vector<ClauseView> &Premises,
                        ClauseView Conclusion) {
  std::vector<Symbol> Consts;
  for (ClauseView P : Premises)
    collectConstants(P, Consts);
  collectConstants(Conclusion, Consts);
  unsigned N = static_cast<unsigned>(Consts.size());
  if (N == 0)
    return !Conclusion.empty() ? true : Premises.empty() ? false : true;

  // Enumerate set partitions via restricted growth strings.
  std::vector<unsigned> RGS(N, 0);
  for (;;) {
    bool AllPremises = true;
    for (ClauseView P : Premises)
      if (!clauseHolds(P, Consts, RGS)) {
        AllPremises = false;
        break;
      }
    if (AllPremises && !clauseHolds(Conclusion, Consts, RGS))
      return false;

    unsigned I = N;
    for (;;) {
      if (I == 0)
        return true;
      --I;
      unsigned MaxPrefix = 0;
      for (unsigned J = 0; J != I; ++J)
        MaxPrefix = std::max(MaxPrefix, RGS[J]);
      if (RGS[I] <= MaxPrefix) {
        ++RGS[I];
        std::fill(RGS.begin() + I + 1, RGS.end(), 0);
        break;
      }
    }
  }
}

ProofCheckResult sup::checkDerivation(const Saturation &Sat, uint32_t RootId,
                                      unsigned MaxConstants) {
  ProofCheckResult Result;
  std::set<uint32_t> Seen;
  std::vector<uint32_t> Stack{RootId};
  while (!Stack.empty()) {
    uint32_t Id = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(Id).second)
      continue;
    const Justification &J = Sat.justification(Id);
    for (uint32_t P : J.Parents)
      Stack.push_back(P);
    if (J.Kind == RuleKind::Input)
      continue;

    std::vector<ClauseView> Premises;
    std::vector<Symbol> Consts;
    for (uint32_t P : J.Parents) {
      Premises.push_back(Sat.clause(P));
      collectConstants(Sat.clause(P), Consts);
    }
    ClauseView C = Sat.clause(Id);
    collectConstants(C, Consts);
    if (Consts.size() > MaxConstants) {
      ++Result.StepsSkipped;
      continue;
    }

    if (!entailsGround(Premises, C)) {
      Result.Ok = false;
      std::ostringstream OS;
      OS << "step [" << Id << "] " << C.str(Sat.terms()) << " by "
         << ruleKindName(J.Kind) << " does not follow from its premises";
      Result.Error = OS.str();
      return Result;
    }
    ++Result.StepsChecked;
  }
  return Result;
}
