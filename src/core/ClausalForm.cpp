//===- core/ClausalForm.cpp - The cnf embedding ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/ClausalForm.h"

#include <cassert>
#include <sstream>

using namespace slp;
using namespace slp::core;

static std::string eqStr(const TermTable &Terms, const sup::Equation &E,
                         bool Negated) {
  std::ostringstream OS;
  OS << Terms.str(E.lhs()) << (Negated ? " !' " : " ' ") << Terms.str(E.rhs());
  return OS.str();
}

std::string core::str(const TermTable &Terms, const PosSpatialClause &C) {
  std::ostringstream OS;
  for (size_t I = 0; I != C.Neg.size(); ++I)
    OS << (I ? ", " : "") << eqStr(Terms, C.Neg[I], false);
  OS << " -> ";
  for (size_t I = 0; I != C.Pos.size(); ++I)
    OS << (I ? ", " : "") << eqStr(Terms, C.Pos[I], false);
  if (!C.Pos.empty())
    OS << ", ";
  OS << sl::str(Terms, C.Sigma);
  return OS.str();
}

std::string core::str(const TermTable &Terms, const NegSpatialClause &C) {
  std::ostringstream OS;
  for (size_t I = 0; I != C.Neg.size(); ++I)
    OS << (I ? ", " : "") << eqStr(Terms, C.Neg[I], false);
  if (!C.Neg.empty())
    OS << ", ";
  OS << sl::str(Terms, C.Sigma) << " -> ";
  for (size_t I = 0; I != C.Pos.size(); ++I)
    OS << (I ? ", " : "") << eqStr(Terms, C.Pos[I], false);
  return OS.str();
}

std::string core::cnfLabel(const TermTable &Terms, const sup::Equation &Eq,
                           bool Negated) {
  return Negated ? "cnf: " + eqStr(Terms, Eq, false) + " -> []"
                 : "cnf: [] -> " + eqStr(Terms, Eq, false);
}

std::string core::wellFormednessLabel(const TermTable &Terms, InputRule Rule,
                                      const PosSpatialClause &C) {
  assert(Rule >= InputRule::W1 && Rule <= InputRule::W5 && "not a W rule");
  std::ostringstream OS;
  OS << 'W' << static_cast<int>(Rule) << " on " << str(Terms, C);
  return OS.str();
}

std::string core::unfoldingLabel(const TermTable &Terms,
                                 const PosSpatialClause &C,
                                 const NegSpatialClause &CPrime) {
  return "SR after unfolding " + str(Terms, CPrime) + " against " +
         str(Terms, C);
}

ClausalForm core::cnf(const sl::Entailment &E) {
  ClausalForm Out;

  // The pure part of Π: each positive literal P yields ∅ → P, each
  // negative literal ¬N yields N → ∅.
  for (const sl::PureAtom &A : E.Lhs.Pure) {
    sup::Equation Eq(A.Lhs, A.Rhs);
    PureInput In;
    (A.Negated ? In.Neg : In.Pos).push_back(Eq);
    Out.PureClauses.push_back(std::move(In));
  }

  // ∅ → Σ.
  Out.PosSigma.Sigma = E.Lhs.Spatial;

  // Π'+, Σ' → Π'−.
  Out.NegSigma.Sigma = E.Rhs.Spatial;
  for (const sl::PureAtom &A : E.Rhs.Pure) {
    sup::Equation Eq(A.Lhs, A.Rhs);
    if (A.Negated)
      Out.NegSigma.Pos.push_back(Eq);
    else
      Out.NegSigma.Neg.push_back(Eq);
  }
  return Out;
}
