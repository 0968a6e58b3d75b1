//===- sl/Formula.cpp - Separation logic AST -------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Formula.h"

#include <algorithm>
#include <sstream>

using namespace slp;
using namespace slp::sl;

static void addUnique(std::vector<Symbol> &Out, Symbol T) {
  if (std::find(Out.begin(), Out.end(), T) == Out.end())
    Out.push_back(T);
}

void Assertion::collectTerms(std::vector<Symbol> &Out) const {
  for (const PureAtom &A : Pure) {
    addUnique(Out, A.Lhs);
    addUnique(Out, A.Rhs);
  }
  for (const HeapAtom &A : Spatial) {
    addUnique(Out, A.Addr);
    addUnique(Out, A.Val);
  }
}

void Entailment::collectTerms(std::vector<Symbol> &Out) const {
  Lhs.collectTerms(Out);
  Rhs.collectTerms(Out);
}

std::string sl::str(const TermTable &Terms, const PureAtom &A) {
  std::ostringstream OS;
  OS << Terms.str(A.Lhs) << (A.Negated ? " != " : " = ") << Terms.str(A.Rhs);
  return OS.str();
}

std::string sl::str(const TermTable &Terms, const HeapAtom &A) {
  std::ostringstream OS;
  OS << (A.isNext() ? "next(" : "lseg(") << Terms.str(A.Addr) << ", "
     << Terms.str(A.Val) << ")";
  return OS.str();
}

std::string sl::str(const TermTable &Terms, const SpatialFormula &S) {
  if (S.empty())
    return "emp";
  std::ostringstream OS;
  for (size_t I = 0; I != S.size(); ++I) {
    if (I)
      OS << " * ";
    OS << str(Terms, S[I]);
  }
  return OS.str();
}

std::string sl::str(const TermTable &Terms, const Assertion &A) {
  std::ostringstream OS;
  for (size_t I = 0; I != A.Pure.size(); ++I) {
    if (I)
      OS << " & ";
    OS << str(Terms, A.Pure[I]);
  }
  if (!A.Pure.empty())
    OS << " & ";
  OS << str(Terms, A.Spatial);
  return OS.str();
}

std::string sl::str(const TermTable &Terms, const Entailment &E) {
  return str(Terms, E.Lhs) + " |- " + str(Terms, E.Rhs);
}
