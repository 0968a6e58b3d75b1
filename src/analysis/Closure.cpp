//===- analysis/Closure.cpp - Pure-part congruence closure --------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Closure.h"

#include <algorithm>

using namespace slp;
using namespace slp::analysis;

bool PureClosure::unite(Symbol A, Symbol B) {
  uint32_t RA = UF.find(A.id()), RB = UF.find(B.id());
  if (RA == RB)
    return false;
  // Grow before taking references: a resize would invalidate them.
  if (Diseqs.size() <= std::max(RA, RB))
    Diseqs.resize(std::max(RA, RB) + 1);
  uint32_t Root = UF.unite(RA, RB);
  std::vector<uint32_t> &Kept = Diseqs[Root];
  std::vector<uint32_t> &Lost = Diseqs[Root == RA ? RB : RA];
  if (Kept.size() < Lost.size())
    Kept.swap(Lost);
  Kept.insert(Kept.end(), Lost.begin(), Lost.end());
  std::vector<uint32_t>().swap(Lost);
  // A merge can close a disequality's endpoints into one class; every
  // disequality touching the new class is in its list.
  for (uint32_t X : Kept)
    if (UF.find(X) == Root) {
      Contradiction = true;
      break;
    }
  return true;
}

bool PureClosure::addDisequality(Symbol A, Symbol B) {
  if (same(A, B))
    Contradiction = true;
  else if (distinct(A, B))
    return false;
  uint32_t RA = find(A), RB = find(B);
  if (Diseqs.size() <= std::max(RA, RB))
    Diseqs.resize(std::max(RA, RB) + 1);
  Diseqs[RA].push_back(B.id());
  Diseqs[RB].push_back(A.id());
  return true;
}

bool PureClosure::distinct(Symbol A, Symbol B) {
  uint32_t RA = find(A), RB = find(B);
  if (RA == RB)
    return false; // Equal classes are never distinct (that would be a
                  // contradiction, reported separately).
  if (Diseqs.size() <= std::max(RA, RB))
    return false; // Some class has no disequality recorded yet.
  const std::vector<uint32_t> &LA = Diseqs[RA], &LB = Diseqs[RB];
  const std::vector<uint32_t> &Scan = LA.size() <= LB.size() ? LA : LB;
  uint32_t Other = LA.size() <= LB.size() ? RB : RA;
  for (uint32_t X : Scan)
    if (UF.find(X) == Other)
      return true;
  return false;
}
