//===- support/UnionFind.h - Disjoint sets ----------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Union-find over dense ids with path halving and union by rank:
/// congruence bookkeeping for the baseline provers, the pre-solver's
/// closure (analysis/Closure.h) and symbolic execution (the SLP prover
/// itself uses the superposition engine instead).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPPORT_UNIONFIND_H
#define SLP_SUPPORT_UNIONFIND_H

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace slp {

/// Disjoint-set forest over ids 0..N-1; grows on demand.
class UnionFind {
public:
  /// Representative of \p X's class.
  uint32_t find(uint32_t X) {
    ensure(X);
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]]; // Path halving.
      X = Parent[X];
    }
    return X;
  }

  /// Merges the classes of \p A and \p B; returns the new root.
  uint32_t unite(uint32_t A, uint32_t B) {
    uint32_t RA = find(A), RB = find(B);
    if (RA == RB)
      return RA;
    if (Rank[RA] < Rank[RB])
      std::swap(RA, RB);
    Parent[RB] = RA;
    if (Rank[RA] == Rank[RB])
      ++Rank[RA];
    return RA;
  }

  bool same(uint32_t A, uint32_t B) { return find(A) == find(B); }

private:
  void ensure(uint32_t X) {
    if (X < Parent.size())
      return;
    std::size_t Old = Parent.size();
    Parent.resize(X + 1);
    Rank.resize(X + 1, 0);
    std::iota(Parent.begin() + Old, Parent.end(),
              static_cast<uint32_t>(Old));
  }

  std::vector<uint32_t> Parent;
  std::vector<uint8_t> Rank;
};

} // namespace slp

#endif // SLP_SUPPORT_UNIONFIND_H
