//===- engine/CanonicalKey.cpp - Alpha-invariant query keys -------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/CanonicalKey.h"

#include "support/Hashing.h"

#include <vector>

using namespace slp;
using namespace slp::engine;

namespace {

/// Assigns dense canonical indices to constants by first occurrence,
/// recording the source constant of each index in \p Sources. Index 0
/// is reserved for nil, which must keep its identity: validity is only
/// invariant under renamings that fix nil.
class Renaming {
public:
  explicit Renaming(std::vector<Symbol> &Sources) : Sources(Sources) {
    Sources.push_back(SymbolTable::nil());
  }

  uint32_t index(Symbol T) {
    if (T.isNil())
      return 0;
    if (T.id() >= Index.size())
      Index.resize(T.id() + 1, ~0u);
    if (Index[T.id()] == ~0u) {
      Index[T.id()] = NextIndex++;
      Sources.push_back(T);
    }
    return Index[T.id()];
  }

  /// Looks the index up without assigning one; ~0u if unseen.
  uint32_t peek(Symbol T) const {
    if (T.isNil())
      return 0;
    return T.id() < Index.size() ? Index[T.id()] : ~0u;
  }

  uint32_t numAssigned() const { return NextIndex; }

private:
  /// Canonical index by symbol id; ~0u where none is assigned yet.
  std::vector<uint32_t> Index;
  uint32_t NextIndex = 1;
  std::vector<Symbol> &Sources;
};

} // namespace

CanonicalQuery CanonicalQuery::of(const sl::Entailment &E) {
  CanonicalQuery Q;
  // Every atom names at most two new constants, plus nil.
  Q.Sources.reserve(1 + 2 * (E.Lhs.Pure.size() + E.Lhs.Spatial.size() +
                             E.Rhs.Pure.size() + E.Rhs.Spatial.size()));
  Renaming R(Q.Sources);

  // Pure atoms are symmetric, so orient each one name-independently:
  // a side that already has an index goes first (smaller index first if
  // both do); when both sides are fresh the written order stands —
  // either way the resulting index pair is independent of how the atom
  // happened to be spelled.
  auto encodePure = [&](const std::vector<sl::PureAtom> &Atoms,
                        std::vector<PureEnc> &Out) {
    for (const sl::PureAtom &A : Atoms) {
      // Drop trivially-true x = x conjuncts before renaming: a dropped
      // atom must not assign indices to otherwise-unseen constants.
      if (!A.Negated && A.Lhs == A.Rhs)
        continue;
      uint32_t L = R.peek(A.Lhs), Rr = R.peek(A.Rhs);
      Symbol First = A.Lhs, Second = A.Rhs;
      bool Swap = (L == ~0u && Rr != ~0u) || (L != ~0u && Rr != ~0u && Rr < L);
      if (Swap)
        std::swap(First, Second);
      PureEnc Enc{R.index(First), R.index(Second), A.Negated};
      // Drop duplicates; symmetric duplicates were normalized away by
      // the orientation above. A duplicate's constants were already
      // indexed by the first occurrence, so no index leaks here.
      bool Dup = false;
      for (const PureEnc &Seen : Out)
        Dup |= Seen.Lhs == Enc.Lhs && Seen.Rhs == Enc.Rhs && Seen.Neg == Enc.Neg;
      if (!Dup)
        Out.push_back(Enc);
    }
  };

  // Heap atoms are directed; keep the written operand order, and drop
  // trivial lseg(x, x) atoms (they denote emp, so this is equivalence
  // preserving on either side of the entailment).
  auto encodeSpatial = [&](const sl::SpatialFormula &Atoms,
                           std::vector<HeapEnc> &Out) {
    for (const sl::HeapAtom &A : Atoms) {
      if (A.isTrivialLseg())
        continue;
      Out.push_back({A.isLseg(), R.index(A.Addr), R.index(A.Val)});
    }
  };

  // Spatial atoms first: they are directed, so they anchor the
  // renaming unambiguously, which lets the symmetric pure atoms (whose
  // operand order is then usually determined) orient themselves.
  encodeSpatial(E.Lhs.Spatial, Q.LhsSpatial);
  encodeSpatial(E.Rhs.Spatial, Q.RhsSpatial);
  encodePure(E.Lhs.Pure, Q.LhsPure);
  encodePure(E.Rhs.Pure, Q.RhsPure);

  // Render the key: one character per atom kind plus the index pair.
  std::string &K = Q.Key;
  auto renderPure = [&K](const std::vector<PureEnc> &Atoms) {
    for (const PureEnc &A : Atoms) {
      K += A.Neg ? '!' : '=';
      K += std::to_string(A.Lhs);
      K += ',';
      K += std::to_string(A.Rhs);
      K += ';';
    }
  };
  auto renderSpatial = [&K](const std::vector<HeapEnc> &Atoms) {
    for (const HeapEnc &A : Atoms) {
      K += A.Lseg ? 'l' : 'n';
      K += std::to_string(A.Addr);
      K += ',';
      K += std::to_string(A.Val);
      K += ';';
    }
  };
  renderPure(Q.LhsPure);
  K += '*';
  renderSpatial(Q.LhsSpatial);
  K += '|';
  renderPure(Q.RhsPure);
  K += '*';
  renderSpatial(Q.RhsSpatial);
  Q.Hash = hashString(K);
  return Q;
}

sl::Entailment CanonicalQuery::rebuild(TermTable &Terms,
                                       const TermTable *Names) const {
  std::vector<Symbol> Consts;
  auto constant = [&](uint32_t I) -> Symbol {
    if (I >= Consts.size())
      Consts.resize(I + 1);
    if (!Consts[I].valid())
      Consts[I] = I == 0  ? Terms.nil()
                  : Names ? Terms.constant(Names->str(Sources[I]))
                          : Terms.constant("v" + std::to_string(I));
    return Consts[I];
  };

  // Operands are interned left to right, in their own statements (the
  // evaluation order of function arguments is unspecified). The term
  // order is symbol-creation order, so this numbers the constants the
  // way parsing sl::str of the rebuilt query does.
  sl::Entailment E;
  auto decodePure = [&](const std::vector<PureEnc> &In,
                        std::vector<sl::PureAtom> &Out) {
    for (const PureEnc &A : In) {
      Symbol L = constant(A.Lhs);
      Symbol R = constant(A.Rhs);
      Out.push_back(A.Neg ? sl::PureAtom::ne(L, R) : sl::PureAtom::eq(L, R));
    }
  };
  auto decodeSpatial = [&](const std::vector<HeapEnc> &In,
                           sl::SpatialFormula &Out) {
    for (const HeapEnc &A : In) {
      Symbol Addr = constant(A.Addr);
      Symbol Val = constant(A.Val);
      Out.push_back(A.Lseg ? sl::HeapAtom::lseg(Addr, Val)
                           : sl::HeapAtom::next(Addr, Val));
    }
  };
  decodePure(LhsPure, E.Lhs.Pure);
  decodeSpatial(LhsSpatial, E.Lhs.Spatial);
  decodePure(RhsPure, E.Rhs.Pure);
  decodeSpatial(RhsSpatial, E.Rhs.Spatial);
  return E;
}
