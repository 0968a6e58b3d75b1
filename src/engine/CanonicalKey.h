//===- engine/CanonicalKey.h - Alpha-invariant query keys -------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A canonical, alpha-invariant encoding of an entailment query, used
/// as the memoization key of the engine's ResultCache. Two queries that
/// differ only in the names of their (non-nil) program variables — or
/// in duplicated pure conjuncts or trivial lseg(x, x) atoms — map to
/// the same key. Symmetric pure atoms are additionally normalized
/// under operand swap whenever at least one operand is already
/// anchored by an earlier atom (spatial atoms are traversed first to
/// maximize anchoring); an atom whose operands are both fresh keeps
/// its written order, so full graph canonicalization is deliberately
/// not attempted — a missed collision only costs one re-proof.
///
/// The encoding is also executable: rebuild() re-materializes the
/// canonical entailment in any TermTable, so the engine can prove the
/// canonical form instead of the original. The canonical indices are
/// the term order: every mode of the tools proves the rebuilt query,
/// and a renderer that asks for the source names gets the same symbol
/// ids, and so the same search, as the engine. Because validity is
/// invariant under injective renaming of program variables (nil stays
/// fixed), the verdict is then a pure function of the key, which makes
/// batch output deterministic regardless of worker interleaving and of
/// which alpha-variant reached the prover first.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_CANONICALKEY_H
#define SLP_ENGINE_CANONICALKEY_H

#include "sl/Formula.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slp {
namespace engine {

/// The canonical form of one entailment query.
class CanonicalQuery {
public:
  /// Canonicalizes \p E: renames constants to dense indices by first
  /// occurrence (index 0 pinned to nil), orients symmetric pure atoms,
  /// drops duplicate pure conjuncts and trivial lseg(x, x) atoms.
  static CanonicalQuery of(const sl::Entailment &E);

  /// The canonical text; equal strings iff alpha-equivalent queries
  /// (up to the normalizations above). Suitable as a map key.
  const std::string &key() const { return Key; }

  /// 64-bit hash of key(), precomputed; used for cache sharding.
  uint64_t hash() const { return Hash; }

  /// Re-materializes the canonical entailment: constant index 0 is
  /// nil, index i > 0 becomes the interned constant "v<i>", or, given
  /// the table \p Names that the query was canonicalized from, the
  /// source name of that constant. Either way the constants are
  /// interned in the same order, so the symbol ids are the same.
  sl::Entailment rebuild(TermTable &Terms,
                         const TermTable *Names = nullptr) const;

private:
  struct PureEnc {
    uint32_t Lhs, Rhs;
    bool Neg;
  };
  struct HeapEnc {
    bool Lseg;
    uint32_t Addr, Val;
  };

  std::vector<PureEnc> LhsPure, RhsPure;
  std::vector<HeapEnc> LhsSpatial, RhsSpatial;
  /// The source constant of each canonical index (index 0 is nil).
  std::vector<Symbol> Sources;
  std::string Key;
  uint64_t Hash = 0;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_CANONICALKEY_H
