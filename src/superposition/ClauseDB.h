//===- superposition/ClauseDB.h - Flat clause storage -----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The saturation engine's clause database in a struct-of-arrays
/// layout. Each stored clause used to own two std::vector<Equation>
/// heaps inside a ClauseEntry that also carried its (cold) provenance;
/// the given-clause loop touches thousands of clauses per query, so
/// the pointer chasing and the interleaved cold data dominated cache
/// traffic. Instead the database keeps
///
///   - one contiguous Equation arena shared by every clause, with
///     per-clause (offset, neg length, pos length) records,
///   - a hot fixed-width record array (offsets, lengths, fingerprint,
///     deleted flag) the inner loops scan,
///   - a cold parallel Justification array only proof reconstruction
///     reads.
///
/// Clauses are immutable once appended (deletion is a flag), so the
/// arena only ever grows and record offsets stay valid. Reads hand out
/// ClauseViews — spans into the arena — which are invalidated by
/// append() exactly like the old `const ClauseEntry &` references were
/// invalidated by DB reallocation, and under the same discipline: copy
/// what you need before generating new clauses.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSEDB_H
#define SLP_SUPERPOSITION_CLAUSEDB_H

#include "superposition/Clause.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace slp {
namespace sup {

/// Flat clause/literal pools with hot/cold splitting; ids are dense
/// and stable (deleted clauses keep their slot for proof trees).
class ClauseDB {
public:
  /// Copies \p C's canonical equations into the arena and its
  /// provenance into the cold store; returns the new clause's id.
  /// \p C must not view the arena itself.
  uint32_t append(ClauseView C, Justification J) {
    assert(C.neg().size() <= UINT16_MAX && C.pos().size() <= UINT16_MAX &&
           "clause wider than the record format");
    uint32_t Id = static_cast<uint32_t>(Hot.size());
    Record R;
    R.EqOff = static_cast<uint32_t>(EqPool.size());
    R.NegLen = static_cast<uint16_t>(C.neg().size());
    R.PosLen = static_cast<uint16_t>(C.pos().size());
    R.Hash = C.fingerprint();
    EqPool.insert(EqPool.end(), C.neg().begin(), C.neg().end());
    EqPool.insert(EqPool.end(), C.pos().begin(), C.pos().end());
    Hot.push_back(R);
    Cold.push_back(std::move(J));
    return Id;
  }

  /// Spans into the arena; invalidated by the next append().
  ClauseView view(uint32_t Id) const {
    const Record &R = Hot[Id];
    const Equation *Base = EqPool.data() + R.EqOff;
    return ClauseView({Base, R.NegLen}, {Base + R.NegLen, R.PosLen}, R.Hash);
  }

  bool deleted(uint32_t Id) const { return Hot[Id].Deleted; }
  void setDeleted(uint32_t Id, bool D) { Hot[Id].Deleted = D; }

  uint64_t fingerprint(uint32_t Id) const { return Hot[Id].Hash; }

  /// Literal count (|Γ| + |∆|) without touching the arena.
  uint32_t litCount(uint32_t Id) const {
    return static_cast<uint32_t>(Hot[Id].NegLen) + Hot[Id].PosLen;
  }

  const Justification &justification(uint32_t Id) const { return Cold[Id]; }

  size_t numClauses() const { return Hot.size(); }

  /// Equations currently pooled across all clauses (arena occupancy).
  size_t poolEquations() const { return EqPool.size(); }

  /// Returns the database to empty, keeping capacity.
  void clear() {
    EqPool.clear();
    Hot.clear();
    Cold.clear();
  }

private:
  /// Hot per-clause record: everything the saturation inner loops
  /// (subsumption, demodulation, ordering) read, and nothing they
  /// don't. 24 bytes — nearly 3 records per cache line, where the old
  /// ClauseEntry was 100+ bytes across four allocations.
  struct Record {
    uint32_t EqOff;   ///< First equation in the arena (Γ then ∆).
    uint16_t NegLen;  ///< |Γ|.
    uint16_t PosLen;  ///< |∆|.
    uint64_t Hash;    ///< Clause fingerprint (duplicate detection).
    bool Deleted = false;
  };

  std::vector<Equation> EqPool; ///< One arena for every clause's equations.
  std::vector<Record> Hot;
  std::vector<Justification> Cold; ///< Provenance, read only for proofs.
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSEDB_H
