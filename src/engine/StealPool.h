//===- engine/StealPool.h - Work-stealing index distributor -----*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distributes the indices [0, size) of a fixed corpus across workers
/// with per-worker deques and work stealing. A single shared fetch-add
/// counter makes every pop a contended store on one cache line; with
/// heavy-tailed per-item costs it also serializes the tail of the run
/// behind whichever worker drew the expensive items. Here each worker
/// starts with a contiguous block of indices and pops from its own
/// deque front (a thread-local mutex, uncontended in the common case);
/// only when a worker drains does it touch anybody else's line,
/// stealing half of a victim's remaining block from the back. The
/// result is the same exactly-once distribution with near-zero
/// cross-core traffic while work is balanced and automatic rebalancing
/// when it is not.
///
/// Deques are mutex-protected rather than lock-free: the unit of work
/// (one entailment proof) costs orders of magnitude more than an
/// uncontended lock, and the mutexes keep the pool trivially
/// TSan-clean. Every index is claimed: pop() returns false only once
/// the whole pool is drained.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_STEALPOOL_H
#define SLP_ENGINE_STEALPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace slp {
namespace engine {

/// Per-worker (and aggregate) work-stealing counters.
struct StealStats {
  uint64_t Executed = 0;      ///< Indices this worker claimed.
  uint64_t Steals = 0;        ///< Successful steals (batches, not items).
  uint64_t StealAttempts = 0; ///< Victim probes, including empty ones.

  StealStats &operator+=(const StealStats &O) {
    Executed += O.Executed;
    Steals += O.Steals;
    StealAttempts += O.StealAttempts;
    return *this;
  }
};

/// Hands out [0, size) across a fixed set of workers, each index
/// exactly once, with per-worker deques and half-stealing.
class StealPool {
public:
  /// Partitions [0, \p Size) into \p NumWorkers contiguous blocks.
  StealPool(size_t Size, unsigned NumWorkers);

  StealPool(const StealPool &) = delete;
  StealPool &operator=(const StealPool &) = delete;

  /// Claims the next index for \p Worker into \p Index; false once the
  /// pool is drained. \p Worker must be
  /// < numWorkers() and each worker id must be used by one thread.
  bool pop(unsigned Worker, size_t &Index);

  size_t size() const { return Size; }
  unsigned numWorkers() const {
    return static_cast<unsigned>(Locals.size());
  }

  /// Indices not yet claimed (racy snapshot; for progress display).
  size_t remaining() const {
    return Remaining.load(std::memory_order_relaxed);
  }

  /// Counters of one worker. Only meaningful once its thread is done
  /// popping (the pool takes no lock here).
  const StealStats &stats(unsigned Worker) const {
    return Locals[Worker]->Stats;
  }

  /// Sum of all workers' counters (same caveat as stats()).
  StealStats totals() const;

private:
  /// One worker's share of the pool. Padded so neighbours' deques do
  /// not false-share; Stats is written only by the owning thread.
  struct alignas(64) Local {
    std::mutex M;
    std::vector<size_t> Items; ///< Unclaimed indices; front at Head.
    size_t Head = 0;           ///< Items before Head are gone.
    StealStats Stats;
  };

  /// Moves half of some victim's remainder into \p Worker's deque.
  /// Returns false if every victim probed empty.
  bool stealInto(unsigned Worker);

  std::vector<std::unique_ptr<Local>> Locals;
  std::atomic<size_t> Remaining;
  const size_t Size;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_STEALPOOL_H
