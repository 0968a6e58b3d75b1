//===- engine/ResultCache.h - Sharded verdict memo cache --------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded, bounded LRU cache from canonical query keys
/// to prover verdicts. Workers of the batch engine consult it before
/// proving, so duplicate and alpha-equivalent queries in a corpus are
/// answered without re-running the prover.
///
/// Sharding: the key's precomputed hash selects one of NumShards
/// independent shards, each with its own mutex, map, and LRU list, so
/// concurrent workers rarely contend on the same lock. Eviction is
/// per-shard least-recently-used with a per-shard capacity derived
/// from the total MaxEntries bound.
///
/// Single flight: acquire() is the engine's entry point. It answers
/// from the memo when it can; otherwise the first caller of a key
/// becomes its owner, and every later caller of that key blocks on the
/// shard's condition variable until the owner ends its claim. The
/// owner ends it exactly once: publish() stores the verdict and wakes
/// the waiters, which return it as hits; abandon() stores nothing, and
/// the first waiter to recheck becomes the new owner. A waiter that
/// wakes to find the published entry already evicted reclaims the key
/// the same way (a miss), so no wait outlives the claims that caused
/// it. Each acquire() counts as exactly one hit or one miss, so over
/// one batch that never evicts, misses == distinct keys and hits ==
/// calls - distinct keys, whatever the interleaving.
///
/// No cycle of waits: a caller holds at most one claim, and never
/// calls acquire() while holding one. A waiter therefore waits on an
/// owner that is proving, not waiting, and each wait ends when that
/// one in-flight prove ends, which its fuel budget or completion
/// guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_RESULTCACHE_H
#define SLP_ENGINE_RESULTCACHE_H

#include "core/Prover.h"
#include "engine/CanonicalKey.h"
#include "obs/Metrics.h"

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace slp {
namespace engine {

/// Aggregated counters across all shards.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0;

  double hitRate() const {
    uint64_t Lookups = Hits + Misses;
    return Lookups ? static_cast<double>(Hits) / Lookups : 0.0;
  }
};

/// Memoizes entailment verdicts keyed by CanonicalQuery::key().
class ResultCache {
public:
  struct Options {
    size_t NumShards = 16;         ///< Independent lock domains.
    size_t MaxEntries = 1u << 20;  ///< Total capacity across shards.
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options Opts);
  /// Releases this cache's contribution to the `cache.entries` gauge.
  ~ResultCache() { clear(); }

  /// Single-flight lookup (see the file comment). Returns the memoized
  /// verdict for \p Q, refreshing its LRU slot, or — when another
  /// caller owns \p Q — blocks until that claim ends and returns its
  /// verdict; either is a hit. Returns nullopt on a miss: the caller
  /// now owns \p Q and must end the claim with publish() or abandon()
  /// while \p Q is alive (the claim refers to its key). Time spent
  /// blocked is recorded as a `cache-wait` trace span, into the
  /// `engine.phase.cache_wait_ns` histogram and, when given, added to
  /// \p WaitSeconds. Thread safe.
  std::optional<core::Verdict> acquire(const CanonicalQuery &Q,
                                       double *WaitSeconds = nullptr);

  /// Ends the caller's claim on \p Q: memoizes \p V as insert() does
  /// and wakes the waiters of \p Q.
  void publish(const CanonicalQuery &Q, core::Verdict V);

  /// Ends the caller's claim on \p Q without a verdict; one waiter of
  /// \p Q, if any, becomes its owner.
  void abandon(const CanonicalQuery &Q);

  /// Returns the memoized verdict for \p Q, refreshing its LRU slot;
  /// nullopt on a miss. Never waits for or takes a claim. Thread safe.
  std::optional<core::Verdict> lookup(const CanonicalQuery &Q);

  /// Memoizes \p V for \p Q, evicting the shard's least recently used
  /// entry when full. A racing duplicate insert is a no-op (first
  /// writer wins; verdicts for one key are identical by construction).
  /// Thread safe.
  void insert(const CanonicalQuery &Q, core::Verdict V);

  /// Snapshot of the aggregated counters. Thread safe.
  CacheStats stats() const;

  size_t size() const;

  /// Total entry bound across all shards: exactly
  /// max(Options::MaxEntries, NumShards) — the requested bound, with
  /// the division remainder spread over the first shards, and a floor
  /// of one slot per shard.
  size_t capacity() const;

  void clear();

private:
  struct Shard {
    mutable std::mutex M;
    /// Notified whenever a claim of this shard ends.
    std::condition_variable Released;
    /// Keys with a claim in flight, as views into the owners'
    /// CanonicalQuery::key() strings; at most one per owner.
    std::vector<std::string_view> Pending;
    /// Front = most recently used. Node addresses are stable, so the
    /// map below can key on views into the stored strings.
    std::list<std::pair<std::string, core::Verdict>> Lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, core::Verdict>>::iterator>
        Map;
    uint64_t Hits = 0, Misses = 0, Insertions = 0, Evictions = 0;
    /// This shard's entry bound (immutable after construction).
    size_t Cap = 1;
  };

  Shard &shardFor(uint64_t Hash) {
    return *Shards[Hash % Shards.size()];
  }

  /// The memoized verdict for \p Key (refreshing its LRU slot), with
  /// \p S.M held; counts nothing.
  static std::optional<core::Verdict> findLocked(Shard &S,
                                                 std::string_view Key);
  /// Counts one hit or miss with \p S.M held.
  void countLocked(Shard &S, bool Hit);
  /// insert() with \p S.M held.
  void insertLocked(Shard &S, std::string_view Key, core::Verdict V);
  /// Whether \p Key has a claim in flight, with \p S.M held.
  static bool claimedLocked(const Shard &S, std::string_view Key);
  /// Drops \p Key's claim from \p S with \p S.M held.
  static void releaseLocked(Shard &S, std::string_view Key);

  std::vector<std::unique_ptr<Shard>> Shards;

  /// Registry mirrors of the shard counters (`cache.*`), accumulated
  /// across every cache instance of the process; the per-instance
  /// stats() above stays the source for per-run accounting.
  obs::Counter &HitsMetric;
  obs::Counter &MissesMetric;
  obs::Counter &InsertionsMetric;
  obs::Counter &EvictionsMetric;
  obs::Gauge &EntriesMetric;
  obs::Histogram &WaitMetric;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_RESULTCACHE_H
