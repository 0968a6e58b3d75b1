//===- engine/ResultCache.cpp - Sharded verdict memo cache --------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultCache.h"

#include "obs/Trace.h"
#include "support/Invariants.h"
#include "support/Timer.h"

#include <algorithm>

using namespace slp;
using namespace slp::engine;

ResultCache::ResultCache(Options Opts)
    : HitsMetric(obs::metrics().counter("cache.hits")),
      MissesMetric(obs::metrics().counter("cache.misses")),
      InsertionsMetric(obs::metrics().counter("cache.insertions")),
      EvictionsMetric(obs::metrics().counter("cache.evictions")),
      EntriesMetric(obs::metrics().gauge("cache.entries")),
      WaitMetric(obs::metrics().histogram("engine.phase.cache_wait_ns")) {
  size_t NumShards = std::max<size_t>(1, Opts.NumShards);
  // Distribute the requested bound across shards, spreading the
  // remainder over the first MaxEntries % NumShards shards so the
  // total capacity is exactly max(MaxEntries, NumShards) — every
  // shard needs at least one slot for the LRU list to make sense.
  size_t Total = std::max(Opts.MaxEntries, NumShards);
  size_t Base = Total / NumShards;
  size_t Remainder = Total % NumShards;
  Shards.reserve(NumShards);
  for (size_t I = 0; I != NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->Cap = Base + (I < Remainder ? 1 : 0);
  }
}

std::optional<core::Verdict> ResultCache::findLocked(Shard &S,
                                                    std::string_view Key) {
  auto It = S.Map.find(Key);
  if (It == S.Map.end())
    return std::nullopt;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  return It->second->second;
}

void ResultCache::countLocked(Shard &S, bool Hit) {
  ++(Hit ? S.Hits : S.Misses);
  (Hit ? HitsMetric : MissesMetric).inc();
}

void ResultCache::insertLocked(Shard &S, std::string_view Key,
                               core::Verdict V) {
  if (S.Map.count(Key))
    return; // Racing duplicate; identical by construction.
  while (S.Lru.size() >= S.Cap) {
    S.Map.erase(S.Lru.back().first);
    S.Lru.pop_back();
    ++S.Evictions;
    EvictionsMetric.inc();
    EntriesMetric.add(-1);
  }
  S.Lru.emplace_front(Key, V);
  S.Map.emplace(S.Lru.front().first, S.Lru.begin());
  SLP_INVARIANT(S.Lru.size() <= S.Cap,
                "cache shard grew past its capacity");
  SLP_INVARIANT(S.Map.size() == S.Lru.size(),
                "cache shard map and LRU list disagree");
  ++S.Insertions;
  InsertionsMetric.inc();
  EntriesMetric.add(1);
}

bool ResultCache::claimedLocked(const Shard &S, std::string_view Key) {
  return std::find(S.Pending.begin(), S.Pending.end(), Key) !=
         S.Pending.end();
}

void ResultCache::releaseLocked(Shard &S, std::string_view Key) {
  auto It = std::find(S.Pending.begin(), S.Pending.end(), Key);
  SLP_INVARIANT(It != S.Pending.end(), "cache claim released twice");
  if (It == S.Pending.end())
    return;
  *It = S.Pending.back();
  S.Pending.pop_back();
}

std::optional<core::Verdict> ResultCache::acquire(const CanonicalQuery &Q,
                                                  double *WaitSeconds) {
  Shard &S = shardFor(Q.hash());
  // Declared ahead of the lock, so a wait is recorded after unlocking.
  std::optional<obs::TraceSpan> WaitSpan;
  std::optional<ScopedTimer> WaitTimer;
  std::unique_lock<std::mutex> Lock(S.M);
  for (;;) {
    if (std::optional<core::Verdict> V = findLocked(S, Q.key())) {
      countLocked(S, /*Hit=*/true);
      return V;
    }
    if (!claimedLocked(S, Q.key())) {
      S.Pending.push_back(Q.key());
      countLocked(S, /*Hit=*/false);
      return std::nullopt;
    }
    if (!WaitTimer) {
      WaitSpan.emplace("cache-wait");
      WaitTimer.emplace(WaitMetric, WaitSeconds);
    }
    // Once the claim ends, the entry is either stored (a hit) or gone
    // (abandoned or already evicted: claim it anew).
    S.Released.wait(Lock, [&] { return !claimedLocked(S, Q.key()); });
  }
}

void ResultCache::publish(const CanonicalQuery &Q, core::Verdict V) {
  Shard &S = shardFor(Q.hash());
  {
    std::lock_guard<std::mutex> Lock(S.M);
    insertLocked(S, Q.key(), V);
    releaseLocked(S, Q.key());
  }
  S.Released.notify_all();
}

void ResultCache::abandon(const CanonicalQuery &Q) {
  Shard &S = shardFor(Q.hash());
  {
    std::lock_guard<std::mutex> Lock(S.M);
    releaseLocked(S, Q.key());
  }
  S.Released.notify_all();
}

std::optional<core::Verdict> ResultCache::lookup(const CanonicalQuery &Q) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  std::optional<core::Verdict> V = findLocked(S, Q.key());
  countLocked(S, V.has_value());
  return V;
}

void ResultCache::insert(const CanonicalQuery &Q, core::Verdict V) {
  Shard &S = shardFor(Q.hash());
  std::lock_guard<std::mutex> Lock(S.M);
  insertLocked(S, Q.key(), V);
}

CacheStats ResultCache::stats() const {
  CacheStats Out;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    Out.Hits += S->Hits;
    Out.Misses += S->Misses;
    Out.Insertions += S->Insertions;
    Out.Evictions += S->Evictions;
    Out.Entries += S->Lru.size();
  }
  return Out;
}

size_t ResultCache::size() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Lru.size();
  }
  return N;
}

size_t ResultCache::capacity() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards)
    N += S->Cap;
  return N;
}

void ResultCache::clear() {
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    EntriesMetric.add(-static_cast<int64_t>(S->Lru.size()));
    S->Map.clear();
    S->Lru.clear();
  }
}
