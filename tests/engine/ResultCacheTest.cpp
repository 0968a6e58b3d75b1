//===- tests/engine/ResultCacheTest.cpp -----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The memoizing entailment cache: canonical key construction
/// (alpha-invariance, symmetric-atom orientation, normalizations),
/// hit/miss accounting, LRU eviction, concurrent access, and the
/// single-flight acquire/publish/abandon protocol.
///
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"
#include "engine/CanonicalKey.h"
#include "engine/ResultCache.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace slp;
using namespace slp::engine;

namespace {

class ResultCacheTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  CanonicalQuery canon(const char *Input) {
    sl::ParseResult P = sl::parseEntailment(Terms, Input);
    EXPECT_TRUE(P.ok()) << Input;
    return CanonicalQuery::of(*P.Value);
  }
};

} // namespace

TEST_F(ResultCacheTest, KeyIsStable) {
  EXPECT_EQ(canon("x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("x != y & lseg(x, y) |- lseg(x, y)").key());
}

TEST_F(ResultCacheTest, KeyIsAlphaInvariant) {
  CanonicalQuery A = canon("x != y & lseg(x, y) * next(y, z) |- lseg(x, z)");
  CanonicalQuery B = canon("a != b & lseg(a, b) * next(b, c) |- lseg(a, c)");
  EXPECT_EQ(A.key(), B.key());
  EXPECT_EQ(A.hash(), B.hash());
}

TEST_F(ResultCacheTest, NilIsNotRenamed) {
  // nil has fixed semantics; a query about nil is not alpha-equivalent
  // to the same shape over an ordinary variable.
  EXPECT_NE(canon("next(x, nil) |- lseg(x, nil)").key(),
            canon("next(x, y) |- lseg(x, y)").key());
}

TEST_F(ResultCacheTest, SymmetricPureAtomsAreOriented) {
  EXPECT_EQ(canon("x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("y != x & lseg(x, y) |- lseg(x, y)").key());
  EXPECT_EQ(canon("x = nil |- lseg(x, nil)").key(),
            canon("nil = x |- lseg(x, nil)").key());
}

TEST_F(ResultCacheTest, NormalizationsApply) {
  // Duplicate pure conjuncts and trivial lseg(x, x) atoms vanish.
  EXPECT_EQ(canon("x != y & x != y & lseg(x, y) |- lseg(x, y)").key(),
            canon("x != y & lseg(x, y) |- lseg(x, y)").key());
  EXPECT_EQ(canon("lseg(x, x) * next(y, z) |- next(y, z)").key(),
            canon("next(y, z) |- next(y, z)").key());
  EXPECT_EQ(canon("x = x & next(y, z) |- next(y, z)").key(),
            canon("next(y, z) |- next(y, z)").key());
}

TEST_F(ResultCacheTest, DistinctStructuresGetDistinctKeys) {
  EXPECT_NE(canon("next(x, y) |- lseg(x, y)").key(),
            canon("lseg(x, y) |- lseg(x, y)").key());
  EXPECT_NE(canon("next(x, y) |- lseg(x, y)").key(),
            canon("next(x, y) |- next(x, y)").key());
  EXPECT_NE(canon("x = y |- x = y").key(), canon("x != y |- x != y").key());
}

TEST_F(ResultCacheTest, RebuildRoundTripsToSameKey) {
  const char *Inputs[] = {
      "x != y & lseg(x, y) * next(y, z) |- lseg(x, z)",
      "nil = nil |- x = y",
      "b != a & next(a, b) * lseg(b, nil) |- lseg(a, nil)",
  };
  for (const char *In : Inputs) {
    CanonicalQuery Q = canon(In);
    SymbolTable S2;
    TermTable T2(S2);
    sl::Entailment Rebuilt = Q.rebuild(T2);
    EXPECT_EQ(CanonicalQuery::of(Rebuilt).key(), Q.key()) << In;
  }
}

TEST_F(ResultCacheTest, RebuildNumbersConstantsLikeTheParser) {
  // The term order is symbol-creation order, so a rebuilt query must
  // intern its constants in the order the parser meets them in its
  // text; otherwise the engine and a backend that parses the canonical
  // text would prove the same query under different orders.
  const char *Inputs[] = {
      "x != y & next(a, b) |- lseg(a, b)",
      "x != y & lseg(x, y) * next(y, z) |- lseg(x, z)",
      "b != a & next(a, b) * lseg(b, nil) |- lseg(a, nil)",
      "p = q & next(q, r) * lseg(r, s) |- r != s & lseg(q, s)",
  };
  for (const char *In : Inputs) {
    CanonicalQuery Q = canon(In);
    SymbolTable S1;
    TermTable T1(S1);
    sl::Entailment Rebuilt = Q.rebuild(T1);
    SymbolTable S2;
    TermTable T2(S2);
    sl::ParseResult Reparsed = sl::parseEntailment(T2, sl::str(T1, Rebuilt));
    ASSERT_TRUE(Reparsed.ok()) << In;
    ASSERT_EQ(S1.size(), S2.size()) << In;
    for (uint32_t I = 0; I != S1.size(); ++I)
      EXPECT_EQ(T1.str(Symbol(I)), T2.str(Symbol(I))) << In << ": symbol " << I;
  }
}

TEST_F(ResultCacheTest, RebuildUnderSourceNamesKeepsSymbolIds) {
  // slp's render modes rebuild each query under its source names and
  // the engine under "v<i>": both must intern the constants in the same
  // order, so that both prove the same search.
  for (const std::string &Line : test::regressionQueryLines()) {
    SymbolTable SourceSyms;
    TermTable Source(SourceSyms);
    sl::ParseResult P = sl::parseEntailment(Source, Line);
    ASSERT_TRUE(P.ok()) << Line;
    CanonicalQuery Q = CanonicalQuery::of(*P.Value);
    SymbolTable PlainSyms, NamedSyms;
    TermTable PlainT(PlainSyms), NamedT(NamedSyms);
    sl::Entailment Plain = Q.rebuild(PlainT);
    sl::Entailment Named = Q.rebuild(NamedT, &Source);

    // The same symbol id, atom by atom.
    ASSERT_EQ(NamedSyms.size(), PlainSyms.size()) << Line;
    EXPECT_EQ(Named.Lhs.Pure, Plain.Lhs.Pure) << Line;
    EXPECT_EQ(Named.Lhs.Spatial, Plain.Lhs.Spatial) << Line;
    EXPECT_EQ(Named.Rhs.Pure, Plain.Rhs.Pure) << Line;
    EXPECT_EQ(Named.Rhs.Spatial, Plain.Rhs.Spatial) << Line;

    // Source names: read back into the source table, the named query
    // interns nothing new, and each of its atoms is an atom of the
    // query as written.
    const size_t NumSource = SourceSyms.size();
    sl::ParseResult Back = sl::parseEntailment(Source, sl::str(NamedT, Named));
    ASSERT_TRUE(Back.ok()) << Line;
    EXPECT_EQ(SourceSyms.size(), NumSource) << Line;
    auto ExpectSubset = [&](const sl::Assertion &Sub, const sl::Assertion &Of) {
      for (const sl::PureAtom &A : Sub.Pure)
        EXPECT_NE(std::find(Of.Pure.begin(), Of.Pure.end(), A), Of.Pure.end())
            << Line;
      for (const sl::HeapAtom &A : Sub.Spatial)
        EXPECT_NE(std::find(Of.Spatial.begin(), Of.Spatial.end(), A),
                  Of.Spatial.end())
            << Line;
    };
    ExpectSubset(Back.Value->Lhs, P.Value->Lhs);
    ExpectSubset(Back.Value->Rhs, P.Value->Rhs);
  }
}

TEST_F(ResultCacheTest, HitAndMissAccounting) {
  ResultCache Cache;
  CanonicalQuery Q = canon("x != y & lseg(x, y) |- lseg(x, y)");
  EXPECT_FALSE(Cache.lookup(Q).has_value());
  Cache.insert(Q, core::Verdict::Valid);
  std::optional<core::Verdict> Hit = Cache.lookup(Q);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, core::Verdict::Valid);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
}

TEST_F(ResultCacheTest, AlphaEquivalentQueriesCollide) {
  ResultCache Cache;
  Cache.insert(canon("x != y & lseg(x, y) * next(y, z) |- lseg(x, z)"),
               core::Verdict::Valid);
  std::optional<core::Verdict> Hit =
      Cache.lookup(canon("p != q & lseg(p, q) * next(q, r) |- lseg(p, r)"));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST_F(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache::Options Opts;
  Opts.NumShards = 1; // Single shard so capacity is exact.
  Opts.MaxEntries = 3;
  ResultCache Cache(Opts);

  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 5; ++I) {
    std::string Q = "next(x, y) |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  Cache.insert(Queries[0], core::Verdict::Valid);
  Cache.insert(Queries[1], core::Verdict::Invalid);
  Cache.insert(Queries[2], core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 3u);

  // Touch query 0 so query 1 becomes the LRU entry, then overflow.
  EXPECT_TRUE(Cache.lookup(Queries[0]).has_value());
  Cache.insert(Queries[3], core::Verdict::Invalid);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_TRUE(Cache.lookup(Queries[0]).has_value());
  EXPECT_FALSE(Cache.lookup(Queries[1]).has_value()) << "LRU not evicted";
  Cache.insert(Queries[4], core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_GE(Cache.stats().Evictions, 2u);
}

TEST_F(ResultCacheTest, CapacityEqualsRequestedBound) {
  // The shard split must neither overshoot nor undershoot the
  // requested bound: total capacity is exactly max(MaxEntries,
  // NumShards), with the division remainder spread across shards.
  struct Case {
    size_t Shards, MaxEntries, Want;
  };
  const Case Cases[] = {
      {16, 100, 100}, // 100 % 16 != 0: old code capped at 96.
      {7, 10, 10},    // old code: 7 * max(1, 10/7) = 7.
      {16, 5, 16},    // fewer entries than shards: one slot each.
      {16, 0, 16},
      {1, 3, 3},
      {4, 4, 4},
      {3, 1u << 20, 1u << 20},
  };
  for (const Case &C : Cases) {
    ResultCache::Options Opts;
    Opts.NumShards = C.Shards;
    Opts.MaxEntries = C.MaxEntries;
    ResultCache Cache(Opts);
    EXPECT_EQ(Cache.capacity(), C.Want)
        << C.Shards << " shards, " << C.MaxEntries << " entries";
  }
}

TEST_F(ResultCacheTest, SizeNeverExceedsCapacity) {
  ResultCache::Options Opts;
  Opts.NumShards = 4;
  Opts.MaxEntries = 10; // 10 = 4*2 + 2: two shards hold 3, two hold 2.
  ResultCache Cache(Opts);
  EXPECT_EQ(Cache.capacity(), 10u);
  for (int I = 0; I != 64; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J <= I; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Cache.insert(canon(Q.c_str()), core::Verdict::Valid);
    EXPECT_LE(Cache.size(), Cache.capacity());
  }
  EXPECT_GT(Cache.stats().Evictions, 0u);
}

TEST_F(ResultCacheTest, DuplicateInsertIsNoOp) {
  ResultCache Cache;
  CanonicalQuery Q = canon("next(x, y) |- lseg(x, y)");
  Cache.insert(Q, core::Verdict::Valid);
  Cache.insert(Q, core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.stats().Insertions, 1u);
}

TEST_F(ResultCacheTest, ClearEmptiesAllShards) {
  ResultCache Cache;
  Cache.insert(canon("next(x, y) |- lseg(x, y)"), core::Verdict::Valid);
  Cache.insert(canon("lseg(x, y) |- lseg(x, y)"), core::Verdict::Valid);
  EXPECT_EQ(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

TEST_F(ResultCacheTest, ConcurrentMixedAccessIsSafe) {
  ResultCache Cache;
  // Pre-build distinct canonical queries on the main thread (the
  // shared TermTable is not thread safe; the cache is the subject).
  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 16; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * next(x, y)" : "next(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  // Threads 0-1 use the plain lookup/insert pair, threads 2-3 the
  // single-flight acquire/publish pair, on the same keys.
  std::atomic<unsigned> Owners{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&Cache, &Queries, &Owners, T] {
      for (int Round = 0; Round != 200; ++Round) {
        const CanonicalQuery &Q = Queries[(T * 7 + Round) % Queries.size()];
        if (T < 2) {
          if (!Cache.lookup(Q))
            Cache.insert(Q, core::Verdict::Valid);
        } else if (!Cache.acquire(Q)) {
          ++Owners;
          Cache.publish(Q, core::Verdict::Valid);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, Queries.size());
  EXPECT_EQ(S.Hits + S.Misses, 4u * 200u);
  // Nothing is evicted, so a key is claimed at most once.
  EXPECT_LE(Owners.load(), Queries.size());
  for (const CanonicalQuery &Q : Queries)
    EXPECT_TRUE(Cache.lookup(Q).has_value());
}

TEST_F(ResultCacheTest, SecondClaimantBlocksUntilPublish) {
  ResultCache Cache;
  CanonicalQuery Q = canon("x != y & next(x, y) |- lseg(x, y)");
  ASSERT_FALSE(Cache.acquire(Q).has_value());

  std::atomic<bool> Returned{false};
  std::optional<core::Verdict> Got;
  std::thread Waiter([&] {
    Got = Cache.acquire(Q);
    Returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Returned) << "a claimed key must not be handed out twice";
  Cache.publish(Q, core::Verdict::Invalid);
  Waiter.join();

  ASSERT_TRUE(Got.has_value()) << "the waiter must see the owner's verdict";
  EXPECT_EQ(*Got, core::Verdict::Invalid);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u) << "a waiter counts as a hit";
  EXPECT_EQ(S.Misses, 1u);
}

TEST_F(ResultCacheTest, AbandonHandsTheKeyToExactlyOneWaiter) {
  ResultCache Cache;
  CanonicalQuery Q = canon("lseg(x, y) * next(y, z) |- lseg(x, z)");
  ASSERT_FALSE(Cache.acquire(Q).has_value());

  constexpr unsigned NumWaiters = 3;
  std::atomic<unsigned> Owners{0}, Hits{0};
  std::vector<std::thread> Waiters;
  for (unsigned I = 0; I != NumWaiters; ++I)
    Waiters.emplace_back([&] {
      std::optional<core::Verdict> V = Cache.acquire(Q);
      if (V) {
        EXPECT_EQ(*V, core::Verdict::Valid);
        ++Hits;
        return;
      }
      ++Owners;
      // Hold the claim a moment, so the other waiters block on it too.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Cache.publish(Q, core::Verdict::Valid);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Cache.abandon(Q); // E.g. the backend's answer did not parse.
  for (std::thread &T : Waiters)
    T.join();

  EXPECT_EQ(Owners.load(), 1u);
  EXPECT_EQ(Hits.load(), NumWaiters - 1);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 2u) << "the first owner and its successor";
  EXPECT_EQ(S.Hits, NumWaiters - 1);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST_F(ResultCacheTest, WaiterReclaimsAKeyEvictedBeforeItRechecks) {
  ResultCache::Options Opts;
  Opts.NumShards = 1;
  Opts.MaxEntries = 1;
  ResultCache Cache(Opts);
  CanonicalQuery Q1 = canon("next(x, y) |- next(x, y)");
  CanonicalQuery Q2 = canon("lseg(x, y) |- lseg(x, y)");
  ASSERT_FALSE(Cache.acquire(Q1).has_value());

  std::optional<core::Verdict> Got = core::Verdict::Unknown;
  std::thread Waiter([&] {
    Got = Cache.acquire(Q1);
    if (!Got)
      Cache.publish(Q1, core::Verdict::Valid);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Q1's verdict arrives and is evicted (one slot) before the blocked
  // waiter is woken to recheck.
  Cache.insert(Q1, core::Verdict::Valid);
  Cache.insert(Q2, core::Verdict::Valid);
  Cache.abandon(Q1);
  Waiter.join(); // Must not hang.

  EXPECT_FALSE(Got.has_value()) << "the waiter reclaims the key";
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_TRUE(Cache.lookup(Q1).has_value()) << "the reclaimer published";
}

TEST_F(ResultCacheTest, ConcurrentAcquireClaimsEachKeyOnce) {
  ResultCache Cache;
  std::vector<CanonicalQuery> Queries;
  for (int I = 0; I != 16; ++I) {
    std::string Q = "x != y |- ";
    for (int J = 0; J != I + 1; ++J)
      Q += (J ? " * lseg(x, y)" : "lseg(x, y)");
    Queries.push_back(canon(Q.c_str()));
  }

  constexpr unsigned NumThreads = 4, Rounds = 200;
  std::atomic<unsigned> Owners{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Cache, &Queries, &Owners, T] {
      for (unsigned Round = 0; Round != Rounds; ++Round) {
        const CanonicalQuery &Q = Queries[(T * 5 + Round) % Queries.size()];
        if (!Cache.acquire(Q)) {
          ++Owners;
          Cache.publish(Q, core::Verdict::Invalid);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  // Schedule-independent accounting: one miss per distinct key.
  EXPECT_EQ(Owners.load(), Queries.size());
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, Queries.size());
  EXPECT_EQ(S.Hits, NumThreads * Rounds - Queries.size());
  EXPECT_EQ(S.Insertions, Queries.size());
}
