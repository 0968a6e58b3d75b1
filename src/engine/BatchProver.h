//===- engine/BatchProver.h - Concurrent batch proving ----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch proving engine: N pool workers (the calling thread is
/// worker 0) drain a work-stealing StealPool over a batch of
/// ProofTasks (textual entailment obligations from a corpus file, the
/// symbolic executor, or any other source), memoizing verdicts in a
/// shared single-flight ResultCache keyed by the alpha-invariant
/// CanonicalQuery: each key of a batch is proved once, and a worker
/// that meets a key another worker is proving waits for that verdict
/// instead of proving it again. Each worker owns a contiguous block
/// of the batch and steals half of a straggler's remainder when it
/// drains, so heavy-tailed query costs stop serializing the tail of
/// the run.
///
/// Each worker owns one core::ProverSession, built the first time a
/// run needs that worker and reused by every later run() of the
/// engine: the task is parsed once, straight into the session's term
/// table on top of its baseline checkpoint; on a cache miss the table
/// is rewound and the *canonical* entailment is re-materialized at the
/// baseline and proved there. The rewind restores exactly the
/// freshly-constructed table state (dense ids reassigned
/// deterministically), so the verdict remains a pure function of the
/// canonical key — independent of worker count, scheduling
/// interleaving, earlier runs, and of which alpha-variant of a query
/// populated the cache first — while table construction, the second
/// parse of the old engine, and most allocator traffic disappear from
/// the per-query cost, and a one-task run on a long-lived engine
/// builds nothing. Results are reported in input order; a `--jobs=8`
/// run is byte-identical to a sequential one.
///
/// The engine can also discharge tasks through any
/// core::EntailmentBackend (BatchOptions::Backend): the Berdine and
/// unfolding baselines, or the racing portfolio. Those paths still
/// canonicalize and cache in the worker's session, then hand the
/// *canonical* text to the backend, so verdicts stay pure functions of
/// the canonical key; per-backend win/loss/time tallies are merged
/// into BatchStats::Backends.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_BATCHPROVER_H
#define SLP_ENGINE_BATCHPROVER_H

#include "core/ProofTask.h"
#include "core/ProverSession.h"
#include "engine/Portfolio.h"
#include "engine/ResultCache.h"

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace slp {
namespace engine {

/// The engine's unit of work (defined in core/, where every backend's
/// prove() takes it).
using core::ProofTask;

/// Engine configuration.
struct BatchOptions {
  unsigned Jobs = 1;          ///< Worker threads; 0 = hardware concurrency.
  bool CacheEnabled = true;   ///< Consult/populate the ResultCache.
  /// Run the polynomial static analyzer (analysis::analyze) on each
  /// parsed query ahead of the cache lookup, for every backend; a
  /// Valid analyzer verdict skips canonicalization, cache, and backend
  /// entirely. The analyzer is sound and never answers Invalid, so for
  /// the complete backends (slp, berdine, portfolio) verdicts are
  /// identical either way. The incomplete unfolder misses some valid
  /// queries, so with it the pre-solver proves queries the unfolder
  /// alone cannot; turn it off to measure the bare backend.
  bool Presolve = true;
  uint64_t FuelPerQuery = 0;  ///< Inference budget per query; 0 = unlimited.
                              ///< For the portfolio backend this is the
                              ///< per-member budget of each race.
  ResultCache::Options Cache; ///< Shard count and capacity.
  core::ProverOptions Prover; ///< Forwarded to every worker session.
  /// Which prover discharges the tasks. Slp proves directly in the
  /// worker's session (the fast path); the baselines and the portfolio
  /// go through the core::EntailmentBackend interface, one backend
  /// instance per worker.
  BackendKind Backend = BackendKind::Slp;
};

/// Resolves a requested job count: 0 means hardware concurrency (with
/// a fallback of 1 when the runtime reports none).
inline unsigned resolveJobs(unsigned Requested) {
  if (Requested)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

/// What happened to one query of the batch.
enum class QueryStatus : uint8_t {
  Ok,         ///< Proved (or answered from cache).
  ParseError, ///< The query text did not parse; see Error.
};

/// Per-query outcome, reported in input order.
struct QueryResult {
  QueryStatus Status = QueryStatus::Ok;
  core::Verdict V = core::Verdict::Unknown;
  bool FromCache = false;
  /// Proved Valid by the static pre-solver; the saturation prover (and
  /// the cache) never saw this query.
  bool Presolved = false;
  uint64_t FuelUsed = 0; ///< 0 for cache hits and parse errors.
  /// Saturation counters of the proof (all 0 for cache hits, parse
  /// errors, presolved queries and the baseline backends).
  sup::SaturationStats Sat;
  /// Backend that produced the verdict ("slp", "berdine", ...; for
  /// portfolio runs, the race winner). Empty for cache hits, parse
  /// errors, and undecided portfolio races.
  std::string Backend;
  std::string Error;     ///< Parse diagnostic when Status == ParseError.

  /// Stable one-word rendering used by the tools' output.
  const char *verdictText() const {
    return Status == QueryStatus::ParseError ? "parse-error"
                                             : core::verdictName(V);
  }
};

/// How BatchProver::run mirrors a BatchStats count into the metrics
/// registry.
enum class Mirror : uint8_t {
  Counter,  ///< Added to the counter of that name.
  Gauge,    ///< Set as the gauge of that name (the latest run's value).
  Presolve, ///< A counter, registered only by runs with the pre-solver.
};

/// The account of one run(): the only per-run record of the engine.
/// Each worker keeps one for its share of the batch, run() sums them,
/// and the `--stats` printer and the registry mirror both read the
/// sum. Merging and the registry names go through the BatchCounters
/// and BatchSeconds tables below, so a new count is one field plus
/// one table row.
struct BatchStats {
  double Seconds = 0;
  uint64_t Queries = 0;
  uint64_t Valid = 0, Invalid = 0, Unknown = 0, ParseErrors = 0;
  /// Lookups answered by the cache and lookups that claimed the key
  /// to prove it (a lookup that waited for another worker's verdict
  /// is a hit, so misses = distinct keys at any job count).
  uint64_t CacheHits = 0, CacheMisses = 0;
  /// What only the cache sees, read from its CacheStats at the end of
  /// the run: verdicts it stored and entries it evicted during the run,
  /// and its size at the end.
  uint64_t CacheInsertions = 0, CacheEvictions = 0, CacheEntries = 0;
  /// Queries the static pre-solver proved Valid, and those it handed
  /// on to the backend (PresolveSeconds includes the latter).
  uint64_t PresolvedValid = 0, PresolveMisses = 0;
  double PresolveSeconds = 0;
  /// Saturation counters summed over every proved (non-cached) query:
  /// the sum of the per-query QueryResult::Sat.
  sup::SaturationStats Sat;
  /// Work distribution over the run: workers actually used (1 for a
  /// batch of at most one task, else the resolved Jobs), and the steal
  /// pool's counters (all zero with one worker: nobody to steal from).
  uint64_t WorkersUsed = 0;
  uint64_t Steals = 0, StealAttempts = 0;
  /// Per-phase wall clock, summed across workers (CPU-seconds; the
  /// sum can exceed Seconds when Jobs > 1): text parsing, proving
  /// (including the canonical rebuild), and cache lookups/inserts.
  double ParseSeconds = 0, ProveSeconds = 0, CacheSeconds = 0;
  /// Worker-seconds spent blocked in ResultCache::acquire() while
  /// another worker proved the same key: idle, not cache work, so not
  /// part of CacheSeconds. Depends on scheduling, unlike the counts.
  double CacheWaitSeconds = 0;
  /// Worker-session reuse counters, aggregated over the sessions the
  /// run used (one per worker, however many runs it has served):
  /// sessions, rewinds back to the baseline table during the run, and
  /// query-local terms the run's queries interned (dropped by those
  /// rewinds, or left by each worker's last query), so the count is
  /// the per-query sum, whichever worker proves which query.
  uint64_t Sessions = 0;
  uint64_t SessionResets = 0;
  uint64_t TermsReclaimed = 0;
  /// Per-backend win/loss/time breakdown in member order (one entry
  /// for non-portfolio runs). Cache hits, pre-solved queries and parse
  /// errors are not races and appear in no tally.
  std::vector<BackendTally> Backends;

  double throughput() const { return Seconds > 0 ? Queries / Seconds : 0; }
  double hitRate() const {
    uint64_t Lookups = CacheHits + CacheMisses;
    return Lookups ? static_cast<double>(CacheHits) / Lookups : 0.0;
  }

  /// Accounts one query's outcome: its verdict, whether the pre-solver
  /// decided it, and its saturation counters.
  void record(const QueryResult &R);
  /// Field-wise sum. The tallies add by index: every worker of a run
  /// lists the same backends in the same order.
  BatchStats &operator+=(const BatchStats &O);
  /// Calls \p F(Name, Value, How) for every count the registry
  /// mirrors: the BatchCounters rows, the `sat.*` counters of Sat and
  /// the `backend.<name>.*` counters of each tally.
  template <typename Fn> void forEachMirrored(Fn &&F) const;
};

/// One count of BatchStats, its metrics-registry name and how the
/// registry receives it.
struct BatchCounter {
  const char *Name;
  uint64_t BatchStats::*Field;
  Mirror How;
};

/// Every count of BatchStats outside Sat and Backends, in mirror order.
/// The names are the `engine.*`, `cache.*`, `analysis.presolved.*` and
/// `session.*` catalogue of docs/observability.md.
inline constexpr BatchCounter BatchCounters[] = {
    {"engine.queries", &BatchStats::Queries, Mirror::Counter},
    {"engine.parse_errors", &BatchStats::ParseErrors, Mirror::Counter},
    {"engine.valid", &BatchStats::Valid, Mirror::Counter},
    {"engine.invalid", &BatchStats::Invalid, Mirror::Counter},
    {"engine.unknown", &BatchStats::Unknown, Mirror::Counter},
    {"cache.hits", &BatchStats::CacheHits, Mirror::Counter},
    {"cache.misses", &BatchStats::CacheMisses, Mirror::Counter},
    {"cache.insertions", &BatchStats::CacheInsertions, Mirror::Counter},
    {"cache.evictions", &BatchStats::CacheEvictions, Mirror::Counter},
    {"cache.entries", &BatchStats::CacheEntries, Mirror::Gauge},
    {"analysis.presolved.valid", &BatchStats::PresolvedValid,
     Mirror::Presolve},
    {"analysis.presolved.miss", &BatchStats::PresolveMisses,
     Mirror::Presolve},
    {"engine.sessions", &BatchStats::Sessions, Mirror::Gauge},
    {"session.resets", &BatchStats::SessionResets, Mirror::Counter},
    {"session.terms_reclaimed", &BatchStats::TermsReclaimed,
     Mirror::Counter},
    {"engine.workers", &BatchStats::WorkersUsed, Mirror::Gauge},
    {"engine.steal.steals", &BatchStats::Steals, Mirror::Counter},
    {"engine.steal.attempts", &BatchStats::StealAttempts, Mirror::Counter},
};

/// Every seconds field of BatchStats. The registry's latency
/// histograms are fed by the same clock reads (ScopedTimer), so these
/// are summed but not mirrored.
inline constexpr double BatchStats::*BatchSeconds[] = {
    &BatchStats::Seconds,      &BatchStats::PresolveSeconds,
    &BatchStats::ParseSeconds, &BatchStats::ProveSeconds,
    &BatchStats::CacheSeconds, &BatchStats::CacheWaitSeconds,
};

static_assert(std::size(BatchCounters) * sizeof(uint64_t) +
                      std::size(BatchSeconds) * sizeof(double) +
                      sizeof(sup::SaturationStats) +
                      sizeof(std::vector<BackendTally>) ==
                  sizeof(BatchStats),
              "every BatchStats field needs a BatchCounters or "
              "BatchSeconds row");

template <typename Fn> void BatchStats::forEachMirrored(Fn &&F) const {
  for (const BatchCounter &C : BatchCounters)
    F(std::string_view(C.Name), this->*C.Field, C.How);
  Sat.forEach([&F](const char *Name, uint64_t V) {
    F(std::string_view(Name), V, Mirror::Counter);
  });
  for (const BackendTally &T : Backends) {
    const std::string P = "backend." + T.Name + ".";
    F(P + "races", T.Races, Mirror::Counter);
    F(P + "wins", T.Wins, Mirror::Counter);
    F(P + "definitive", T.Definitive, Mirror::Counter);
    F(P + "cancelled", T.Cancelled, Mirror::Counter);
    F(P + "fuel", T.FuelUsed, Mirror::Counter);
    F(P + "time_ns", static_cast<uint64_t>(T.Seconds * 1e9), Mirror::Counter);
  }
}

/// Orchestrates concurrent proving of proof-task batches. The cache
/// and the workers persist across run() calls, so a warm engine
/// answers repeated corpora almost entirely from memory and starts
/// each run with warm sessions.
class BatchProver {
public:
  explicit BatchProver(BatchOptions Opts = {});

  /// Discharges every task of \p Tasks; returns results in input
  /// order.
  std::vector<QueryResult> run(const std::vector<ProofTask> &Tasks);

  /// Convenience overload: proves every query of \p Queries (one
  /// entailment each, in the slp concrete syntax) as anonymous tasks.
  std::vector<QueryResult> run(const std::vector<std::string> &Queries);

  /// Counters of the most recent run().
  const BatchStats &stats() const { return Stats; }

  const ResultCache &cache() const { return Cache; }
  const BatchOptions &options() const { return Opts; }

  /// Splits corpus text into query lines, dropping blanks and
  /// comment-only lines (`#` or `//`). When \p LineNos is non-null it
  /// receives the 1-based source line of each returned query, so
  /// callers can report diagnostics against the original file.
  static std::vector<std::string>
  splitCorpus(std::string_view Text, std::vector<unsigned> *LineNos = nullptr);

private:
  /// Everything one worker owns for the life of the engine: the
  /// parse/canonicalization session (which doubles as the proving
  /// session on the Slp fast path), the backend object for the other
  /// backends, and the worker's share of the current run's account.
  struct Worker {
    explicit Worker(const BatchOptions &Opts);

    /// Zeroes Stats for a new run, keeping the tallies' names, and
    /// notes the session's counts so that finishRun() reports the
    /// run's share of them.
    void startRun();
    /// Completes Stats once the worker has drained: the session rows
    /// and a portfolio's tallies.
    void finishRun();

    core::ProverSession Session;
    /// Null on the Slp fast path (the session itself proves).
    std::unique_ptr<core::EntailmentBackend> Backend;
    /// Set iff Backend is a portfolio (it keeps its own tallies).
    PortfolioProver *Portfolio = nullptr;
    /// The worker's share of the run. Its Backends holds the single
    /// backend's tally, kept by proveOne; finishRun() takes a
    /// portfolio's own tallies in.
    BatchStats Stats;
    /// The session's resets, and the terms it had released or held, at
    /// the start of the run.
    uint64_t ResetsBefore = 0, TermsBefore = 0;
  };

  QueryResult proveOne(const ProofTask &Task, Worker &W);

  BatchOptions Opts;
  ResultCache Cache;
  /// Cache.stats() as of the end of the last run() that changed it.
  CacheStats CacheSeen;
  BatchStats Stats;
  /// Worker J serves every run that uses at least J + 1 workers; null
  /// until the first such run.
  std::vector<std::unique_ptr<Worker>> Workers;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_BATCHPROVER_H
