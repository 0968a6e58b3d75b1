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
/// Each worker owns one core::ProverSession for the whole batch: the
/// task is parsed once, straight into the session's term table on top
/// of its baseline checkpoint; on a cache miss the table is rewound
/// and the *canonical* entailment is re-materialized at the baseline
/// and proved there. The rewind restores exactly the
/// freshly-constructed table state (dense ids reassigned
/// deterministically), so the verdict remains a pure function of the
/// canonical key — independent of worker count, scheduling
/// interleaving, and of which alpha-variant of a query populated the
/// cache first — while table construction, the second parse of the
/// old engine, and most allocator traffic disappear from the per-query
/// cost. Results are reported in input order; a `--jobs=8` run is
/// byte-identical to a sequential one.
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
#include "support/Fuel.h"

#include <memory>
#include <string>
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
  /// Optional batch-level preemption: when the token fires, workers
  /// stop claiming tasks at their next item boundary (the in-flight
  /// query finishes; unclaimed tasks report Verdict::Unknown). The
  /// token must outlive run().
  const CancelToken *Cancel = nullptr;
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

/// Aggregate counters for one run().
struct BatchStats {
  double Seconds = 0;
  size_t Queries = 0;
  size_t Valid = 0, Invalid = 0, Unknown = 0, ParseErrors = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  /// Queries the static pre-solver proved Valid (mirrored to the
  /// analysis.presolved.* counters; PresolveSeconds includes the
  /// misses that fell through to the prover).
  size_t PresolvedValid = 0;
  double PresolveSeconds = 0;
  /// Saturation counters summed over every proved (non-cached) query:
  /// the sum of the per-query QueryResult::Sat.
  sup::SaturationStats Sat;
  /// Work distribution over the run: workers actually used (1 for a
  /// batch of at most one task, else the resolved Jobs), and the steal
  /// pool's counters (all zero with one worker: nobody to steal from).
  unsigned WorkersUsed = 0;
  uint64_t Steals = 0, StealAttempts = 0;
  /// Per-phase wall clock, summed across workers (CPU-seconds; the
  /// sum can exceed Seconds when Jobs > 1): text parsing, proving
  /// (including the canonical rebuild), and cache lookups/inserts.
  double ParseSeconds = 0, ProveSeconds = 0, CacheSeconds = 0;
  /// Worker-seconds spent blocked in ResultCache::acquire() while
  /// another worker proved the same key: idle, not cache work, so not
  /// part of CacheSeconds. Depends on scheduling, unlike the counts.
  double CacheWaitSeconds = 0;
  /// Worker-session reuse counters, aggregated over all sessions of
  /// the run: sessions constructed (== workers), rewinds back to the
  /// baseline table, and query-local terms dropped by those rewinds.
  size_t Sessions = 0;
  uint64_t SessionResets = 0;
  uint64_t TermsReclaimed = 0;
  /// Per-backend win/loss/time breakdown, merged across workers, in
  /// member order (single entry for non-portfolio runs). Cache hits
  /// and parse errors are not races and appear in no tally.
  std::vector<BackendTally> Backends;

  double throughput() const { return Seconds > 0 ? Queries / Seconds : 0; }
  double hitRate() const {
    uint64_t Lookups = CacheHits + CacheMisses;
    return Lookups ? static_cast<double>(CacheHits) / Lookups : 0.0;
  }
};

/// Orchestrates concurrent proving of proof-task batches. The cache
/// persists across run() calls, so a warm engine answers repeated
/// corpora almost entirely from memory.
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
  /// Everything one worker owns for the duration of a batch: the
  /// parse/canonicalization session (which doubles as the proving
  /// session on the Slp fast path), the backend object for the other
  /// backends, and the per-backend accounting.
  struct Worker {
    explicit Worker(const BatchOptions &Opts);

    core::ProverSession Session;
    /// Null on the Slp fast path (the session itself proves).
    std::unique_ptr<core::EntailmentBackend> Backend;
    /// Set iff Backend is a portfolio (it keeps its own tallies).
    PortfolioProver *Portfolio = nullptr;
    /// Single-backend tally, synthesized by proveOne; unused when
    /// Portfolio is set.
    BackendTally Tally;
    double ParseSeconds = 0, PresolveSeconds = 0, ProveSeconds = 0,
           CacheSeconds = 0, CacheWaitSeconds = 0;
    /// Counted at the lookup itself, so a task that a cancellation left
    /// unclaimed is neither a cache miss nor a pre-solver miss.
    uint64_t CacheHits = 0, CacheMisses = 0, PresolveMisses = 0;

    /// The tallies to merge into BatchStats at end of batch.
    std::vector<BackendTally> tallies() const;
  };

  QueryResult proveOne(const ProofTask &Task, Worker &W);

  BatchOptions Opts;
  ResultCache Cache;
  BatchStats Stats;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_BATCHPROVER_H
