//===- perfbench/Replay.h - Traced sequential replay ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequential replay of a workload through the same public
/// calls engine::BatchProver::proveOne makes on the SLP path, in the same
/// order:
///
///   reset -> parseEntailment -> analyze -> CanonicalQuery::of -> lookup
///         -> reset + rebuild -> ProverSession::prove -> insert
///
/// With recording on, it keeps one span per call in memory (layer,
/// start, end, query id; the query's own span is the parent of every
/// call span) and reads the counters prove() and the saturation engine
/// already return. The spans are written once, at the end, as a Chrome
/// trace. Nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_PERFBENCH_REPLAY_H
#define SLP_PERFBENCH_REPLAY_H

#include "engine/BatchProver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer a span belongs to; Query is the parent of all others.
enum class Layer : uint8_t {
  Query,
  SessionReset,
  Parse,
  Analyze,
  Canon,
  CacheLookup,
  Rebuild,
  Prove,
  CacheInsert,
};
constexpr unsigned NumLayers = 9;

/// Span name as written to the trace, e.g. "sl.parse".
const char *layerName(Layer L);

struct Span {
  uint64_t StartNs, EndNs; ///< Relative to the replay's start.
  uint32_t QueryId;
  Layer L;
};

/// What the replay saw for one query.
struct QueryOutcome {
  slp::core::Verdict V = slp::core::Verdict::Unknown;
  bool ParseError = false;
  bool Presolved = false;
  bool Proved = false;
  uint64_t Fuel = 0; ///< Fuel of the prove() call; 0 if none was made.
  std::string Key;   ///< Canonical key; empty if presolved or unparsed.
};

/// Sums of the counters the public API returns, over every prove().
struct ProveCounters {
  uint64_t Outer = 0, Inner = 0, Fuel = 0;
  uint64_t Derived = 0, Kept = 0, Demodulated = 0;
  uint64_t SubChecks = 0, SubDeleted = 0, SubScanBaseline = 0;
  uint64_t OrderHits = 0, OrderMisses = 0;
  uint64_t ModelAttempts = 0, NfCacheReuse = 0;
  uint64_t PoolEquationsMax = 0;
};

struct ReplayResult {
  std::vector<QueryOutcome> Outcomes;
  std::vector<Span> Spans; ///< Empty unless recording.
  double WallSeconds = 0;
  ProveCounters Counters;
};

/// Replays \p Tasks sequentially with the engine configuration \p Opts
/// (SLP backend; Jobs is ignored). The result cache starts empty every
/// \p Batch tasks, as each batch of a throughput pass runs on a fresh
/// engine. \p Record turns span recording on.
ReplayResult replay(const std::vector<slp::engine::ProofTask> &Tasks,
                    const slp::engine::BatchOptions &Opts, size_t Batch,
                    bool Record);

/// Writes \p Spans as Chrome trace-event JSON ("X" events, one per
/// span). False on I/O failure.
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // SLP_PERFBENCH_REPLAY_H
