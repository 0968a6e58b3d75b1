//===- tools/CliUtil.h - Shared CLI option helpers --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Option-parsing helpers and `--stats` printers shared by slp,
/// slp-verify, slpgen and slp-fuzz, so a validation fix or a summary
/// line applies to every tool at once. In every tool `--stats`
/// means one thing: a run summary on stderr.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TOOLS_CLIUTIL_H
#define SLP_TOOLS_CLIUTIL_H

#include "engine/BatchProver.h"
#include "engine/Portfolio.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace slp {
namespace cli {

/// Parses the digits of `--opt=N`; false on empty, non-numeric,
/// negative, or out-of-range text. (strtoull silently wraps "-1" to
/// ULLONG_MAX, so the sign is rejected explicitly.)
inline bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text[0] == '-' || Text[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return *End == '\0' && errno != ERANGE;
}

/// Parses the value of `--opt=X` as a finite double; false on empty,
/// non-numeric, trailing-garbage, or non-finite text. (strtod accepts
/// "inf" and "nan", which no tool option wants.)
inline bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return *End == '\0' && errno != ERANGE && Out == Out &&
         Out <= 1e308 && Out >= -1e308;
}

/// Parses a probability option value: a double in [0, 1].
inline bool parseProbability(const std::string &Text, double &Out) {
  return parseDouble(Text, Out) && Out >= 0.0 && Out <= 1.0;
}

/// Parses a duration like "30" / "30s" / "2m" (seconds when
/// suffix-less) into seconds; false on anything else.
inline bool parseDuration(const std::string &Text, double &Out) {
  std::string Num = Text;
  double Scale = 1.0;
  if (!Num.empty() && (Num.back() == 's' || Num.back() == 'm')) {
    Scale = Num.back() == 'm' ? 60.0 : 1.0;
    Num.pop_back();
  }
  if (!parseDouble(Num, Out) || Out < 0)
    return false;
  Out *= Scale;
  return true;
}

/// Largest worker count the tools accept; far above any real machine,
/// but keeps a typo from asking the OS for billions of threads.
constexpr uint64_t MaxJobs = 4096;

/// Parses the value of `--backend=V` for a tool named \p Tool,
/// printing the shared diagnostic on failure. The accepted names are
/// slp | berdine | unfolding | portfolio (and greedy as a legacy alias
/// for unfolding).
inline bool parseBackendOpt(const char *Tool, const std::string &Value,
                            engine::BackendKind &Out) {
  std::optional<engine::BackendKind> K = engine::parseBackendKind(Value);
  if (!K) {
    std::fprintf(stderr,
                 "%s: unknown backend '%s' "
                 "(slp|berdine|unfolding|portfolio)\n",
                 Tool, Value.c_str());
    return false;
  }
  Out = *K;
  return true;
}

/// Prints the engine's `--stats` summary for a finished run to stderr:
/// throughput, verdicts, cache, pre-solver, clause intake,
/// subsumption, pools, model-guided saturation, phases, sessions and
/// one line per backend. Every line renders from the run's BatchStats,
/// except the prove-latency percentiles, which
/// only the `engine.phase.prove_ns` histogram holds. One
/// implementation for every tool that runs the engine.
inline void printBatchStats(const engine::BatchProver &Engine) {
  const engine::BatchOptions &Opts = Engine.options();
  const engine::BatchStats &S = Engine.stats();
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::fprintf(stderr,
               "batch: %llu queries in %.3fs (%.1f q/s, %llu workers; "
               "%llu steals, %llu attempts)\n"
               "verdicts: %llu valid, %llu invalid, %llu unknown, "
               "%llu parse errors\n"
               "cache: %s, hit rate %.1f%% (%llu hits, %llu misses, "
               "%llu entries, %llu evictions)\n",
               U(S.Queries), S.Seconds, S.throughput(), U(S.WorkersUsed),
               U(S.Steals), U(S.StealAttempts), U(S.Valid), U(S.Invalid),
               U(S.Unknown), U(S.ParseErrors),
               Opts.CacheEnabled ? "on" : "off", 100.0 * S.hitRate(),
               U(S.CacheHits), U(S.CacheMisses), U(S.CacheEntries),
               U(S.CacheEvictions));
  if (Opts.Presolve) {
    uint64_t Parsed = S.Queries - S.ParseErrors;
    std::fprintf(stderr,
                 "presolve: %llu of %llu decided statically (%.1f%%) in "
                 "%.3fs\n",
                 U(S.PresolvedValid), U(Parsed),
                 Parsed ? 100.0 * S.PresolvedValid / Parsed : 0.0,
                 S.PresolveSeconds);
  }
  const sup::SaturationStats &Sat = S.Sat;
  std::fprintf(stderr,
               "clauses: %llu derived, %llu kept, %llu tautologies, "
               "%llu demodulated; %llu compactions, %llu stale purged\n",
               U(Sat.Derived), U(Sat.Kept), U(Sat.Tautologies),
               U(Sat.Demodulated), U(Sat.Compactions), U(Sat.StalePurged));
  double Prune =
      Sat.SubChecks ? static_cast<double>(Sat.SubScanBaseline) / Sat.SubChecks
                    : 0.0;
  std::fprintf(stderr,
               "subsumption: %llu fwd, %llu bwd, %llu checks of "
               "%llu scan-equivalent (%.1fx pruned)\n",
               U(Sat.SubsumedFwd), U(Sat.SubsumedBwd), U(Sat.SubChecks),
               U(Sat.SubScanBaseline), Prune);
  uint64_t MemoTotal = Sat.OrderCacheHits + Sat.OrderCacheMisses;
  std::fprintf(stderr,
               "pools: %llu equations, %llu literals; order memo "
               "%llu hits / %llu misses (%.1f%%)\n",
               U(Sat.PoolEquations), U(Sat.PoolLiterals),
               U(Sat.OrderCacheHits), U(Sat.OrderCacheMisses),
               MemoTotal ? 100.0 * Sat.OrderCacheHits / MemoTotal : 0.0);
  std::fprintf(stderr,
               "model-guided (incremental): %llu attempts, %llu gen "
               "positions replay-skipped, %llu cert checks skipped, %llu "
               "nf-cache reuses\n",
               U(Sat.ModelAttempts), U(Sat.GenReplayedFrom),
               U(Sat.CertSkipped), U(Sat.NfCacheReuse));
  // `wait` is time blocked on another worker's prove of the same key.
  std::fprintf(stderr,
               "phases (worker-seconds): parse %.3f, prove %.3f, "
               "cache %.3f, wait %.3f\n",
               S.ParseSeconds, S.ProveSeconds, S.CacheSeconds,
               S.CacheWaitSeconds);
  obs::HistogramSnapshot Prove =
      obs::metrics().histogram("engine.phase.prove_ns").snapshot();
  if (Prove.Count)
    std::fprintf(stderr,
                 "prove latency: p50 %.0fus, p90 %.0fus, p99 %.0fus, "
                 "max %.0fus over %llu proofs\n",
                 Prove.quantile(0.5) * 1e-3, Prove.quantile(0.9) * 1e-3,
                 Prove.quantile(0.99) * 1e-3,
                 static_cast<double>(Prove.Max) * 1e-3, U(Prove.Count));
  std::fprintf(stderr,
               "sessions: %llu workers, %llu resets, %llu terms reclaimed\n",
               U(S.Sessions), U(S.SessionResets), U(S.TermsReclaimed));
  // A single-backend line degenerates to races == definitive == wins.
  for (const engine::BackendTally &T : S.Backends)
    std::fprintf(stderr,
                 "backend %-9s %llu wins / %llu races "
                 "(%llu definitive, %llu cancelled, %.3f worker-s, "
                 "%llu fuel)\n",
                 T.Name.c_str(), U(T.Wins), U(T.Races), U(T.Definitive),
                 U(T.Cancelled), T.Seconds, U(T.FuelUsed));
}

/// The shared `--trace=` / `--metrics-json=` options: every tool that
/// runs the prover accepts both, so the whole stack is traceable with
/// the same two flags.
struct TelemetryOptions {
  std::string TracePath;       ///< Chrome trace-event JSON output.
  std::string MetricsJsonPath; ///< MetricsSnapshot::json() output.
  bool Ok = true;              ///< False after a bad (empty) value.
};

/// Matches \p Arg against the shared telemetry options for the tool
/// named \p Tool. Returns true when the option was one of them (check
/// \p Out.Ok afterwards — an empty path is diagnosed here).
inline bool parseTelemetryOpt(const char *Tool, const std::string &Arg,
                              TelemetryOptions &Out) {
  std::string *Dst = nullptr;
  size_t Skip = 0;
  if (Arg.rfind("--trace=", 0) == 0) {
    Dst = &Out.TracePath;
    Skip = 8;
  } else if (Arg.rfind("--metrics-json=", 0) == 0) {
    Dst = &Out.MetricsJsonPath;
    Skip = 15;
  } else {
    return false;
  }
  *Dst = Arg.substr(Skip);
  if (Dst->empty()) {
    std::fprintf(stderr, "%s: empty path in '%s'\n", Tool, Arg.c_str());
    Out.Ok = false;
  }
  return true;
}

/// Enables the trace recorder when --trace= was given. Call after
/// argument parsing, before the engine runs.
inline void startTelemetry(const TelemetryOptions &O) {
  if (!O.TracePath.empty())
    obs::TraceRecorder::global().start(O.TracePath);
}

/// Writes the trace and metrics files requested on the command line.
/// Call once on every exit path after the engine ran. Returns false
/// (with a diagnostic) when a file could not be written.
inline bool finishTelemetry(const char *Tool, const TelemetryOptions &O) {
  bool Ok = true;
  if (!O.TracePath.empty() && !obs::TraceRecorder::global().finish()) {
    std::fprintf(stderr, "%s: cannot write trace file '%s'\n", Tool,
                 O.TracePath.c_str());
    Ok = false;
  }
  if (!O.MetricsJsonPath.empty() &&
      !obs::writeMetricsJson(O.MetricsJsonPath)) {
    std::fprintf(stderr, "%s: cannot write metrics file '%s'\n", Tool,
                 O.MetricsJsonPath.c_str());
    Ok = false;
  }
  return Ok;
}

} // namespace cli
} // namespace slp

#endif // SLP_TOOLS_CLIUTIL_H
