//===- perfbench/Replay.cpp - Traced sequential replay --------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "analysis/StaticAnalyzer.h"
#include "engine/CanonicalKey.h"
#include "engine/ResultCache.h"
#include "sl/Parser.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

using namespace slp;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Records the spans of one replay; every call is a no-op when off.
class Recorder {
public:
  Recorder(bool On, size_t Queries) : On(On), T0(Clock::now()) {
    if (On)
      Spans.reserve(Queries * 8);
  }

  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
  }

  /// Times one call into layer \p L on behalf of query \p Id.
  class Scope {
  public:
    Scope(Recorder &R, Layer L, uint32_t Id)
        : R(R), L(L), Id(Id), Start(R.On ? R.now() : 0) {}
    ~Scope() {
      if (R.On)
        R.Spans.push_back({Start, R.now(), Id, L});
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder &R;
    Layer L;
    uint32_t Id;
    uint64_t Start;
  };

  const bool On;
  std::vector<Span> Spans;

private:
  Clock::time_point T0;
};

} // namespace

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Query:
    return "query";
  case Layer::SessionReset:
    return "core.session_reset";
  case Layer::Parse:
    return "sl.parse";
  case Layer::Analyze:
    return "analysis.analyze";
  case Layer::Canon:
    return "engine.canon";
  case Layer::CacheLookup:
    return "engine.cache_lookup";
  case Layer::Rebuild:
    return "engine.rebuild";
  case Layer::Prove:
    return "core.prove";
  case Layer::CacheInsert:
    return "engine.cache_insert";
  }
  return "?";
}

ReplayResult replay(const std::vector<engine::ProofTask> &Tasks,
                    const engine::BatchOptions &Opts, size_t Batch,
                    bool Record) {
  ReplayResult Out;
  Out.Outcomes.resize(Tasks.size());
  core::ProverSession Session(Opts.Prover);
  std::optional<engine::ResultCache> Cache;
  ProveCounters &PC = Out.Counters;
  Recorder Rec(Record, Tasks.size());
  Clock::time_point T0 = Clock::now();

  for (uint32_t Id = 0; Id != Tasks.size(); ++Id) {
    QueryOutcome &O = Out.Outcomes[Id];
    if (Id % Batch == 0)
      Cache.emplace(Opts.Cache);
    Recorder::Scope QuerySpan(Rec, Layer::Query, Id);

    {
      Recorder::Scope S(Rec, Layer::SessionReset, Id);
      Session.reset();
    }
    sl::ParseResult P = [&] {
      Recorder::Scope S(Rec, Layer::Parse, Id);
      return sl::parseEntailment(Session.terms(), Tasks[Id].Text);
    }();
    if (!P.ok()) {
      O.ParseError = true;
      continue;
    }

    if (Opts.Presolve) {
      analysis::AnalysisResult A = [&] {
        Recorder::Scope S(Rec, Layer::Analyze, Id);
        return analysis::analyze(Session.terms(), *P.Value);
      }();
      if (A.definitive()) {
        O.V = A.V;
        O.Presolved = true;
        continue;
      }
    }

    engine::CanonicalQuery Q = [&] {
      Recorder::Scope S(Rec, Layer::Canon, Id);
      return engine::CanonicalQuery::of(*P.Value);
    }();
    O.Key = Q.key();
    if (Opts.CacheEnabled) {
      std::optional<core::Verdict> Hit = [&] {
        Recorder::Scope S(Rec, Layer::CacheLookup, Id);
        return Cache->lookup(Q);
      }();
      if (Hit) {
        O.V = *Hit;
        continue;
      }
    }

    {
      Recorder::Scope S(Rec, Layer::SessionReset, Id);
      Session.reset();
    }
    sl::Entailment E = [&] {
      Recorder::Scope S(Rec, Layer::Rebuild, Id);
      return Q.rebuild(Session.terms());
    }();
    Fuel F = Opts.FuelPerQuery ? Fuel(Opts.FuelPerQuery) : Fuel();
    core::ProveResult R = [&] {
      Recorder::Scope S(Rec, Layer::Prove, Id);
      return Session.prove(E, F);
    }();
    O.V = R.V;
    O.Proved = true;
    O.Fuel = R.Stats.FuelUsed;

    const sup::SaturationStats &SS = Session.prover().saturation().stats();
    PC.Outer += R.Stats.OuterIterations;
    PC.Inner += R.Stats.InnerIterations;
    PC.Fuel += R.Stats.FuelUsed;
    PC.Derived += SS.Derived;
    PC.Kept += SS.Kept;
    PC.Demodulated += SS.Demodulated;
    PC.SubChecks += SS.SubChecks;
    PC.SubDeleted += SS.SubsumedFwd + SS.SubsumedBwd;
    PC.SubScanBaseline += SS.SubScanBaseline;
    PC.OrderHits += SS.OrderCacheHits;
    PC.OrderMisses += SS.OrderCacheMisses;
    PC.ModelAttempts += SS.ModelAttempts;
    PC.NfCacheReuse += SS.NfCacheReuse;
    PC.PoolEquationsMax = std::max(PC.PoolEquationsMax, SS.PoolEquations);

    if (Opts.CacheEnabled) {
      Recorder::Scope S(Rec, Layer::CacheInsert, Id);
      Cache->insert(Q, R.V);
    }
  }

  Out.WallSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();
  Out.Spans = std::move(Rec.Spans);
  return Out;
}

bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  // Process/thread names, then one complete event per span. Call spans
  // name their parent query span through args.query.
  std::fprintf(F, "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": 1, \"args\": {\"name\": \"perfbench replay\"}}");
  for (const Span &S : Spans)
    std::fprintf(F,
                 ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"query\": %u}}",
                 layerName(S.L), S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3,
                 S.QueryId);
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
