//===- engine/Portfolio.h - Racing backend portfolio ------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portfolio scheduler: races a configurable set of entailment
/// backends on each task, accepts the first *definitive* verdict
/// (Valid, or Invalid with countermodel — the incomplete unfolder's
/// NotProved/Unknown never wins), and cancels the losers through a
/// shared CancelToken threaded into every racer's Fuel. Complementary
/// engines widen the workload: the greedy unfolder answers the easy
/// syntactic bulk almost for free, the Berdine splitter is quick on
/// small aliasing-light sequents, and SLP bounds the worst case —
/// racing them costs one extra thread per member and wins whenever the
/// cheap engines get there first (see docs/backends.md).
///
/// Determinism: all members are sound and the complete members agree
/// with SLP on every decided query, so the *verdict* is independent of
/// which member wins the race; the win attribution in the per-backend
/// tallies is timing-dependent, and so is BackendResult::CexText on
/// Invalid verdicts: the Berdine member decides invalidity without
/// materializing a heap, so a race it wins carries no countermodel
/// (`slp --model` then proves the query with SLP for one — see
/// docs/backends.md). With unlimited fuel a portfolio containing SLP
/// decides exactly what --backend=slp decides.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_PORTFOLIO_H
#define SLP_ENGINE_PORTFOLIO_H

#include "core/Backend.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace slp {
namespace engine {

/// Selects a proving backend across the tools and the engine.
enum class BackendKind : uint8_t { Slp, Berdine, Unfolding, Portfolio };

const char *backendKindName(BackendKind K);

/// Parses a --backend= value. Accepts "slp", "berdine", "unfolding",
/// "portfolio", plus "greedy" as a legacy alias for "unfolding".
std::optional<BackendKind> parseBackendKind(std::string_view Name);

/// Instantiates a backend. \p Opts configures the SLP prover (also
/// inside a portfolio) and is ignored by the baselines;
/// BackendKind::Portfolio yields a default-member portfolio whose
/// per-member budgets come from the Fuel handed to each prove().
std::unique_ptr<core::EntailmentBackend>
makeBackend(BackendKind K, const core::ProverOptions &Opts = {});

/// Per-backend win/loss/time accounting, accumulated over prove()
/// calls by the portfolio (and kept by the engine for single-backend
/// runs, so --stats reads the same everywhere).
struct BackendTally {
  std::string Name;
  uint64_t Races = 0;      ///< Tasks this backend ran on.
  uint64_t Wins = 0;       ///< Supplied the accepted verdict.
  uint64_t Definitive = 0; ///< Definitive verdicts returned (a losing
                           ///< definitive verdict counts here, not in
                           ///< Wins).
  uint64_t Cancelled = 0;  ///< Races abandoned on cancellation —
                           ///< another member had already won, or the
                           ///< caller's own token fired mid-race.
  double Seconds = 0;      ///< Wall clock summed over races (the
                           ///< members run concurrently, so the sum
                           ///< exceeds the portfolio's elapsed time).
  uint64_t FuelUsed = 0;   ///< Inference steps summed over races.

  /// Accounts one race of this backend.
  void record(bool Won, bool Decided, bool GaveUp, double RaceSeconds,
              uint64_t RaceFuel) {
    ++Races;
    Wins += Won;
    Definitive += Decided;
    Cancelled += GaveUp;
    Seconds += RaceSeconds;
    FuelUsed += RaceFuel;
  }

  /// Adds \p O's races; both must tally the same backend.
  BackendTally &operator+=(const BackendTally &O) {
    Races += O.Races;
    Wins += O.Wins;
    Definitive += O.Definitive;
    Cancelled += O.Cancelled;
    Seconds += O.Seconds;
    FuelUsed += O.FuelUsed;
    return *this;
  }
};

/// Portfolio configuration.
struct PortfolioOptions {
  /// The racing members, in tally/reporting order. Must be non-empty
  /// and must not contain BackendKind::Portfolio.
  std::vector<BackendKind> Backends = {
      BackendKind::Slp, BackendKind::Berdine, BackendKind::Unfolding};
  /// Configuration for the SLP member.
  core::ProverOptions Prover;
};

/// Races the configured backends per task. Itself an
/// EntailmentBackend, so everything that can drive one backend can
/// drive a portfolio. Not thread safe (the engine keeps one per
/// worker); the concurrency is inside prove(): members 1..N-1 run on
/// persistent worker threads (spawned once at construction, woken per
/// task — no per-task thread create/join), member 0 on the calling
/// thread.
class PortfolioProver final : public core::EntailmentBackend {
public:
  explicit PortfolioProver(PortfolioOptions Opts = {});
  ~PortfolioProver() override;

  const char *name() const override { return "portfolio"; }

  /// Complete iff some member is complete.
  bool complete() const override;

  /// Races every member on \p Task; returns the first definitive
  /// verdict (its producer in BackendResult::Backend) or, when no
  /// member decides, an Unknown result. Each member's budget is \p F's
  /// remaining budget at race start (per member; they race, they do
  /// not share one); an unlimited \p F races unbounded.
  /// \p F is charged with the fuel all members consumed, and its
  /// CancelToken, if any, is chained into the race token, so firing
  /// it — before or during the race — stops every member at its next
  /// fuel poll.
  core::BackendResult prove(const core::ProofTask &Task, Fuel &F) override;

  /// Per-member accounting, accumulated over the prove() calls since
  /// the last takeTallies() (or construction), in
  /// PortfolioOptions::Backends order. Zeroes the tallies, keeping
  /// their names, so a long-lived portfolio reports each run apart.
  std::vector<BackendTally> takeTallies();

private:
  struct Slot {
    core::BackendResult R;
    double Seconds = 0;
    uint64_t FuelUsed = 0;
    unsigned Seq = ~0u;     ///< Finish order (0 = first).
    bool Cancelled = false; ///< Gave up because the race was decided.
  };

  /// Runs member \p I on the current race (Task/Cancel), filling its
  /// slot and raising the race token on a definitive verdict.
  void runMember(size_t I);

  PortfolioOptions Opts;
  std::vector<std::unique_ptr<core::EntailmentBackend>> Members;
  std::vector<BackendTally> Tallies;
  /// "race:<member>" trace-span names, precomputed so runMember's span
  /// costs one relaxed load when tracing is off.
  std::vector<std::string> RaceSpanNames;

  /// Race plumbing. Task/Cancel describe the in-flight race; they are
  /// published under M before the workers are woken and stay fixed
  /// until every worker has reported back, so runMember reads them
  /// without locking.
  std::vector<std::thread> Workers; ///< One per member 1..N-1.
  std::mutex M;
  std::condition_variable StartCV; ///< Wakes workers: new race or stop.
  std::condition_variable DoneCV;  ///< Wakes prove(): all reported.
  uint64_t Generation = 0;         ///< Race number; guards wakeups.
  unsigned Pending = 0;            ///< Workers still running this race.
  bool Stopping = false;
  const core::ProofTask *Task = nullptr;
  CancelToken *Cancel = nullptr;
  uint64_t RaceBudget = 0; ///< Per-member budget; 0 = unlimited.
  std::atomic<unsigned> Seq{0};
  std::vector<Slot> Slots;
};

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_PORTFOLIO_H
