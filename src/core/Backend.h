//===- core/Backend.h - Pluggable entailment backends -----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend abstraction: a uniform, self-contained interface over
/// every entailment prover in the repository — the SLP superposition
/// prover (Figure 3), the complete Berdine-style case splitter, and
/// the incomplete jStar-style greedy unfolder. A backend consumes one
/// textual ProofTask, parses it into its own private term table, and
/// returns a BackendResult; because no state is shared across
/// backends, any set of them can race on the same task from different
/// threads (see engine::PortfolioProver), with cooperative
/// cancellation threaded through the Fuel token.
///
/// Soundness contract: a backend may return Verdict::Valid only if the
/// entailment holds and Verdict::Invalid only if it does not.
/// Verdict::Unknown covers everything else — fuel exhaustion,
/// cancellation, and (for incomplete backends) "no proof found". Thus
/// Valid/Invalid are *definitive* by construction and a portfolio can
/// accept the first one it sees.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_BACKEND_H
#define SLP_CORE_BACKEND_H

#include "core/ProofTask.h"
#include "core/ProverSession.h"

namespace slp {
namespace core {

/// Outcome of one EntailmentBackend::prove() call. Everything is
/// self-contained plain data (no symbol ids), so results survive
/// the backend's table teardown and can cross threads.
struct BackendResult {
  /// False iff the task text did not parse; Error holds the
  /// diagnostic and V stays Unknown.
  bool Parsed = true;
  std::string Error;

  Verdict V = Verdict::Unknown;
  /// Name of the backend that produced V (for portfolios: the race
  /// winner; otherwise the backend itself).
  std::string Backend;
  /// Rendered countermodel ("stack / heap" form), when V == Invalid
  /// and the backend constructs one (the SLP backend always does; the
  /// Berdine baseline decides invalidity without materializing a
  /// model, so its CexText is empty).
  std::string CexText;

  uint64_t FuelUsed = 0;
  /// SLP saturation/model counters; zeros for baseline backends.
  ProveStats Stats;

  /// True iff V is a definitive verdict a portfolio may accept.
  bool definitive() const {
    return Parsed && (V == Verdict::Valid || V == Verdict::Invalid);
  }
};

/// A self-contained entailment prover behind a uniform interface.
class EntailmentBackend {
public:
  virtual ~EntailmentBackend() = default;

  /// Stable identifier used in stats and CLI output ("slp",
  /// "berdine", "unfolding", "portfolio").
  virtual const char *name() const = 0;

  /// True iff the backend decides every query given enough fuel, i.e.
  /// it can return Invalid. The greedy unfolder is sound but
  /// incomplete: it never returns Invalid and its failures are
  /// Unknown, which a portfolio must not accept as a verdict.
  virtual bool complete() const = 0;

  /// Discharges one textual task. \p F carries the inference budget
  /// and (optionally) a shared CancelToken; implementations must poll
  /// it often enough that a cancelled race loser stops promptly.
  virtual BackendResult prove(const ProofTask &Task, Fuel &F) = 0;
};

/// The SLP prover as a backend: wraps a reusable ProverSession that is
/// rewound between tasks, so long-lived backends stop paying table
/// construction per query (see docs/ARCHITECTURE.md on the session
/// lifecycle). Not thread safe; racers own one instance each.
class SlpBackend final : public EntailmentBackend {
public:
  explicit SlpBackend(ProverOptions Opts = {}) : Session(Opts) {}

  const char *name() const override { return "slp"; }
  bool complete() const override { return true; }
  BackendResult prove(const ProofTask &Task, Fuel &F) override;

  /// The underlying session, e.g. for proof reconstruction after a
  /// prove() (valid until the next prove()).
  ProverSession &session() { return Session; }

private:
  ProverSession Session;
};

} // namespace core
} // namespace slp

#endif // SLP_CORE_BACKEND_H
