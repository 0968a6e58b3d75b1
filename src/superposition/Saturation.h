//===- superposition/Saturation.h - Given-clause saturation -----*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground superposition calculus I (Nieuwenhuis-Rubio §3.5,
/// restricted to ground clauses) with a given-clause saturation loop
/// and standard redundancy elimination: tautology deletion, forward
/// and backward subsumption, and demodulation by unit equations.
///
/// The engine is incremental: the SLP prover alternates between adding
/// pure clauses discovered by the spatial rules and re-saturating, as
/// the algorithm of Figure 3 requires. After a successful saturation,
/// genModel() runs the Bachmair-Ganzinger model construction Gen(S*)
/// and returns the convergent rewrite system R together with, per
/// edge, the id of the generating clause (the map g of Lemma 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_SATURATION_H
#define SLP_SUPERPOSITION_SATURATION_H

#include "superposition/ClauseDB.h"
#include "superposition/Index.h"
#include "support/Fuel.h"
#include "term/Rewrite.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <optional>
#include <queue>
#include <span>
#include <vector>

namespace slp {
namespace sup {

/// Outcome of a saturation run.
enum class SatResult {
  Unsatisfiable, ///< The empty clause was derived.
  Saturated,     ///< Fixpoint reached; the clause set is satisfiable.
  OutOfFuel,     ///< The step budget ran out first.
};

/// Tuning knobs, exposed so the ablation benchmarks can measure the
/// contribution of each redundancy-elimination technique.
struct SaturationOptions {
  bool Subsumption = true;  ///< Forward/backward subsumption.
  bool Demodulation = true; ///< Rewriting by unit equations.
  /// Make the model attempts of saturateModelGuided() incremental:
  /// the live clauses are kept persistently in Bachmair-Ganzinger
  /// clause order, Gen is replayed from the first position where that
  /// order changed since the previous attempt, and certification
  /// re-checks only what the previous attempt could not vouch for.
  /// Bit-identical to the from-scratch attempts (same R, same g, same
  /// verdicts and countermodels); off reverts to sort-and-rebuild per
  /// attempt, the reference path IncrementalModelTest compares against
  /// and bench_micro times.
  bool IncrementalModel = true;
};

/// Aggregate inference counters: the one definition of the saturation
/// work counters. ProveStats, the engine's per-query and per-run
/// results and the bench rows embed it by value; merging and the
/// registry names go through the SaturationCounters table below, so a
/// new counter is one field plus one table row.
struct SaturationStats {
  uint64_t Derived = 0;      ///< Conclusions generated.
  uint64_t Kept = 0;         ///< Clauses that survived simplification
                             ///< and (re-)entered the passive queue.
  uint64_t Tautologies = 0;  ///< Dropped at intake as valid.
  uint64_t SubsumedFwd = 0;  ///< New clauses killed by old ones.
  uint64_t SubsumedBwd = 0;  ///< Old clauses killed by new ones.
  uint64_t Demodulated = 0;  ///< Rewrites by unit equations.
  uint64_t SubQueries = 0;   ///< Forward + backward subsumption queries.
  uint64_t SubChecks = 0;    ///< Clause pairs tested with subsumes().
  /// Lazily-invalidated index entries (fingerprint chains, FromByMax,
  /// IntoByMax) belonging to deleted clauses that a compaction
  /// sweep purged; long-lived instances would otherwise grow without
  /// bound (see compactIndexes()).
  uint64_t StalePurged = 0;
  uint64_t Compactions = 0;  ///< Compaction sweeps performed.
  /// Pairs the subsumption scans visited: the live clause count at
  /// each query, minus the query clause itself. SubScanBaseline over
  /// SubChecks is the signature filter's rejection factor (the
  /// baseline ignores the early exit a forward scan takes on a hit).
  uint64_t SubScanBaseline = 0;
  /// Candidate-model attempts made by saturateModelGuided().
  uint64_t ModelAttempts = 0;
  /// Clause positions the incremental attempts did NOT re-run Gen on —
  /// the sum over attempts of the replay watermark. Against
  /// ModelAttempts × live-clause-count, this is the fraction of the
  /// Bachmair-Ganzinger construction amortized away.
  uint64_t GenReplayedFrom = 0;
  /// Certification checks (clause satisfaction and Lemma 3.1(2)
  /// residuals) skipped because the previous attempt already verified
  /// them against the same rule sequence.
  uint64_t CertSkipped = 0;
  /// normalize() calls that resumed from a normal-form memo entry
  /// computed under fewer rules — work the pre-watermark cache would
  /// have redone from scratch after every addRule.
  uint64_t NfCacheReuse = 0;
  /// Struct-of-arrays pool occupancy at the last keep: equations in
  /// the flat clause arena and oriented literals in the sorted-list
  /// pool. Mirrored to the sat.pool.* metrics.
  uint64_t PoolEquations = 0;
  uint64_t PoolLiterals = 0;
  /// Clause-order memo traffic (clauseOrderLess pair cache): answers
  /// served without touching the literal pool, and misses that fell
  /// through to a full list comparison.
  uint64_t OrderCacheHits = 0;
  uint64_t OrderCacheMisses = 0;

  bool operator==(const SaturationStats &) const = default;
  /// Field-wise sum (pool sizes sum too: totals over queries).
  SaturationStats &operator+=(const SaturationStats &O);
  /// Calls \p F(Name, Value) for every counter in table order, Name
  /// being its metrics-registry name.
  template <typename Fn> void forEach(Fn &&F) const;
};

/// One counter of SaturationStats and its metrics-registry name.
struct SaturationCounter {
  const char *Name;
  uint64_t SaturationStats::*Field;
};

/// Every SaturationStats field, in declaration order. The registry
/// names are the `sat.*` catalogue of docs/observability.md.
inline constexpr SaturationCounter SaturationCounters[] = {
    {"sat.derived", &SaturationStats::Derived},
    {"sat.kept", &SaturationStats::Kept},
    {"sat.tautologies", &SaturationStats::Tautologies},
    {"sat.subsumed_fwd", &SaturationStats::SubsumedFwd},
    {"sat.subsumed_bwd", &SaturationStats::SubsumedBwd},
    {"sat.demodulated", &SaturationStats::Demodulated},
    {"sat.sub_queries", &SaturationStats::SubQueries},
    {"sat.sub_checks", &SaturationStats::SubChecks},
    {"sat.stale_purged", &SaturationStats::StalePurged},
    {"sat.compactions", &SaturationStats::Compactions},
    {"sat.sub_scan_baseline", &SaturationStats::SubScanBaseline},
    {"sat.model_attempts", &SaturationStats::ModelAttempts},
    {"sat.gen_replayed_from", &SaturationStats::GenReplayedFrom},
    {"sat.cert_skipped", &SaturationStats::CertSkipped},
    {"sat.nf_cache_reuse", &SaturationStats::NfCacheReuse},
    {"sat.pool.equations", &SaturationStats::PoolEquations},
    {"sat.pool.literals", &SaturationStats::PoolLiterals},
    {"sat.pool.order_memo_hits", &SaturationStats::OrderCacheHits},
    {"sat.pool.order_memo_misses", &SaturationStats::OrderCacheMisses},
};
static_assert(std::size(SaturationCounters) * sizeof(uint64_t) ==
                  sizeof(SaturationStats),
              "every SaturationStats field needs a SaturationCounters row");

inline SaturationStats &SaturationStats::operator+=(const SaturationStats &O) {
  for (const SaturationCounter &C : SaturationCounters)
    this->*C.Field += O.*C.Field;
  return *this;
}

template <typename Fn> void SaturationStats::forEach(Fn &&F) const {
  for (const SaturationCounter &C : SaturationCounters)
    F(C.Name, this->*C.Field);
}

/// Incremental ground superposition engine.
class Saturation {
public:
  explicit Saturation(TermTable &Terms, SaturationOptions Opts = {})
      : Terms(Terms), Opts(Opts) {}

  Saturation(const Saturation &) = delete;
  Saturation &operator=(const Saturation &) = delete;

  /// Buckets of the duplicate-detection fingerprint table of a fresh
  /// or cleared engine; the table doubles as clauses are stored.
  static constexpr size_t InitialFingerprintBuckets = 64;

  /// Result of adding an input clause.
  struct AddResult {
    uint32_t Id;  ///< Database id (~0u if the clause was dropped).
    bool New;     ///< False if tautological, duplicate, or subsumed.
  };

  /// Adds the pure clause Γ → ∆. The clause is canonicalized; if it is
  /// a tautology or already follows from a stored clause by
  /// subsumption, it is reported as not new, which the SLP prover uses
  /// for its S = S* fixpoint test (a subsumed clause is satisfied by
  /// every model of its subsumer, so the completeness argument is
  /// unaffected).
  AddResult addInput(std::vector<Equation> Neg, std::vector<Equation> Pos,
                     uint32_t ExternalTag = ~0u);

  /// Sweeps the lazily-invalidated entries of deleted clauses out of
  /// the fingerprint chains, FromByMax, and IntoByMax. Runs automatically
  /// (amortized) once stale entries rival the live clause count; a
  /// long-lived caller may also force a sweep at any quiescent point.
  /// Purging a deleted clause's fingerprint is sound: re-adding an
  /// equal clause then takes the no-duplicate path (fresh forward-
  /// subsumption check, fresh id) instead of revival, which preserves
  /// the clause-set semantics either way.
  void compactIndexes();

  /// Returns the engine to its freshly constructed state: clause
  /// database, queues, demodulators, all indexes, caches, and stats.
  /// This is the documented lifecycle for long-lived instances — a
  /// ProverSession clears one Saturation per query instead of
  /// rebuilding it, so allocations (index pools, partner lists, the
  /// fingerprint table, intake scratch) are reused across queries.
  /// Behavior after clear() is bit-identical to a fresh instance over
  /// the same inputs.
  void clear();

  /// Runs the given-clause loop until refutation, fixpoint, or fuel
  /// exhaustion. May be called repeatedly as new inputs arrive.
  SatResult saturate(Fuel &F);

  /// Model-guided variant of saturate() used by the SLP prover: stops
  /// as soon as the candidate model Gen(current set) *demonstrably*
  /// satisfies every stored clause and every edge's generating-clause
  /// residual is falsified (the two semantic facts Lemma 3.1 provides
  /// and the spatial phases rely on). Full saturation can be
  /// exponential on the wide disjunctions the unfolding rules emit,
  /// while a certifiable model is typically available after a handful
  /// of inferences; since the certificate is checked directly, no
  /// soundness is lost. Falls back to ordinary saturation when no
  /// model certifies, so refutations are still found.
  SatResult saturateModelGuided(Fuel &F,
                                std::optional<GroundRewriteSystem> &Model);

  bool hasEmptyClause() const { return EmptyClauseId.has_value(); }
  uint32_t emptyClauseId() const { return *EmptyClauseId; }

  /// Clause database access (ids are stable; includes deleted ones).
  /// The view's spans point into the database's flat equation pool and
  /// are invalidated when a clause is added (saturate, addInput).
  ClauseView clause(uint32_t Id) const { return DB.view(Id); }
  bool deleted(uint32_t Id) const { return DB.deleted(Id); }
  const Justification &justification(uint32_t Id) const {
    return DB.justification(Id);
  }
  size_t numClauses() const { return DB.numClauses(); }

  /// Ids of live clauses of the saturated set S*.
  std::vector<uint32_t> liveClauses() const;

  /// Model generation Gen(S*): processes the saturated clauses in
  /// ascending clause order and lets each productive clause (false so
  /// far, strictly maximal positive literal l ' r with l irreducible)
  /// emit the edge l ⇒ r. Precondition: the last saturate() returned
  /// Saturated and nothing was added since.
  GroundRewriteSystem genModel() const;

  /// True iff R* |' C, i.e. some Γ-equation is false or some
  /// ∆-equation true under the congruence induced by \p R.
  static bool modelSatisfies(const GroundRewriteSystem &R, ClauseView C);

  /// Checks R against every live clause; used by tests to validate the
  /// Gen construction (Theorem 3.1).
  bool verifyModel(const GroundRewriteSystem &R) const;

  const TermTable &terms() const { return Terms; }
  TermTable &terms() { return Terms; }
  const SaturationStats &stats() const { return Stats; }

private:
  /// The one clause intake. Takes the canonical clause NegScratch →
  /// PosScratch and runs the tautology, duplicate/revival and forward-
  /// subsumption tests on a view of the scratch; only a clause that
  /// passes them is stored, with the Justification (\p Kind, \p
  /// Parents, \p ExternalTag) built then. Conclusions (every \p Kind
  /// but Input) count as Derived, and as Kept when stored or revived.
  /// A superposition conclusion arrives known not to be a tautology
  /// (superpose() decides that before merging), so its test is skipped.
  AddResult intake(RuleKind Kind, std::span<const uint32_t> Parents,
                   uint32_t ExternalTag = ~0u);

  /// All superposition inferences between the given clause and one
  /// active partner (both directions), plus unary rules on Given.
  void generateInferences(uint32_t GivenId);
  /// Superposes \p FromId into \p IntoId. A tautological conclusion is
  /// counted (Derived, Tautologies) without being merged; any other is
  /// merged into the scratch and taken in by intake().
  void superpose(uint32_t FromId, uint32_t IntoId);
  void equalityResolution(uint32_t Id);
  void equalityFactoring(uint32_t Id);

  /// The unique maximal literal of a (canonical, nonempty) clause.
  /// With a total literal order and deduplicated literals there is
  /// exactly one, so every ordering side condition of the calculus
  /// reduces to a comparison against it. It is the front of the pooled
  /// sorted-literal list, cached beside the list's pool reference when
  /// the list is interned, so each clause's literals are oriented and
  /// ordered exactly once and the pool is not read here.
  OrientedLiteral maxLiteral(uint32_t Id) const {
    const LitListRef &Ref = litRef(Id);
    assert(Ref.Len != 0 && "the empty clause has no literals");
    return Ref.Max;
  }

  /// Descending-sorted literals of a clause, interned in the flat
  /// literal pool on first use (each id's list is computed exactly
  /// once; the returned span is invalidated when another id's list is
  /// materialized, so callers comparing two lists materialize both
  /// before taking spans).
  std::span<const OrientedLiteral> sortedLits(uint32_t Id) const {
    const LitListRef &Ref = litRef(Id);
    return {LitPool.data() + Ref.Off, Ref.Len};
  }

  /// The pool reference of a clause's sorted literal list, interning
  /// the list on first use (see sortedLits). The reference is
  /// invalidated when another id's list is interned.
  struct LitListRef;
  const LitListRef &litRef(uint32_t Id) const {
    if (Id < LitRefs.size() && LitRefs[Id].Off != ~0u)
      return LitRefs[Id];
    return internLits(Id);
  }
  const LitListRef &internLits(uint32_t Id) const;

  /// Rewrites \p T to Demod-normal form, recording used unit ids.
  /// Rules generated by clause \p SelfId are skipped so a unit
  /// equation never rewrites (and thereby deletes) itself.
  Symbol demodTerm(Symbol T, uint32_t SelfId, std::vector<uint32_t> &Used);

  /// Applies demodulation to clause \p SelfId. If it rewrites, leaves
  /// the canonical result in NegScratch/PosScratch and the parents
  /// (\p SelfId, then the used unit ids) in ParentScratch and returns
  /// true; returns false if \p C is already normal.
  bool demodClause(ClauseView C, uint32_t SelfId);

  /// True iff some live clause other than \p ExcludeId subsumes \p C.
  /// \p Sig must be C's signature; it filters the scan of Live.
  bool isForwardSubsumed(ClauseView C, const ClauseSig &Sig,
                         uint32_t ExcludeId = ~0u);

  /// Deletes every live clause the newly kept clause \p NewId
  /// subsumes (backward subsumption).
  void backwardSubsume(uint32_t NewId);

  /// Registers a clause that just became live: stores its signature
  /// and appends it to Live. Called on first keep and on revival.
  void registerClause(uint32_t Id, const ClauseSig &Sig);

  /// Disposition of a clause that matches a stored duplicate.
  struct DupOutcome {
    enum Kind {
      NoDup,         ///< No stored duplicate; caller proceeds normally.
      LiveDup,       ///< A live duplicate exists; clause is not new.
      StillSubsumed, ///< Deleted duplicate, but a live clause subsumes
                     ///< it; stays deleted.
      Revived,       ///< Deleted duplicate re-entered the passive queue.
    } State;
    uint32_t Id; ///< The duplicate's id (~0u for NoDup).
  };

  /// Duplicate/revival handling of intake().
  DupOutcome handleDuplicate(ClauseView C);

  /// Fingerprint-table bucket of a clause hash: the top log2(buckets)
  /// bits of the scrambled hash.
  size_t fingerprintBucket(uint64_t Hash) const {
    return static_cast<size_t>((Hash * 0x9E3779B97F4A7C15ull) >>
                               (64 - std::countr_zero(FpHeads.size())));
  }
  /// Links the just-appended clause \p Id into its fingerprint chain,
  /// doubling the bucket array once the chains outnumber it.
  void linkFingerprint(uint32_t Id);
  void growFingerprints();

  /// One iteration of the given-clause loop: pops the best passive
  /// clause, simplifies, activates, and generates inferences.
  void stepGivenClause();

  /// Ids of every non-deleted clause (active and passive).
  std::vector<uint32_t> allStored() const;

  /// Gen over an explicit clause set (ascending clause order).
  GroundRewriteSystem genModelFrom(std::vector<uint32_t> Ids) const;

  /// One Gen decision: lets clause \p Id produce its edge into \p R if
  /// it is productive (false so far, strictly maximal positive
  /// literal, irreducible left-hand side). Shared by the from-scratch
  /// construction and the incremental replay.
  void genStep(GroundRewriteSystem &R, uint32_t Id) const;

  /// True iff \p R satisfies every clause in \p Ids and every edge's
  /// generating-clause residual is falsified (Lemma 3.1(2)).
  bool modelCertified(const GroundRewriteSystem &R,
                      const std::vector<uint32_t> &Ids) const;

  /// One incremental model attempt: replays Gen on the persistently
  /// ordered live set from the first change since the previous
  /// attempt, certifies incrementally, and on success copies the model
  /// out. Returns true iff the model certified.
  bool attemptModelIncremental(std::optional<GroundRewriteSystem> &Model);

  /// The Bachmair-Ganzinger clause order on clause ids (the sorted
  /// literal lists compared lexicographically, ties by id; see
  /// Literal.h) — the single definition used
  /// by the ordered live set and the model-generation sort, which must
  /// never diverge.
  bool clauseOrderLess(uint32_t A, uint32_t B) const;

  /// clauseOrderLess without the memo: it neither reads, writes nor
  /// counts it. The memo's miss path and the invariant checks use it,
  /// so a build with the checks on counts what a build without does.
  bool clauseOrderLessUncounted(uint32_t A, uint32_t B) const;

  /// Inserts a newly live clause into / removes a deleted clause from
  /// OrderedLive, advancing the change watermark.
  void orderedLiveInsert(uint32_t Id);
  void orderedLiveErase(uint32_t Id);

  /// Registers an active unit equation as a demodulator, then rewrites
  /// the active clauses that mention its left-hand side (backward
  /// demodulation).
  void maybeAddDemodulator(uint32_t Id);

  /// Marks a clause deleted. If it is the positive unit that generated
  /// a rule in Demod, retires that rule.
  void deleteClause(uint32_t Id);

  /// Calls compactIndexes() once enough deletions have accumulated
  /// (amortized trigger; see the public method).
  void maybeCompactIndexes();

  TermTable &Terms;
  SaturationOptions Opts;

  /// Struct-of-arrays clause storage (flat equation pool, hot records,
  /// cold provenance); see ClauseDB.h.
  ClauseDB DB;
  /// Duplicate detection: intrusive hash chains over clause ids. A
  /// bucket head holds the first id of its chain and FpNext[Id] the
  /// next (~0u ends a chain); every stored clause is linked once, and
  /// compaction unlinks deleted ones. At most one id per clause content
  /// is linked, since a duplicate is never stored twice.
  std::vector<uint32_t> FpHeads =
      std::vector<uint32_t>(InitialFingerprintBuckets, ~0u);
  std::vector<uint32_t> FpNext;
  size_t FpEntries = 0; ///< Ids currently linked.
  /// Intake scratch: the conclusion under test (canonical sides) and
  /// the parents of a demodulated clause. Reused, so a warm engine
  /// allocates nothing for a conclusion it does not keep.
  std::vector<Equation> NegScratch, PosScratch;
  std::vector<uint32_t> ParentScratch;
  std::vector<uint32_t> Active;
  // Passive queue, popped smallest-first by (size, id); entries are
  // lazily invalidated (popped ids may be deleted or re-queued).
  using PassiveEntry = std::pair<uint32_t, uint32_t>; // (size, id)
  std::priority_queue<PassiveEntry, std::vector<PassiveEntry>,
                      std::greater<PassiveEntry>>
      Passive;
  std::optional<uint32_t> EmptyClauseId;

  /// The unit demodulators, one rule per left-hand side, each tagged
  /// with the active unit clause that owns it; a rule is retired when
  /// that clause is deleted.
  GroundRewriteSystem Demod;
  /// Signature of every clause ever kept, indexed by clause id
  /// (persists across deletion so revival need not recompute it).
  std::vector<ClauseSig> SigById;
  /// The live (non-deleted) clauses' signature words and ids, in no
  /// particular order; both subsumption directions scan it.
  LiveSet Live;
  /// Position of each clause id in Live (~0u when not live), so a
  /// deletion swap-removes in O(1).
  std::vector<uint32_t> LiveSlot;
  /// Interned descending-sorted literal lists, one contiguous pool for
  /// every clause (clauses are immutable, and distinct live clauses
  /// have distinct lists, so the clause id doubles as the list id):
  /// the single source of literal orientation and order —
  /// maxLiteral() reads a list's front, cached in its LitListRef, and
  /// the ordered live set and the model-generation sort compare whole
  /// lists via clauseOrderLess.
  mutable std::vector<OrientedLiteral> LitPool;
  struct LitListRef {
    uint32_t Off = ~0u; ///< ~0u = not yet materialized.
    uint32_t Len = 0;
    OrientedLiteral Max; ///< The list's front (the empty clause: unset).
  };
  mutable std::vector<LitListRef> LitRefs;
  /// Scratch for a sortedLits() list before pool insertion.
  mutable std::vector<OrientedLiteral> LitScratch;
  /// Direct-mapped memo of clauseOrderLess results keyed by the id
  /// pair — the "memoized tie-break" behind the small-id fast path
  /// (equal ids answer Equal without any lookup). Epoch-stamped so
  /// clear() costs O(1).
  struct OrderMemoEntry {
    uint64_t Key = 0; ///< (A << 32) | B; the A == B diagonal never
                      ///< reaches the memo, so 0 is never probed.
    uint32_t Epoch = 0;
    bool Less = false; ///< clauseOrderLess(A, B).
  };
  static constexpr size_t OrderMemoSize = 1 << 12;
  mutable std::vector<OrderMemoEntry> OrderMemo; ///< Lazily allocated.
  mutable uint32_t OrderMemoEpoch = 1;
  /// Inference partner indexes over *active* clauses: a superposition
  /// between F (from) and G (into) exists only when F's maximal term
  /// is G's maximal term, so partners are found by symbol id instead of
  /// scanning the whole active set. FromByMax lists clauses under the
  /// larger side of their maximal literal when it is positive and
  /// nontrivial; IntoByMax lists every clause under the larger side of
  /// its maximal literal. Both are indexed by symbol id and always have
  /// the same length. Entries are invalidated lazily via the Deleted
  /// flag.
  std::vector<std::vector<uint32_t>> FromByMax;
  std::vector<std::vector<uint32_t>> IntoByMax;
  /// Deleted clauses whose lazily-invalidated index entries have not
  /// been compacted away yet; drives maybeCompactIndexes().
  size_t StaleDeleted = 0;

  //===--- Incremental model-attempt state (Opts.IncrementalModel) ---===//
  // An attempt used to re-sort all stored clauses, replay Gen from an
  // empty system, and re-certify everything, although consecutive
  // attempts differ by a handful of clauses. Instead the live set is
  // kept in Bachmair-Ganzinger clause order at all times, and each
  // attempt pays only from the first position where that order changed.

  /// Live clause ids, maintained in ascending clause order (the order
  /// genModelFrom would sort into: clauseOrderLess).
  std::vector<uint32_t> OrderedLive;
  /// Smallest OrderedLive index touched by an insertion or deletion
  /// since the last attempt snapshot; the prefix below it is
  /// guaranteed unchanged. ~size_t(0) = untouched.
  size_t LiveWatermark = ~size_t(0);
  /// Whether PrevLiveSize/RulesAfter describe a completed attempt.
  bool ModelSnapshotValid = false;
  /// Length of the ordered live sequence at the last attempt; clamps
  /// the watermark (the prefix below it is content-identical by the
  /// watermark maintenance, so only the length needs snapshotting).
  size_t PrevLiveSize = 0;
  /// RulesAfter[i] = |rules| after Gen processed position i of the
  /// last attempt's sequence — the truncateTo() watermark for
  /// replaying from position i+1.
  std::vector<uint32_t> RulesAfter;
  /// The persistent candidate model, truncated and replayed per
  /// attempt; its warm normal-form memo is most of the win.
  GroundRewriteSystem IncModel;
  /// Rule sequence of the previous attempt, for the epoch test.
  std::vector<RewriteRule> PrevRules;
  /// Certification epoch: bumped whenever an attempt ends with a
  /// different rule sequence than its predecessor. Satisfaction and
  /// residual verdicts only carry over between attempts with the
  /// *same* final R, i.e. the same epoch.
  uint64_t CertEpoch = 1;
  /// Per clause id: epoch at which modelSatisfies was last verified.
  std::vector<uint64_t> SatOkEpoch;
  /// Per generating-clause id: epoch at which the Lemma 3.1(2)
  /// residual check of its edge last passed.
  std::vector<uint64_t> ResidualOkEpoch;

  /// Mutable: the pool/memo counters are maintained from const paths
  /// (sortedLits, clauseOrderLess), like the pools themselves.
  mutable SaturationStats Stats;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_SATURATION_H
