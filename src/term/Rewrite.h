//===- term/Rewrite.h - Ground rewrite systems ------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground rewrite systems `R` as produced by the model-generation
/// function Gen(S*) of §3.3. Each rule x ⇒ y is tagged with the id of
/// the clause that generated it (the map `g` of Lemma 3.1), which the
/// normalization inferences N1/N3 need. Rules added by Gen are
/// left-reduced and strictly ordering-decreasing, so the system is
/// convergent and normal forms are unique.
///
/// The normal-form memo is *rule-count watermarked*: every entry
/// records how many rules existed when it was computed. Growing the
/// system (addRule) therefore no longer invalidates the cache — a
/// stale entry is still a valid reduct of its key (it was reached
/// using a prefix of the current rules), so a lookup resumes
/// normalization from it instead of starting over. This is what makes
/// the saturation engine's incremental model attempts cheap: one
/// persistent system is truncated to the last unchanged Gen decision
/// and replayed, and almost every normalize() during certification
/// hits warm prefix-valid entries. Resuming from a reduct is sound
/// exactly because the systems built here are convergent; arbitrary
/// mid-sequence removal (removeRuleFor) breaks the prefix discipline
/// and still clears the memo wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TERM_REWRITE_H
#define SLP_TERM_REWRITE_H

#include "term/Term.h"

#include <vector>

namespace slp {

/// One ground rule Lhs ⇒ Rhs with the generating clause id.
struct RewriteRule {
  Symbol Lhs;
  Symbol Rhs;
  /// Id of the clause in the saturated set that produced this edge
  /// (meaningful only for systems built by Gen).
  uint32_t GeneratingClause;

  friend bool operator==(const RewriteRule &A, const RewriteRule &B) {
    return A.Lhs == B.Lhs && A.Rhs == B.Rhs &&
           A.GeneratingClause == B.GeneratingClause;
  }
};

/// A convergent ground rewrite system over constants. The rule lookup
/// and the normal-form memo are vectors indexed by symbol id.
class GroundRewriteSystem {
public:
  /// Adds Lhs ⇒ Rhs. At most one rule per left-hand side is allowed
  /// (left-reducedness), which Gen guarantees by construction. The
  /// normal-form memo survives: existing entries are repaired lazily
  /// on lookup (see the file comment).
  void addRule(Symbol Lhs, Symbol Rhs, uint32_t GeneratingClause = ~0u) {
    assert(!reducibleAtRoot(Lhs) && "duplicate left-hand side");
    if (Lhs.id() >= RuleByLhs.size())
      RuleByLhs.resize(Lhs.id() + 1, NoRule);
    RuleByLhs[Lhs.id()] = static_cast<uint32_t>(Rules.size());
    Rules.push_back({Lhs, Rhs, GeneratingClause});
  }

  /// Removes the rule with left-hand side \p Lhs, if any. Needed by
  /// the saturation engine: when a demodulator clause is deleted, its
  /// rule must stop firing or circular simplification could erase
  /// facts from the clause set. Removing a mid-sequence rule breaks
  /// the watermark discipline, so the whole memo is dropped.
  void removeRuleFor(Symbol Lhs) {
    if (!reducibleAtRoot(Lhs))
      return;
    uint32_t Idx = RuleByLhs[Lhs.id()];
    RuleByLhs[Lhs.id()] = NoRule;
    if (Idx + 1 != Rules.size()) {
      Rules[Idx] = Rules.back();
      RuleByLhs[Rules[Idx].Lhs.id()] = Idx;
    }
    Rules.pop_back();
    NormalFormCache.clear();
    CacheJournal.clear();
  }

  /// Rewinds the system to its first \p Mark rules, undoing every
  /// addRule after that point. Memo entries computed before the
  /// watermark survive (they only ever saw kept rules); later ones are
  /// dropped — located through the store journal, so the cost is
  /// proportional to what is dropped, not to the memo size. This is
  /// the saturation engine's replay primitive: Gen is rewound to the
  /// last position where the ordered clause sequence changed and
  /// re-run only from there.
  void truncateTo(size_t Mark) {
    assert(Mark <= Rules.size() && "watermark past the rule sequence");
    if (Mark == Rules.size())
      return;
    for (size_t I = Mark; I != Rules.size(); ++I)
      RuleByLhs[Rules[I].Lhs.id()] = NoRule;
    Rules.resize(Mark);
    const uint32_t Count = static_cast<uint32_t>(Mark);
    // Stores are journaled in nondecreasing rule-count order between
    // truncations, so everything past the watermark is a suffix. A key
    // re-stored at several counts is erased wholesale when its newest
    // record pops — over-dropping a still-valid older memo is safe.
    while (!CacheJournal.empty() && CacheJournal.back().second > Count) {
      NormalFormCache[CacheJournal.back().first] = {};
      CacheJournal.pop_back();
    }
  }

  /// True if some rule rewrites \p T at the root.
  bool reducibleAtRoot(Symbol T) const {
    return T.id() < RuleByLhs.size() && RuleByLhs[T.id()] != NoRule;
  }

  /// The rule with left-hand side \p T, or null.
  const RewriteRule *ruleFor(Symbol T) const {
    return reducibleAtRoot(T) ? &Rules[RuleByLhs[T.id()]] : nullptr;
  }

  /// Unique normal form of \p T.
  Symbol normalize(Symbol T) const;

  /// Normal form of \p T, appending every rule applied along the way
  /// to \p Used (with repetitions, in application order). Needed by
  /// the normalization inferences N1/N3, which must merge the pure
  /// side conditions of each generating clause (Lemma 4.2).
  Symbol normalizeTracked(Symbol T,
                          std::vector<const RewriteRule *> &Used) const;

  /// True iff \p A and \p B have the same normal form, i.e. R* |= A ' B.
  bool equivalent(Symbol A, Symbol B) const {
    // A first: normalize() fills the memo, so the order shows in
    // cacheReuse().
    const Symbol NA = normalize(A);
    return NA == normalize(B);
  }

  /// Removes every rule (and the normal-form memo), returning the
  /// system to its freshly constructed state.
  void clear() {
    Rules.clear();
    RuleByLhs.clear();
    NormalFormCache.clear();
    CacheJournal.clear();
    CacheRepairs = 0;
  }

  /// Times a normalize() resumed from a memo entry computed under
  /// fewer rules — each one is a lookup the pre-watermark design would
  /// have recomputed from scratch.
  uint64_t cacheReuse() const { return CacheRepairs; }

  const std::vector<RewriteRule> &rules() const { return Rules; }
  bool empty() const { return Rules.empty(); }
  size_t size() const { return Rules.size(); }

private:
  /// A memoized normal form, valid relative to the first RuleCount
  /// rules of the current sequence. An invalid NF marks an empty slot.
  struct CacheEntry {
    Symbol NF;
    uint32_t RuleCount = 0;
  };

  static constexpr uint32_t NoRule = ~0u;

  std::vector<RewriteRule> Rules;
  /// Index into Rules of the rule for each left-hand side, by symbol
  /// id (NoRule where there is none, and past the end).
  std::vector<uint32_t> RuleByLhs;
  /// Memoized normal forms by symbol id (empty past the end).
  mutable std::vector<CacheEntry> NormalFormCache;
  /// (symbol id, rule count) of every memo store made under at least one
  /// rule, in store order; counts are nondecreasing between
  /// truncations, so truncateTo drops exactly a suffix. Count-0 stores
  /// are never dropped and are not journaled.
  mutable std::vector<std::pair<uint32_t, uint32_t>> CacheJournal;
  mutable uint64_t CacheRepairs = 0;
};

} // namespace slp

#endif // SLP_TERM_REWRITE_H
