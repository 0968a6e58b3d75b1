//===- term/Rewrite.cpp - Ground rewrite systems --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "term/Rewrite.h"

using namespace slp;

Symbol GroundRewriteSystem::normalize(Symbol T) const {
  const uint32_t N = static_cast<uint32_t>(Rules.size());
  // Memoizes (and journals) the normal form under T; pure memo hits on
  // T itself skip this — re-storing them would grow the journal on
  // every warm lookup.
  auto Finish = [&](Symbol NF) {
    if (T.id() >= NormalFormCache.size())
      NormalFormCache.resize(T.id() + 1);
    NormalFormCache[T.id()] = {NF, N};
    if (N > 0)
      CacheJournal.emplace_back(T.id(), N);
    return NF;
  };

  Symbol Cur = T;
  for (;;) {
    // (Re)entering a reduct: consult the memo. An entry computed under
    // fewer rules is still a reduct of Cur (it only ever used kept
    // rules), so normalization resumes from it — by convergence the
    // final normal form is unchanged.
    const CacheEntry Cached = Cur.id() < NormalFormCache.size()
                                  ? NormalFormCache[Cur.id()]
                                  : CacheEntry();
    if (Cached.NF.valid()) {
      if (Cached.RuleCount == N)
        return Cur == T ? Cached.NF : Finish(Cached.NF);
      ++CacheRepairs;
      Cur = Cached.NF;
    }
    // Rules strictly decrease the term ordering, so this terminates.
    const RewriteRule *Rule = ruleFor(Cur);
    if (!Rule)
      return Finish(Cur);
    Cur = Rule->Rhs;
  }
}

Symbol
GroundRewriteSystem::normalizeTracked(Symbol T,
                                      std::vector<const RewriteRule *> &Used)
    const {
  // Every step is recorded in application order, so the memo (which
  // would skip steps) is not consulted.
  while (const RewriteRule *Rule = ruleFor(T)) {
    Used.push_back(Rule);
    T = Rule->Rhs;
  }
  return T;
}
