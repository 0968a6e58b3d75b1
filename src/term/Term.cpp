//===- term/Term.cpp - Interned ground constants --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "term/Term.h"

using namespace slp;

const Term *TermTable::constant(Symbol Sym) {
  assert(Sym.id() < Symbols.size() && "symbol of another table");
  if (Sym.id() >= BySymbol.size())
    BySymbol.resize(Sym.id() + 1, nullptr);
  const Term *&Slot = BySymbol[Sym.id()];
  if (!Slot)
    Slot = &Terms.emplace_back(
        Term(Sym, static_cast<uint32_t>(Terms.size())));
  return Slot;
}

void TermTable::reset(const Mark &M) {
  assert(M.NumTerms <= Terms.size() && "marks must be reset LIFO");
  // A term made after the mark may belong to a symbol interned before
  // it, so clear the slot of every dropped term before truncating.
  for (size_t I = M.NumTerms; I != Terms.size(); ++I)
    BySymbol[Terms[I].symbol().id()] = nullptr;
  Terms.erase(Terms.begin() + M.NumTerms, Terms.end());
  if (BySymbol.size() > M.NumSymbols)
    BySymbol.resize(M.NumSymbols);
  Symbols.truncate(M.NumSymbols);
}
