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
  if (!Slot) {
    void *Mem = Storage.allocate(sizeof(Term), alignof(Term));
    Slot = new (Mem) Term(Sym, static_cast<uint32_t>(TermsById.size()));
    TermsById.push_back(Slot);
  }
  return Slot;
}

void TermTable::reset(const Mark &M) {
  assert(M.NumTerms <= TermsById.size() && "marks must be reset LIFO");
  // A term made after the mark may belong to a symbol interned before
  // it, so clear the slot of every dropped term before truncating.
  for (size_t I = M.NumTerms; I != TermsById.size(); ++I)
    BySymbol[TermsById[I]->symbol().id()] = nullptr;
  TermsById.resize(M.NumTerms);
  if (BySymbol.size() > M.NumSymbols)
    BySymbol.resize(M.NumSymbols);
  Storage.rewind(M.Storage);
  Symbols.truncate(M.NumSymbols);
}
