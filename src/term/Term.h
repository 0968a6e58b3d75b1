//===- term/Term.h - Interned ground constants ------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground terms are the constants of the separation-logic fragment:
/// program variables and nil. Each symbol has exactly one interned
/// term node, so equality is pointer equality and every term carries a
/// dense id usable as a vector index. The TermTable stores the nodes
/// by id and never moves one while it lives.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TERM_TERM_H
#define SLP_TERM_TERM_H

#include "term/Symbol.h"

#include <deque>
#include <string>
#include <vector>

namespace slp {

/// An immutable, interned ground constant. Compare with `==` on
/// pointers.
class Term {
public:
  Symbol symbol() const { return Sym; }
  uint32_t id() const { return Id; }
  bool isNil() const { return Sym == SymbolTable::nil(); }

private:
  friend class TermTable;
  Term(Symbol Sym, uint32_t Id) : Sym(Sym), Id(Id) {}

  Symbol Sym;
  uint32_t Id;
};

/// Interning factory and owner of all Term nodes of a problem.
///
/// Supports checkpoint/rewind: mark() captures the table state and
/// reset(Mark) truncates the terms, the per-symbol index, and the
/// owning SymbolTable back to that baseline. A prover session interns
/// query-local terms on top of a persistent shared-prefix table and
/// rewinds between queries instead of rebuilding a table from scratch
/// (see core::ProverSession).
class TermTable {
public:
  explicit TermTable(SymbolTable &Symbols) : Symbols(Symbols) {}

  TermTable(const TermTable &) = delete;
  TermTable &operator=(const TermTable &) = delete;

  /// A checkpoint of the table (and its symbol table). Marks must be
  /// consumed LIFO.
  struct Mark {
    size_t NumTerms = 0;
    size_t NumSymbols = 0;
  };

  /// Captures the current table state for a later reset().
  Mark mark() const { return {Terms.size(), Symbols.size()}; }

  /// Truncates the table back to \p M: every term and symbol interned
  /// after the mark is forgotten (pointers to them dangle; earlier
  /// terms keep their addresses), and subsequent interning reassigns
  /// the same dense ids deterministically. Callers holding
  /// term-id-keyed caches must invalidate them.
  void reset(const Mark &M);

  /// Returns the unique constant term for \p Sym.
  const Term *constant(Symbol Sym);

  /// Interns the name and returns its constant term.
  const Term *constant(std::string_view Name) {
    return constant(Symbols.constant(Name));
  }

  /// The distinguished nil constant.
  const Term *nil() { return constant(SymbolTable::nil()); }

  /// Number of distinct terms created so far; term ids are < size().
  size_t size() const { return Terms.size(); }

  /// Looks a term up by its dense id.
  const Term *byId(uint32_t Id) const { return &Terms.at(Id); }

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Renders \p T as text: its symbol's name.
  std::string str(const Term *T) const {
    return std::string(Symbols.name(T->symbol()));
  }

private:
  SymbolTable &Symbols;
  /// The nodes, indexed by term id. A deque keeps every node at its
  /// address while the table grows and while reset() erases its tail.
  std::deque<Term> Terms;
  /// The term of each symbol, indexed by symbol id (null until made).
  std::vector<const Term *> BySymbol;
};

} // namespace slp

#endif // SLP_TERM_TERM_H
