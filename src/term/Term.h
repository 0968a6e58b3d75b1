//===- term/Term.h - Ground constants ---------------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground terms are the constants of the separation-logic fragment:
/// program variables and nil. A term is its symbol: a 4-byte id that
/// compares with `==`, orders the terms with `<` (creation order, nil
/// minimal; see term/Symbol.h) and indexes vectors directly. The
/// TermTable is the checkpointable interning context over one
/// SymbolTable.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TERM_TERM_H
#define SLP_TERM_TERM_H

#include "term/Symbol.h"

#include <string>

namespace slp {

/// Interning context of a problem's constants.
///
/// Supports checkpoint/rewind: mark() captures the table state and
/// reset(Mark) truncates the owning SymbolTable back to that baseline.
/// A prover session interns query-local constants on top of a
/// persistent shared-prefix table and rewinds between queries instead
/// of rebuilding a table from scratch (see core::ProverSession).
class TermTable {
public:
  explicit TermTable(SymbolTable &Symbols) : Symbols(Symbols) {}

  TermTable(const TermTable &) = delete;
  TermTable &operator=(const TermTable &) = delete;

  /// A checkpoint of the symbol table. Marks must be consumed LIFO.
  struct Mark {
    size_t NumSymbols = 0;
  };

  /// Captures the current table state for a later reset().
  Mark mark() const { return {Symbols.size()}; }

  /// Truncates the table back to \p M: every symbol interned after the
  /// mark is forgotten, and subsequent interning reassigns the same
  /// dense ids deterministically. Callers holding symbol-id-keyed
  /// caches must invalidate them.
  void reset(const Mark &M) { Symbols.truncate(M.NumSymbols); }

  /// Interns the name and returns its constant.
  Symbol constant(std::string_view Name) { return Symbols.constant(Name); }

  /// The distinguished nil constant.
  static Symbol nil() { return SymbolTable::nil(); }

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Renders \p S as text: its name.
  std::string str(Symbol S) const { return std::string(Symbols.name(S)); }

private:
  SymbolTable &Symbols;
};

} // namespace slp

#endif // SLP_TERM_TERM_H
