//===- symexec/Program.h - Heap-program AST ---------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal imperative language over singly-linked heap cells, in the
/// style of the annotated C fragment Smallfoot consumes. Programs
/// carry pre/postconditions and loop invariants in the lseg fragment;
/// the symbolic executor (SymbolicExec.h) turns them into entailment
/// verification conditions exactly as Berdine-Calcagno-O'Hearn's
/// symbolic execution does (APLAS'05).
///
/// Statements:
///   x := e            (Assign; e a variable or nil)
///   x := y->next      (Lookup)
///   x->next := e      (Store)
///   x := new()        (New; the fresh cell's successor is arbitrary)
///   dispose(x)        (Dispose)
///   if (b) {..} else {..}
///   while (b) [inv] {..}
/// where conditions b are equalities/disequalities of variables.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SYMEXEC_PROGRAM_H
#define SLP_SYMEXEC_PROGRAM_H

#include "sl/Formula.h"

#include <string>
#include <vector>

namespace slp {
namespace symexec {

struct Stmt;
using Block = std::vector<Stmt>;

/// One statement of the mini language.
struct Stmt {
  enum class Kind : uint8_t {
    Assign,  ///< Dst := Src.
    Lookup,  ///< Dst := Src->next.
    Store,   ///< Dst->next := Src.
    New,     ///< Dst := new().
    Dispose, ///< dispose(Dst).
    If,      ///< if (Cond) Then else Else.
    While,   ///< while (Cond) [Invariant] Then.
  };

  Kind K = Kind::Assign;
  Symbol Dst;
  Symbol Src;
  sl::PureAtom Cond;
  sl::Assertion Invariant;
  Block Then;
  Block Else;
};

/// Statement builders (a tiny embedded DSL used by the corpus).
Stmt assign(Symbol Dst, Symbol Src);
Stmt lookup(Symbol Dst, Symbol Addr);
Stmt store(Symbol Addr, Symbol Val);
Stmt makeCell(Symbol Dst);
Stmt dispose(Symbol Var);
Stmt ifElse(sl::PureAtom Cond, Block Then, Block Else = {});
Stmt whileLoop(sl::PureAtom Cond, sl::Assertion Invariant, Block Body);

/// An annotated procedure.
struct Program {
  std::string Name;
  sl::Assertion Pre;
  sl::Assertion Post;
  Block Body;
};

} // namespace symexec
} // namespace slp

#endif // SLP_SYMEXEC_PROGRAM_H
