//===- symexec/Program.cpp - Heap-program AST ---------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "symexec/Program.h"

using namespace slp;
using namespace slp::symexec;

Stmt symexec::assign(Symbol Dst, Symbol Src) {
  Stmt S;
  S.K = Stmt::Kind::Assign;
  S.Dst = Dst;
  S.Src = Src;
  return S;
}

Stmt symexec::lookup(Symbol Dst, Symbol Addr) {
  Stmt S;
  S.K = Stmt::Kind::Lookup;
  S.Dst = Dst;
  S.Src = Addr;
  return S;
}

Stmt symexec::store(Symbol Addr, Symbol Val) {
  Stmt S;
  S.K = Stmt::Kind::Store;
  S.Dst = Addr;
  S.Src = Val;
  return S;
}

Stmt symexec::makeCell(Symbol Dst) {
  Stmt S;
  S.K = Stmt::Kind::New;
  S.Dst = Dst;
  return S;
}

Stmt symexec::dispose(Symbol Var) {
  Stmt S;
  S.K = Stmt::Kind::Dispose;
  S.Dst = Var;
  return S;
}

Stmt symexec::ifElse(sl::PureAtom Cond, Block Then, Block Else) {
  Stmt S;
  S.K = Stmt::Kind::If;
  S.Cond = Cond;
  S.Then = std::move(Then);
  S.Else = std::move(Else);
  return S;
}

Stmt symexec::whileLoop(sl::PureAtom Cond, sl::Assertion Invariant,
                        Block Body) {
  Stmt S;
  S.K = Stmt::Kind::While;
  S.Cond = Cond;
  S.Invariant = std::move(Invariant);
  S.Then = std::move(Body);
  return S;
}
