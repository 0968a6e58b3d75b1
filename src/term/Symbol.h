//===- term/Symbol.h - Interned function symbols ----------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant symbols for the ground term language. The separation-logic
/// fragment of the paper only needs constants: program variables plus
/// the distinguished nil.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TERM_SYMBOL_H
#define SLP_TERM_SYMBOL_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace slp {

/// A lightweight handle to an entry of a SymbolTable: its dense id.
/// Ids are assigned in interning order from 0 (nil), so they index
/// vectors directly, and their order is the term order.
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }
  bool valid() const { return Id != ~0u; }
  bool isNil() const { return Id == 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  uint32_t Id = ~0u;
};

/// Owns all symbols of a problem instance. Symbol 0 is always `nil`,
/// which §3.3 of the paper requires to be minimal in the term order.
class SymbolTable {
public:
  SymbolTable() {
    // Reserve id 0 for nil.
    Symbol S = constant("nil");
    (void)S;
    assert(S.id() == 0 && "nil must be symbol 0");
  }

  // Index keys view into Names, so a copy would dangle.
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// The distinguished null-pointer constant.
  static Symbol nil() { return Symbol(0); }

  /// Returns the symbol named \p Name, creating it on first use.
  Symbol constant(std::string_view Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return Symbol(It->second);
    uint32_t Id = static_cast<uint32_t>(Names.size());
    Index.emplace(Names.emplace_back(Name), Id);
    return Symbol(Id);
  }

  std::string_view name(Symbol S) const { return Names.at(S.id()); }
  size_t size() const { return Names.size(); }

  /// Forgets every symbol with id >= \p NumSymbols, and frees its name,
  /// so a session can rewind to a checkpoint taken with size(). Handles
  /// to dropped symbols become invalid; re-interning a dropped name
  /// assigns a fresh (dense) id again. nil (id 0) can never be dropped.
  void truncate(size_t NumSymbols) {
    assert(NumSymbols >= 1 && "nil must survive truncation");
    assert(NumSymbols <= Names.size() && "cannot truncate upwards");
    for (size_t Id = NumSymbols; Id != Names.size(); ++Id)
      Index.erase(Names[Id]);
    Names.resize(NumSymbols);
  }

private:
  /// Names by symbol id. A deque never moves a string it holds, so
  /// views into a short name's inline buffer stay valid as it grows.
  std::deque<std::string> Names;
  std::unordered_map<std::string_view, uint32_t> Index;
};

} // namespace slp

#endif // SLP_TERM_SYMBOL_H
