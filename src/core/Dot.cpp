//===- core/Dot.cpp - Graphviz renderings --------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Dot.h"

#include <map>
#include <set>
#include <sstream>

using namespace slp;
using namespace slp::core;

namespace {

/// Escapes a label for DOT double-quoted strings.
std::string escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string core::proofToDot(const sup::Saturation &Sat,
                             const std::vector<std::string> &Labels,
                             uint32_t RootId) {
  std::ostringstream OS;
  OS << "digraph refutation {\n  rankdir=BT;\n  node [fontsize=10];\n";

  std::set<uint32_t> Seen;
  std::vector<uint32_t> Stack{RootId};
  while (!Stack.empty()) {
    uint32_t Id = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(Id).second)
      continue;
    const sup::Justification &J = Sat.justification(Id);
    std::string Text = Sat.clause(Id).str(Sat.terms());
    if (J.Kind == sup::RuleKind::Input) {
      std::string Provenance;
      if (J.ExternalTag != ~0u && J.ExternalTag < Labels.size())
        Provenance = "\\n" + escape(Labels[J.ExternalTag]);
      OS << "  c" << Id << " [shape=box, label=\"[" << Id << "] "
         << escape(Text) << Provenance << "\"];\n";
    } else {
      OS << "  c" << Id << " [shape=ellipse, label=\"[" << Id << "] "
         << escape(Text) << "\\n" << sup::ruleKindName(J.Kind)
         << "\"];\n";
    }
    for (uint32_t Parent : J.Parents) {
      OS << "  c" << Parent << " -> c" << Id << ";\n";
      Stack.push_back(Parent);
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string core::counterModelToDot(const TermTable &Terms, const sl::Stack &S,
                                    const sl::Heap &H) {
  std::ostringstream OS;
  OS << "digraph countermodel {\n  node [shape=circle, fontsize=10];\n";

  // Group variables by location for node labels.
  std::map<sl::Loc, std::string> VarsAt;
  S.forEachBinding([&](Symbol Var, sl::Loc L) {
    std::string Name = Terms.str(Var);
    auto &Slot = VarsAt[L];
    Slot += Slot.empty() ? Name : ("," + Name);
  });

  std::set<sl::Loc> Nodes;
  Nodes.insert(sl::NilLoc);
  for (auto [From, To] : H.cells()) {
    Nodes.insert(From);
    Nodes.insert(To);
  }
  for (auto [L, Vars] : VarsAt)
    Nodes.insert(L);

  for (sl::Loc L : Nodes) {
    OS << "  n" << L << " [label=\"";
    if (L == sl::NilLoc)
      OS << "nil";
    else
      OS << L;
    auto It = VarsAt.find(L);
    if (It != VarsAt.end() && !It->second.empty())
      OS << "\\n" << escape(It->second);
    OS << "\"";
    if (L == sl::NilLoc)
      OS << ", shape=doublecircle";
    else if (H.contains(L))
      OS << ", style=filled, fillcolor=lightgray";
    OS << "];\n";
  }
  for (auto [From, To] : H.cells())
    OS << "  n" << From << " -> n" << To << ";\n";
  OS << "}\n";
  return OS.str();
}
