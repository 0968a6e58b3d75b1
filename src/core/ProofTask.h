//===- core/ProofTask.h - Generic proof obligations -------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work shared by every proving backend: one entailment to
/// discharge, as text in the slp concrete syntax, optionally labeled
/// and grouped. Text is the interchange form on purpose — every task
/// is parsed inside the backend (or engine worker) that proves it,
/// straight into that backend's private term table, so task sources
/// never share term tables with schedulers and any producer (a corpus
/// file, the symbolic executor's verification conditions, a network
/// front end) plugs in the same way. This also makes racing backends
/// trivially isolated: each portfolio member parses its own copy.
///
/// Historically this type lived in engine/; it moved down to core/
/// when core::EntailmentBackend made it the argument of every
/// backend's prove(). engine/BatchProver.h re-exports it under the
/// old engine:: name.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_PROOFTASK_H
#define SLP_CORE_PROOFTASK_H

#include <cstdint>
#include <string>

namespace slp {
namespace core {

/// One proof obligation.
struct ProofTask {
  /// The entailment in slp concrete syntax (sl::parseEntailment).
  std::string Text;
  /// Human-readable label, e.g. "reverse: postcondition"; empty for
  /// anonymous corpus lines.
  std::string Name;
  /// Grouping key for reporting (e.g. index of the source program in
  /// a verification run); results can be re-bucketed by it.
  uint32_t Group = 0;
};

} // namespace core
} // namespace slp

#endif // SLP_CORE_PROOFTASK_H
