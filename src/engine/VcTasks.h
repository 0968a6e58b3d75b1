//===- engine/VcTasks.h - Symexec VCs as engine tasks -----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the symbolic executor to the batch engine: runs every
/// program of the symexec corpus through VC generation and renders
/// each verification condition as a ProofTask, grouped by program.
/// This is the Table 3 / Section 6 workload as a first-class engine
/// task source — the slp-verify tool and the verification tests both
/// consume it.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ENGINE_VCTASKS_H
#define SLP_ENGINE_VCTASKS_H

#include "core/ProofTask.h"

#include <optional>
#include <vector>

namespace slp {
namespace engine {

/// The verification conditions of a program corpus, ready to prove.
struct VcTaskSet {
  /// Program names; ProofTask::Group indexes into this vector.
  std::vector<std::string> Programs;
  /// One task per VC, in program order then VC order.
  std::vector<core::ProofTask> Tasks;
  /// Set if symbolic execution of some program got stuck.
  std::optional<std::string> Error;

  bool ok() const { return !Error.has_value(); }

  /// Number of VCs belonging to program \p Group.
  size_t numTasksFor(uint32_t Group) const {
    size_t N = 0;
    for (const core::ProofTask &T : Tasks)
      N += (T.Group == Group);
    return N;
  }
};

/// Symbolically executes the bundled 18-program corpus
/// (symexec::corpus) and returns every generated VC as a ProofTask.
VcTaskSet symexecVcTasks();

} // namespace engine
} // namespace slp

#endif // SLP_ENGINE_VCTASKS_H
