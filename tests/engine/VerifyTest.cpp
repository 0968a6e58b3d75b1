//===- tests/engine/VerifyTest.cpp ----------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Program verification routed through the batch engine: the symexec
/// corpus's verification conditions, packaged as ProofTasks, must all
/// be discharged as valid, deterministically across worker counts, and
/// the engine must report the per-worker session-reuse statistics.
///
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"
#include "engine/VcTasks.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::engine;

TEST(VcTasks, CoversTheWholeCorpusGrouped) {
  VcTaskSet Vcs = symexecVcTasks();
  ASSERT_TRUE(Vcs.ok()) << *Vcs.Error;
  EXPECT_EQ(Vcs.Programs.size(), 18u);
  EXPECT_GT(Vcs.Tasks.size(), Vcs.Programs.size());
  size_t Sum = 0;
  for (uint32_t G = 0; G != Vcs.Programs.size(); ++G) {
    EXPECT_GT(Vcs.numTasksFor(G), 0u) << Vcs.Programs[G];
    Sum += Vcs.numTasksFor(G);
  }
  EXPECT_EQ(Sum, Vcs.Tasks.size());
  for (const ProofTask &T : Vcs.Tasks) {
    EXPECT_LT(T.Group, Vcs.Programs.size());
    EXPECT_FALSE(T.Name.empty());
    EXPECT_FALSE(T.Text.empty());
  }
}

TEST(VcTasks, EveryVcDischargesThroughTheEngine) {
  VcTaskSet Vcs = symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());

  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Vcs.Tasks);
  ASSERT_EQ(Results.size(), Vcs.Tasks.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    EXPECT_EQ(Results[I].Status, QueryStatus::Ok)
        << Vcs.Tasks[I].Name << ": " << Results[I].Error;
    EXPECT_EQ(Results[I].V, core::Verdict::Valid) << Vcs.Tasks[I].Name;
  }
  EXPECT_EQ(Engine.stats().Valid, Vcs.Tasks.size());
}

TEST(VcTasks, VerdictsDeterministicAcrossJobs) {
  VcTaskSet Vcs = symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());
  std::vector<std::string> Runs[2];
  unsigned JobCounts[] = {1, 6};
  for (int R = 0; R != 2; ++R) {
    BatchOptions Opts;
    Opts.Jobs = JobCounts[R];
    BatchProver Engine(Opts);
    for (const QueryResult &Res : Engine.run(Vcs.Tasks))
      Runs[R].push_back(Res.verdictText());
  }
  EXPECT_EQ(Runs[0], Runs[1]);
}

TEST(BatchProver, ReportsSessionAndPhaseStats) {
  VcTaskSet Vcs = symexecVcTasks();
  ASSERT_TRUE(Vcs.ok());

  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchProver Engine(Opts);
  (void)Engine.run(Vcs.Tasks);
  const BatchStats &S = Engine.stats();
  EXPECT_EQ(S.Queries, Vcs.Tasks.size());
  EXPECT_GE(S.Sessions, 1u);
  EXPECT_LE(S.Sessions, 2u);
  // Every proved task costs two rewinds (parse, rebuild); cache hits
  // cost one.
  EXPECT_GE(S.SessionResets, S.Queries);
  EXPECT_GT(S.TermsReclaimed, 0u);
  // Phase timers accumulate (parse+prove dominate; all non-negative).
  EXPECT_GE(S.ParseSeconds, 0.0);
  EXPECT_GT(S.ProveSeconds, 0.0);
  EXPECT_GE(S.CacheSeconds, 0.0);
}
