//===- tests/CliTest.cpp - gmpc end-to-end CLI tests --------------------------===//
///
/// Drives the gmpc binary as a subprocess: compilation dumps, optimization
/// toggles, execution with generated graphs, and error reporting.
///
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CliResult {
  int ExitCode = -1;
  std::string Output; ///< stdout + stderr
};

CliResult runGmpc(const std::string &ArgLine) {
  std::string Cmd = std::string(GMPC_PATH) + " " + ArgLine + " 2>&1";
  std::array<char, 4096> Buffer;
  CliResult R;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  if (!Pipe)
    return R;
  while (size_t Got = fread(Buffer.data(), 1, Buffer.size(), Pipe))
    R.Output.append(Buffer.data(), Got);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string algo(const char *Name) {
  return std::string(GM_ALGORITHMS_DIR) + "/" + Name;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  CliResult R = runGmpc("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(Cli, DefaultDumpsIR) {
  CliResult R = runGmpc(algo("avg_teen.gm"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("pregel_program avg_teen_cnt"), std::string::npos);
  EXPECT_NE(R.Output.find("send_out"), std::string::npos);
}

TEST(Cli, EmitJavaAndGiraph) {
  CliResult Gps = runGmpc(algo("sssp.gm") + " --emit-java");
  EXPECT_EQ(Gps.ExitCode, 0);
  EXPECT_NE(Gps.Output.find("package gps.generated;"), std::string::npos);

  CliResult Gir = runGmpc(algo("sssp.gm") + " --emit-giraph");
  EXPECT_EQ(Gir.ExitCode, 0);
  EXPECT_NE(Gir.Output.find("package giraph.generated;"), std::string::npos);
}

TEST(Cli, FeaturesMatchTable3Row) {
  CliResult R = runGmpc(algo("bc_approx.gm") + " --features");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("BFS Traversal"), std::string::npos);
  EXPECT_NE(R.Output.find("Incoming Neighbors"), std::string::npos);
}

TEST(Cli, OptimizationTogglesChangeTheMachine) {
  CliResult On = runGmpc(algo("pagerank.gm") + " --dump-ir");
  CliResult Off = runGmpc(algo("pagerank.gm") +
                          " --dump-ir --no-state-merging "
                          "--no-intra-loop-merging");
  EXPECT_EQ(On.ExitCode, 0);
  EXPECT_EQ(Off.ExitCode, 0);
  EXPECT_LT(On.Output.size(), Off.Output.size()); // fewer states when merged
}

TEST(Cli, RunsSSSPOnGeneratedGraph) {
  CliResult R = runGmpc(algo("sssp.gm") +
                        " --run --graph-uniform 500 4000 --arg root=0"
                        " --rand-eprop len 1 5 --print-prop dist");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("graph: 500 nodes"), std::string::npos);
  EXPECT_NE(R.Output.find("supersteps="), std::string::npos);
  EXPECT_NE(R.Output.find("dist: 0 "), std::string::npos); // root at dist 0
}

TEST(Cli, RunsFromEdgeListFile) {
  std::string Path = ::testing::TempDir() + "/cli_ring.el";
  {
    std::ofstream Out(Path);
    for (int N = 0; N < 6; ++N)
      Out << N << " " << (N + 1) % 6 << "\n";
  }
  CliResult R = runGmpc(algo("comp_label.gm") + " --run --graph-file " +
                        Path);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("return: 1"), std::string::npos); // one component
}

TEST(Cli, ReportsCompileErrorsWithDiagnostics) {
  std::string Path = ::testing::TempDir() + "/cli_bad.gm";
  {
    std::ofstream Out(Path);
    Out << "Procedure p(G: Graph) { x = 3; }\n";
  }
  CliResult R = runGmpc(Path);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("undeclared"), std::string::npos);
}

TEST(Cli, RejectsUnknownScalarArgument) {
  CliResult R = runGmpc(algo("sssp.gm") +
                        " --run --graph-uniform 10 20 --arg nope=1"
                        " --rand-eprop len 1 5");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("no scalar argument"), std::string::npos);
}

TEST(Cli, MessageFormatFlagIsGone) {
  // Packed records are the engine's only mailbox format.
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 200 800 --message-format boxed"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("unknown option --message-format"),
            std::string::npos)
      << R.Output;
}

TEST(Cli, MissingEdgePropertyIsAUsageError) {
  // sssp reads edge property "len"; without --rand-eprop it has no column.
  CliResult R = runGmpc(algo("sssp.gm") +
                        " --run --graph-rmat 200 800 --arg root=0");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("missing edge property \"len\""), std::string::npos)
      << R.Output;
}

TEST(Cli, MissingScalarArgumentIsAUsageError) {
  CliResult R =
      runGmpc(algo("degree_stats.gm") + " --run --graph-rmat 2000 8000");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("missing scalar argument \"hub_bar\""),
            std::string::npos)
      << R.Output;
}

TEST(Cli, DegreeAwarePartitionIsGone) {
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 200 800 --partition degree-aware"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("--partition expects hash, range, or edge-balanced"),
            std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// Observability flags (--stats / --trace / --stats-json).
//===----------------------------------------------------------------------===//

TEST(Cli, StatsJsonRunRoundTrip) {
  // The tier-1 smoke test for the run report: compile + run PageRank, write
  // the JSON report, and check it is well-formed with per-superstep and
  // per-worker entries plus compiler pass timings.
  std::string Path = ::testing::TempDir() + "/cli_stats.json";
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 200 800 --workers 3"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=5"
                        " --stats-json " + Path);
  ASSERT_EQ(R.ExitCode, 0);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();

  std::string Err;
  EXPECT_TRUE(gm::json::validate(Doc, &Err)) << Err;
  EXPECT_NE(Doc.find("\"schema\": \"gm.run-report\""), std::string::npos);
  EXPECT_NE(Doc.find("\"version\": 3"), std::string::npos);
  EXPECT_NE(Doc.find("\"supersteps\""), std::string::npos);
  EXPECT_NE(Doc.find("\"workers\""), std::string::npos);
  EXPECT_NE(Doc.find("\"compute_seconds\""), std::string::npos);
  // Schema v2 additions: per-phase totals, split combine/deliver timings,
  // and the process peak RSS.
  EXPECT_NE(Doc.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(Doc.find("\"combine_seconds\""), std::string::npos);
  EXPECT_NE(Doc.find("\"deliver_seconds\""), std::string::npos);
  EXPECT_NE(Doc.find("\"peak_rss_bytes\""), std::string::npos);
  // Schema v3 additions: the ran/active-after split and the per-step
  // traversal schedule (docs/scheduling.md).
  EXPECT_NE(Doc.find("\"ran_vertices\""), std::string::npos);
  EXPECT_NE(Doc.find("\"active_after\""), std::string::npos);
  EXPECT_NE(Doc.find("\"schedule_mode\""), std::string::npos);
  EXPECT_NE(Doc.find("\"frontier_size\""), std::string::npos);
  EXPECT_NE(Doc.find("\"sparse_supersteps\""), std::string::npos);
  EXPECT_NE(Doc.find("\"schedule\": \"auto\""), std::string::npos);
  EXPECT_NE(Doc.find("\"halt\": \"master-halt\""), std::string::npos);
  EXPECT_NE(Doc.find("\"compiler\""), std::string::npos);
  EXPECT_NE(Doc.find("\"translate\""), std::string::npos);
}

TEST(Cli, StatsJsonCompileOnlyToStdout) {
  CliResult R = runGmpc(algo("sssp.gm") + " --stats-json -");
  ASSERT_EQ(R.ExitCode, 0);
  std::string Err;
  EXPECT_TRUE(gm::json::validate(R.Output, &Err)) << Err;
  EXPECT_NE(R.Output.find("\"graph\""), std::string::npos);
  EXPECT_NE(R.Output.find("(not run)"), std::string::npos);
  EXPECT_NE(R.Output.find("\"halt\": \"none\""), std::string::npos);
}

TEST(Cli, StatsPrintsPassTable) {
  CliResult R = runGmpc(algo("pagerank.gm") + " --stats");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("compiler pass timings"), std::string::npos);
  EXPECT_NE(R.Output.find("translate"), std::string::npos);
  EXPECT_NE(R.Output.find("ir.states.post-opt"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Static analysis flags (docs/analysis.md).
//===----------------------------------------------------------------------===//

TEST(Cli, LintCleanProgramIsQuiet) {
  CliResult R = runGmpc(algo("pagerank.gm") + " --lint");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Output.find("warning"), std::string::npos) << R.Output;
}

TEST(Cli, VerifyEachPassesOnAllAlgorithms) {
  for (const char *Name :
       {"avg_teen.gm", "pagerank.gm", "conductance.gm", "sssp.gm",
        "bipartite_matching.gm", "bc_approx.gm"}) {
    CliResult R = runGmpc(algo(Name) + " --verify-each --lint");
    EXPECT_EQ(R.ExitCode, 0) << Name << ":\n" << R.Output;
    EXPECT_EQ(R.Output.find("error"), std::string::npos)
        << Name << ":\n"
        << R.Output;
  }
}

TEST(Cli, LintReportsBipartiteRandomWriteRace) {
  // The documented §3.1 caveat: warnings on stderr, but exit 0.
  CliResult R = runGmpc(algo("bipartite_matching.gm") + " --lint");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("random-write-race"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("this.match"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("this.suitor"), std::string::npos) << R.Output;
}

TEST(Cli, WerrorTurnsLintWarningsIntoFailure) {
  CliResult R = runGmpc(algo("bipartite_matching.gm") + " --lint --Werror");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("error"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("random-write-race"), std::string::npos) << R.Output;
}

TEST(Cli, StatsJsonCarriesLintCounters) {
  CliResult R =
      runGmpc(algo("bipartite_matching.gm") + " --lint --stats-json -");
  ASSERT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("\"lint.random-write-race\": 2"), std::string::npos)
      << R.Output;
}

TEST(Cli, TracePrintsSuperstepTable) {
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 100 400"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=3 --trace");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("superstep trace:"), std::string::npos);
  EXPECT_NE(R.Output.find("per-worker totals:"), std::string::npos);
  EXPECT_NE(R.Output.find("halt="), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Runtime tracing (--trace-json) and machine-output stream routing.
//===----------------------------------------------------------------------===//

/// Captures one stream only: stdout with stderr discarded, or vice versa.
CliResult runGmpcOneStream(const std::string &ArgLine, bool StderrOnly) {
  std::string Redirect =
      StderrOnly ? " 2>&1 1>/dev/null" : " 2>/dev/null";
  std::string Cmd = std::string(GMPC_PATH) + " " + ArgLine + Redirect;
  std::array<char, 4096> Buffer;
  CliResult R;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  if (!Pipe)
    return R;
  while (size_t Got = fread(Buffer.data(), 1, Buffer.size(), Pipe))
    R.Output.append(Buffer.data(), Got);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

TEST(Cli, StatsJsonToStdoutMovesHumanOutputToStderr) {
  const std::string Args =
      algo("pagerank.gm") +
      " --run --graph-rmat 100 400"
      " --arg e=0.0 --arg d=0.85 --arg max_iter=3 --trace --stats-json -";

  // stdout must be the JSON document alone — parseable with nothing mixed in.
  CliResult Out = runGmpcOneStream(Args, /*StderrOnly=*/false);
  ASSERT_EQ(Out.ExitCode, 0);
  std::string Err;
  EXPECT_TRUE(gm::json::validate(Out.Output, &Err)) << Err << "\n"
                                                    << Out.Output;
  EXPECT_EQ(Out.Output.find("superstep trace:"), std::string::npos);

  // The human-readable report (including the --trace table) moved to stderr.
  CliResult ErrStream = runGmpcOneStream(Args, /*StderrOnly=*/true);
  ASSERT_EQ(ErrStream.ExitCode, 0);
  EXPECT_NE(ErrStream.Output.find("graph: 100 nodes"), std::string::npos);
  EXPECT_NE(ErrStream.Output.find("superstep trace:"), std::string::npos);
  EXPECT_NE(ErrStream.Output.find("per-worker totals:"), std::string::npos);
}

TEST(Cli, TraceJsonWritesChromeTrace) {
  std::string Path = ::testing::TempDir() + "/cli_trace.json";
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 100 400 --workers 2 --threaded"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=3"
                        " --trace-json " + Path);
  ASSERT_EQ(R.ExitCode, 0);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();

  std::string Err;
  EXPECT_TRUE(gm::json::validate(Doc, &Err)) << Err;
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  // Compiler passes, engine phases, and counter tracks all land in one file.
  EXPECT_NE(Doc.find("\"translate\""), std::string::npos);
  EXPECT_NE(Doc.find("\"superstep\""), std::string::npos);
  EXPECT_NE(Doc.find("\"compute\""), std::string::npos);
  EXPECT_NE(Doc.find("\"barrier-wait\""), std::string::npos);
  EXPECT_NE(Doc.find("\"active_vertices\""), std::string::npos);
  EXPECT_NE(Doc.find("\"worker 1\""), std::string::npos);
}

TEST(Cli, StatsJsonUnwritablePathFailsLoudly) {
  // A machine-output flag pointed at a path that cannot be opened must not
  // exit 0 — CI consuming the report would read stale or missing data.
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 50 200"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2"
                        " --stats-json /nonexistent-dir/stats.json");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("/nonexistent-dir/stats.json"), std::string::npos)
      << R.Output;
}

TEST(Cli, TraceJsonUnwritablePathFailsLoudly) {
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 50 200"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2"
                        " --trace-json /nonexistent-dir/trace.json");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("/nonexistent-dir/trace.json"), std::string::npos)
      << R.Output;
}

TEST(Cli, StatsJsonFullDeviceFailsLoudly) {
  // The open succeeds on /dev/full but every write fails at flush time; the
  // stream-state check after flushing must catch it (satellite fix: gmpc
  // previously exited 0 here).
  std::ifstream Dev("/dev/full");
  if (!Dev.good())
    GTEST_SKIP() << "/dev/full not available";
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 50 200"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2"
                        " --stats-json /dev/full");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("/dev/full"), std::string::npos) << R.Output;
}

TEST(Cli, TraceJsonFullDeviceFailsLoudly) {
  std::ifstream Dev("/dev/full");
  if (!Dev.good())
    GTEST_SKIP() << "/dev/full not available";
  CliResult R = runGmpc(algo("pagerank.gm") +
                        " --run --graph-rmat 50 200"
                        " --arg e=0.0 --arg d=0.85 --arg max_iter=2"
                        " --trace-json /dev/full");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("/dev/full"), std::string::npos) << R.Output;
}

TEST(Cli, TraceJsonToStdoutIsPureJson) {
  const std::string Args = algo("pagerank.gm") +
                           " --run --graph-rmat 100 400"
                           " --arg e=0.0 --arg d=0.85 --arg max_iter=3"
                           " --trace-json -";
  CliResult Out = runGmpcOneStream(Args, /*StderrOnly=*/false);
  ASSERT_EQ(Out.ExitCode, 0);
  std::string Err;
  EXPECT_TRUE(gm::json::validate(Out.Output, &Err)) << Err;
  EXPECT_NE(Out.Output.find("\"traceEvents\""), std::string::npos);

  CliResult ErrStream = runGmpcOneStream(Args, /*StderrOnly=*/true);
  ASSERT_EQ(ErrStream.ExitCode, 0);
  EXPECT_NE(ErrStream.Output.find("run: supersteps="), std::string::npos);
}

} // namespace
