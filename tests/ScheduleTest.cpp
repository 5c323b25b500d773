//===- tests/ScheduleTest.cpp - schedule modes are bit-identical ------------===//
///
/// The sparse/dense traversal schedule's contract (docs/scheduling.md):
/// Config::Schedule changes which iteration machinery a superstep uses —
/// frontier lists vs. full owned scans — never what any program computes or
/// what any counter reports. This suite pins auto and forced-sparse against
/// forced-dense (the historical path) for the six compiler-generated paper
/// algorithms across worker counts x partition strategies x seq/threaded x
/// interp/native, and for the hand-written programs whose
/// voteToHalt behaviour actually drives the auto heuristic sparse. Configure
/// with -DGM_SANITIZE=thread and the threaded legs run under TSan.
///
//===----------------------------------------------------------------------===//

#include "algorithms/manual/ManualPrograms.h"
#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "opt/Optimizer.h"
#include "pregel/Runtime.h"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace gm;
using namespace gm::pregel;

/// Everything except wall time and SparseSupersteps (the knob under test)
/// must agree between two runs of the same program and engine config.
void expectSameCounters(const RunStats &A, const RunStats &B,
                        const std::string &What) {
  EXPECT_EQ(A.Supersteps, B.Supersteps) << What;
  EXPECT_EQ(A.TotalMessages, B.TotalMessages) << What;
  EXPECT_EQ(A.NetworkMessages, B.NetworkMessages) << What;
  EXPECT_EQ(A.NetworkBytes, B.NetworkBytes) << What;
  EXPECT_EQ(A.MessagesPerStep, B.MessagesPerStep) << What;
  EXPECT_EQ(A.MirrorHits, B.MirrorHits) << What;
  EXPECT_EQ(A.Halt, B.Halt) << What;
}

class ScheduleSweep : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Workers, ScheduleSweep, ::testing::Values(1, 3, 8));

//===----------------------------------------------------------------------===//
// Hand-written programs: the voteToHalt variants are what the auto
// heuristic actually switches on.
//===----------------------------------------------------------------------===//

std::vector<int64_t> randomLens(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Dist(1, 9);
  std::vector<int64_t> Len(N);
  for (auto &V : Len)
    V = Dist(Rng);
  return Len;
}

TEST_P(ScheduleSweep, SSSPVoteToHaltAutoGoesSparseAndMatchesDense) {
  // Pregel-paper SSSP votes to halt aggressively, so after the flood
  // saturates, the frontier thins out and auto must switch sparse — with
  // results, counters, and step counts identical to the dense path.
  Graph G = generateUniformRandom(4000, 12000, 29);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 30);
  auto Run = [&](ScheduleMode M, std::vector<int64_t> &Out) {
    manual::SSSPVoteToHaltProgram P(0, Len);
    Config Cfg;
    Cfg.NumWorkers = GetParam();
    Cfg.Schedule = M;
    RunStats Stats = Engine(G, Cfg).run(P);
    Out = P.distance();
    return Stats;
  };
  std::vector<int64_t> Dense, Auto, Sparse;
  RunStats DS = Run(ScheduleMode::Dense, Dense);
  RunStats AS = Run(ScheduleMode::Auto, Auto);
  RunStats SS = Run(ScheduleMode::Sparse, Sparse);
  std::string What = "sssp-vth W=" + std::to_string(GetParam());
  expectSameCounters(DS, AS, What + " auto");
  expectSameCounters(DS, SS, What + " sparse");
  EXPECT_EQ(Dense, Auto);
  EXPECT_EQ(Dense, Sparse);
  EXPECT_EQ(DS.SparseSupersteps, 0u);
  EXPECT_GT(AS.SparseSupersteps, 0u) << What;
  EXPECT_LT(AS.SparseSupersteps, AS.Supersteps) << What; // step 0 is dense
  EXPECT_EQ(SS.SparseSupersteps, SS.Supersteps);
}

TEST_P(ScheduleSweep, ForcedSparsePageRankMatchesDense) {
  // PageRank never votes to halt: every superstep fronts the whole graph,
  // auto stays dense, and a forced-sparse run must still agree bit for bit
  // (same FP summation order through the frontier lists).
  Graph G = generateRMAT(1 << 9, 1 << 12, 31);
  auto Run = [&](ScheduleMode M, std::vector<double> &Out) {
    manual::PageRankProgram P(0.85, 0.0, 6);
    Config Cfg;
    Cfg.NumWorkers = GetParam();
    Cfg.Schedule = M;
    RunStats Stats = Engine(G, Cfg).run(P);
    Out = P.rank();
    return Stats;
  };
  std::vector<double> Dense, Auto, Sparse;
  RunStats DS = Run(ScheduleMode::Dense, Dense);
  RunStats AS = Run(ScheduleMode::Auto, Auto);
  RunStats SS = Run(ScheduleMode::Sparse, Sparse);
  std::string What = "pagerank W=" + std::to_string(GetParam());
  expectSameCounters(DS, AS, What + " auto");
  expectSameCounters(DS, SS, What + " sparse");
  EXPECT_EQ(Dense, Auto);
  EXPECT_EQ(Dense, Sparse);
  EXPECT_EQ(AS.SparseSupersteps, 0u) << "auto must stay dense on pagerank";
  EXPECT_EQ(SS.SparseSupersteps, SS.Supersteps);
}

TEST_P(ScheduleSweep, ForcedDenseSSSPMatchesAuto) {
  // The converse pin: forcing dense on a frontier-shaped algorithm only
  // changes wall time, never the outcome.
  Graph G = generateUniformRandom(600, 4000, 23);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 24);
  auto Run = [&](ScheduleMode M, std::vector<int64_t> &Out) {
    manual::SSSPVoteToHaltProgram P(0, Len);
    Config Cfg;
    Cfg.NumWorkers = GetParam();
    Cfg.Schedule = M;
    Cfg.Combiners[0] = ReduceKind::Min;
    RunStats Stats = Engine(G, Cfg).run(P);
    Out = P.distance();
    return Stats;
  };
  std::vector<int64_t> Dense, Auto;
  RunStats DS = Run(ScheduleMode::Dense, Dense);
  RunStats AS = Run(ScheduleMode::Auto, Auto);
  std::string What = "sssp-vth-combined W=" + std::to_string(GetParam());
  expectSameCounters(DS, AS, What);
  EXPECT_EQ(Dense, Auto) << What;
}

TEST(Schedule, ConductanceCrossStepRunsSparse) {
  // Conductance: everyone tallies degrees in step 0 and votes to halt, so
  // step 1 fronts only the crossing-edge message receivers. With a tiny
  // "inside" community that frontier is far below the threshold and auto
  // runs step 1 sparse — same counters and result as dense.
  Graph G = generateUniformRandom(1 << 9, 600, 33);
  std::vector<int64_t> Member(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Member[N] = N % 64; // inside set (Num=0): 8 of 512 vertices
  auto Run = [&](ScheduleMode M, double &Out) {
    manual::ConductanceProgram P(Member, 0);
    Config Cfg;
    Cfg.Schedule = M;
    RunStats Stats = Engine(G, Cfg).run(P);
    Out = P.conductance();
    return Stats;
  };
  double Dense = 0, Auto = 0;
  RunStats DS = Run(ScheduleMode::Dense, Dense);
  RunStats AS = Run(ScheduleMode::Auto, Auto);
  expectSameCounters(DS, AS, "conductance");
  EXPECT_EQ(Dense, Auto);
  EXPECT_GT(AS.SparseSupersteps, 0u);
}

TEST(Schedule, ModeNamesRoundTrip) {
  for (ScheduleMode M :
       {ScheduleMode::Auto, ScheduleMode::Dense, ScheduleMode::Sparse}) {
    auto Parsed = parseScheduleMode(scheduleModeName(M));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, M);
  }
  EXPECT_FALSE(parseScheduleMode("pull").has_value());
  EXPECT_FALSE(parseScheduleMode("").has_value());
}

//===----------------------------------------------------------------------===//
// All six paper algorithms, compiled: auto == sparse == dense bit for bit
// under every partition strategy x seq/threaded x interp/native.
//===----------------------------------------------------------------------===//

exec::ExecArgs makeArgs(const std::string &Algo, const Graph &G,
                        NodeId BipartiteLeft) {
  exec::ExecArgs Args;
  std::mt19937_64 Rng(4242);
  if (Algo == "avg_teen") {
    Args.Scalars["K"] = Value::makeInt(35);
    std::vector<Value> Age(G.numNodes());
    std::uniform_int_distribution<int64_t> Dist(5, 70);
    for (auto &V : Age)
      V = Value::makeInt(Dist(Rng));
    Args.NodeProps["age"] = std::move(Age);
  } else if (Algo == "pagerank") {
    Args.Scalars["e"] = Value::makeDouble(0.0);
    Args.Scalars["d"] = Value::makeDouble(0.85);
    Args.Scalars["max_iter"] = Value::makeInt(5);
  } else if (Algo == "conductance") {
    Args.Scalars["num"] = Value::makeInt(0);
    std::vector<Value> Member(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Member[N] = Value::makeInt(N % 4);
    Args.NodeProps["member"] = std::move(Member);
  } else if (Algo == "sssp") {
    Args.Scalars["root"] = Value::makeInt(0);
    std::vector<Value> Len(G.numEdges());
    std::uniform_int_distribution<int64_t> Dist(1, 10);
    for (auto &V : Len)
      V = Value::makeInt(Dist(Rng));
    Args.EdgeProps["len"] = std::move(Len);
  } else if (Algo == "bipartite_matching") {
    std::vector<Value> IsLeft(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N)
      IsLeft[N] = Value::makeBool(N < BipartiteLeft);
    Args.NodeProps["is_left"] = std::move(IsLeft);
  } else if (Algo == "bc_approx") {
    Args.Scalars["K"] = Value::makeInt(2);
  }
  return Args;
}

struct AlgoCase {
  const char *Name;
  const char *ResultProp; ///< null: compare the return value only
};

TEST_P(ScheduleSweep, PaperAlgorithmsBitIdenticalAcrossSchedules) {
  const AlgoCase Cases[] = {
      {"avg_teen", "teen_cnt"},  {"pagerank", "pg_rank"},
      {"conductance", nullptr},  {"sssp", "dist"},
      {"bipartite_matching", "match"}, {"bc_approx", "BC"},
  };
  const PartitionStrategy Strategies[] = {
      PartitionStrategy::Hash, PartitionStrategy::Range,
      PartitionStrategy::EdgeBalanced};
  const unsigned W = GetParam();

  for (const AlgoCase &C : Cases) {
    const bool Bipartite = std::string(C.Name) == "bipartite_matching";
    NodeId BipartiteLeft = 1 << 7;
    Graph G = Bipartite
                  ? generateBipartite(BipartiteLeft, (1 << 7) + 50, 1 << 10, 5)
                  : generateRMAT(1 << 8, 1 << 10, 5);

    CompileResult Compiled = compileGreenMarlFile(
        std::string(GM_ALGORITHMS_DIR) + "/" + C.Name + ".gm");
    ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

    auto Run = [&](ScheduleMode M, PartitionStrategy S, bool Threaded,
                   ExecBackend B) {
      Config Cfg;
      Cfg.NumWorkers = W;
      Cfg.Threaded = Threaded;
      Cfg.Partition = S;
      Cfg.Backend = B;
      Cfg.Schedule = M;
      Cfg.Combiners =
          inferCombinerTags(*Compiled.Program, exec::IRExecutor::MsgTagOffset);
      return exec::runProgramWithBackend(*Compiled.Program, G,
                                         makeArgs(C.Name, G, BipartiteLeft),
                                         Cfg);
    };

    for (PartitionStrategy S : Strategies)
      for (bool Threaded : {false, true})
        for (ExecBackend B : {ExecBackend::Interp, ExecBackend::Native}) {
          exec::BackendRun Dense = Run(ScheduleMode::Dense, S, Threaded, B);
          std::string Base = std::string(C.Name) + " W=" + std::to_string(W) +
                             " part=" + partitionStrategyName(S) +
                             (Threaded ? " threaded" : " sequential") +
                             (B == ExecBackend::Interp ? " interp" : " native");
          EXPECT_EQ(Dense.Stats.SparseSupersteps, 0u) << Base;
          for (ScheduleMode M : {ScheduleMode::Auto, ScheduleMode::Sparse}) {
            exec::BackendRun Other = Run(M, S, Threaded, B);
            std::string What = Base + " schedule=" + scheduleModeName(M);
            expectSameCounters(Dense.Stats, Other.Stats, What);
            if (M == ScheduleMode::Sparse) {
              EXPECT_EQ(Other.Stats.SparseSupersteps, Other.Stats.Supersteps)
                  << What;
            }
            if (C.ResultProp) {
              for (NodeId N = 0; N < G.numNodes(); ++N) {
                Value A = Dense.nodeValue(C.ResultProp, N);
                Value Bv = Other.nodeValue(C.ResultProp, N);
                ASSERT_TRUE(A == Bv)
                    << What << " " << C.ResultProp << "[" << N
                    << "]: " << A.toString() << " vs " << Bv.toString();
              }
            }
            ASSERT_EQ(Dense.returnValue().has_value(),
                      Other.returnValue().has_value())
                << What;
            if (Dense.returnValue()) {
              EXPECT_TRUE(*Dense.returnValue() == *Other.returnValue())
                  << What << ": " << Dense.returnValue()->toString() << " vs "
                  << Other.returnValue()->toString();
            }
          }
        }
  }
}

} // namespace
