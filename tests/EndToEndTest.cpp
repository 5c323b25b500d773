//===- tests/EndToEndTest.cpp - Full-pipeline tests on the paper programs -----===//
///
/// Compiles the six bundled Green-Marl programs (the paper's Table 2 set)
/// through the complete pipeline, executes them on the BSP runtime, and
/// checks (a) correctness against the sequential oracles and (b) the §5.2
/// equivalence claims against the hand-written Pregel baselines: identical
/// timesteps and identical network I/O.
///
//===----------------------------------------------------------------------===//

#include "algorithms/manual/ManualPrograms.h"
#include "algorithms/reference/Sequential.h"
#include "driver/Compiler.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

namespace {

using namespace gm;
using exec::ExecArgs;
using exec::IRExecutor;
using exec::runProgram;
using pregel::Config;
using pregel::Engine;
using pregel::RunStats;

std::string algoPath(const char *Name) {
  return std::string(GM_ALGORITHMS_DIR) + "/" + Name;
}

CompileResult compileOrDie(const char *File,
                           const CompileOptions &Opts = {}) {
  CompileResult R = compileGreenMarlFile(algoPath(File), Opts);
  EXPECT_TRUE(R.ok()) << R.Diags->dump();
  return R;
}

std::vector<Value> toValues(const std::vector<int64_t> &In) {
  std::vector<Value> Out;
  Out.reserve(In.size());
  for (int64_t V : In)
    Out.push_back(Value::makeInt(V));
  return Out;
}

//===----------------------------------------------------------------------===//
// Average Teenage Followers
//===----------------------------------------------------------------------===//

TEST(E2E, AvgTeenMatchesReferenceAndManual) {
  CompileResult C = compileOrDie("avg_teen.gm");
  ASSERT_TRUE(C.ok());

  Graph G = generateRMAT(1 << 10, 1 << 13, 404);
  std::mt19937_64 Rng(405);
  std::uniform_int_distribution<int64_t> AgeDist(5, 70);
  std::vector<int64_t> Age(G.numNodes());
  for (auto &A : Age)
    A = AgeDist(Rng);
  int64_t K = 35;

  // Compiled program.
  ExecArgs Args;
  Args.Scalars["K"] = Value::makeInt(K);
  Args.NodeProps["age"] = toValues(Age);
  Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  RunStats Gen = runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

  // Reference.
  auto Ref = reference::avgTeenageFollowers(G, Age, K);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_EQ(Exec->nodeProp("teen_cnt").get(N).getInt(), Ref.TeenCount[N]);
  ASSERT_TRUE(Exec->returnValue().has_value());
  EXPECT_DOUBLE_EQ(Exec->returnValue()->getDouble(), Ref.Average);

  // Manual baseline: identical timesteps and network I/O (§5.2).
  manual::AvgTeenProgram Manual(Age, K);
  RunStats Man = Engine(G, Cfg).run(Manual);
  EXPECT_DOUBLE_EQ(Manual.average(), Ref.Average);
  EXPECT_EQ(Gen.Supersteps, Man.Supersteps);
  EXPECT_EQ(Gen.TotalMessages, Man.TotalMessages);
  EXPECT_EQ(Gen.NetworkMessages, Man.NetworkMessages);
  EXPECT_EQ(Gen.NetworkBytes, Man.NetworkBytes);
}

//===----------------------------------------------------------------------===//
// PageRank
//===----------------------------------------------------------------------===//

TEST(E2E, PageRankMatchesReferenceAndManual) {
  CompileResult C = compileOrDie("pagerank.gm");
  ASSERT_TRUE(C.ok());

  Graph G = generateRMAT(1 << 10, 1 << 13, 505);
  double D = 0.85;
  int MaxIter = 12;

  ExecArgs Args;
  Args.Scalars["e"] = Value::makeDouble(0.0); // run all MaxIter iterations
  Args.Scalars["d"] = Value::makeDouble(D);
  Args.Scalars["max_iter"] = Value::makeInt(MaxIter);
  Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  RunStats Gen = runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

  std::vector<double> Ref = reference::pageRank(G, D, 0.0, MaxIter);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_NEAR(Exec->nodeProp("pg_rank").get(N).getDouble(), Ref[N], 1e-9)
        << "node " << N;

  manual::PageRankProgram Manual(D, 0.0, MaxIter);
  RunStats Man = Engine(G, Cfg).run(Manual);
  EXPECT_EQ(Gen.Supersteps, Man.Supersteps);
  EXPECT_EQ(Gen.TotalMessages, Man.TotalMessages);
  EXPECT_EQ(Gen.NetworkBytes, Man.NetworkBytes);
}

//===----------------------------------------------------------------------===//
// Conductance
//===----------------------------------------------------------------------===//

TEST(E2E, ConductanceMatchesReferenceAndManual) {
  CompileResult C = compileOrDie("conductance.gm");
  ASSERT_TRUE(C.ok());

  Graph G = generateRMAT(1 << 10, 1 << 13, 606);
  std::vector<int64_t> Member(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Member[N] = N % 3;

  for (int64_t Part = 0; Part < 3; ++Part) {
    ExecArgs Args;
    Args.Scalars["num"] = Value::makeInt(Part);
    Args.NodeProps["member"] = toValues(Member);
    Config Cfg;
    Cfg.NumWorkers = 4;
    std::unique_ptr<IRExecutor> Exec;
    RunStats Gen = runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

    double Ref = reference::conductance(G, Member, Part);
    ASSERT_TRUE(Exec->returnValue().has_value());
    EXPECT_DOUBLE_EQ(Exec->returnValue()->getDouble(), Ref) << Part;

    manual::ConductanceProgram Manual(Member, Part);
    RunStats Man = Engine(G, Cfg).run(Manual);
    EXPECT_DOUBLE_EQ(Manual.conductance(), Ref);
    EXPECT_EQ(Gen.Supersteps, Man.Supersteps) << Part;
    EXPECT_EQ(Gen.TotalMessages, Man.TotalMessages) << Part;
    EXPECT_EQ(Gen.NetworkBytes, Man.NetworkBytes) << Part;
  }
}

//===----------------------------------------------------------------------===//
// SSSP
//===----------------------------------------------------------------------===//

TEST(E2E, SSSPMatchesReferenceAndManual) {
  CompileResult C = compileOrDie("sssp.gm");
  ASSERT_TRUE(C.ok());

  Graph G = generateUniformRandom(600, 4800, 707);
  std::mt19937_64 Rng(708);
  std::uniform_int_distribution<int64_t> LenDist(1, 12);
  std::vector<int64_t> Len(G.numEdges());
  for (auto &L : Len)
    L = LenDist(Rng);
  NodeId Root = 11;

  ExecArgs Args;
  Args.Scalars["root"] = Value::makeInt(Root);
  Args.EdgeProps["len"] = toValues(Len);
  Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  RunStats Gen = runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

  std::vector<int64_t> Ref = reference::sssp(G, Root, Len);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_EQ(Exec->nodeProp("dist").get(N).getInt(), Ref[N]) << "node " << N;

  manual::SSSPProgram Manual(Root, Len);
  RunStats Man = Engine(G, Cfg).run(Manual);
  EXPECT_EQ(Manual.distance(), Ref);
  EXPECT_EQ(Gen.TotalMessages, Man.TotalMessages);
  EXPECT_EQ(Gen.NetworkBytes, Man.NetworkBytes);
  EXPECT_EQ(Gen.Supersteps, Man.Supersteps);
}

//===----------------------------------------------------------------------===//
// Bipartite matching
//===----------------------------------------------------------------------===//

TEST(E2E, BipartiteMatchingIsValidAndMaximal) {
  CompileResult C = compileOrDie("bipartite_matching.gm");
  ASSERT_TRUE(C.ok());

  NodeId L = 300, R = 350;
  Graph G = generateBipartite(L, R, 2100, 808);
  std::vector<uint8_t> Left(G.numNodes(), 0);
  std::vector<Value> IsLeft(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    Left[N] = N < L;
    IsLeft[N] = Value::makeBool(N < L);
  }

  ExecArgs Args;
  Args.NodeProps["is_left"] = IsLeft;
  Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);
  ASSERT_TRUE(Exec->finished());

  std::vector<NodeId> Match(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    int64_t M = Exec->nodeProp("match").get(N).getInt();
    Match[N] = M < 0 ? InvalidNode : static_cast<NodeId>(M);
  }
  EXPECT_TRUE(reference::isValidMatching(G, Left, Match));
  EXPECT_TRUE(reference::isMaximalMatching(G, Left, Match));

  // The returned count equals the number of matched boys.
  int64_t Count = 0;
  for (NodeId N = 0; N < L; ++N)
    if (Match[N] != InvalidNode)
      ++Count;
  ASSERT_TRUE(Exec->returnValue().has_value());
  EXPECT_EQ(Exec->returnValue()->getInt(), Count);

  // Both protocols produce maximal matchings of comparable size; the
  // manual baseline also takes 3 supersteps per round.
  manual::BipartiteMatchingProgram Manual(
      std::vector<uint8_t>(Left.begin(), Left.end()));
  RunStats Man = Engine(G, Cfg).run(Manual);
  EXPECT_TRUE(reference::isMaximalMatching(G, Left, Manual.match()));
  EXPECT_GT(Exec->returnValue()->getInt(), 0);
  EXPECT_GT(Man.Supersteps, 0u);
}

//===----------------------------------------------------------------------===//
// Approximate Betweenness Centrality — the paper's flagship compilation.
//===----------------------------------------------------------------------===//

/// Reproduces the exact root sequence the engine's master RNG will draw.
std::vector<NodeId> expectedRoots(NodeId NumNodes, uint64_t Seed, int K) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<NodeId> Dist(0, NumNodes - 1);
  std::vector<NodeId> Roots(K);
  for (auto &R : Roots)
    R = Dist(Rng);
  return Roots;
}

TEST(E2E, BetweennessCentralityMatchesBrandes) {
  CompileResult C = compileOrDie("bc_approx.gm");
  ASSERT_TRUE(C.ok());

  // A graph with reverse edges so BFS trees are deep and non-trivial.
  Graph G = generateRMAT(1 << 8, 1 << 11, 909);
  int K = 4;
  uint64_t Seed = 4242;

  ExecArgs Args;
  Args.Scalars["K"] = Value::makeInt(K);
  Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.RandomSeed = Seed;
  std::unique_ptr<IRExecutor> Exec;
  RunStats Stats = runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);
  ASSERT_TRUE(Exec->finished());

  std::vector<NodeId> Roots = expectedRoots(G.numNodes(), Seed, K);
  std::vector<double> Ref = reference::betweennessCentrality(G, Roots);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_NEAR(Exec->nodeProp("BC").get(N).getDouble(), Ref[N], 1e-6)
        << "node " << N;

  // The in-neighbor preamble must have run (2 extra supersteps, E id
  // messages) because the reverse traversal pulls from BFS children.
  EXPECT_TRUE(C.Program->UsesInNbrs);
  EXPECT_GE(Stats.Supersteps, 2u);

  // Table 3's hard rows all fire for BC.
  EXPECT_TRUE(C.Features.count(feature::BFSTraversal));
  EXPECT_TRUE(C.Features.count(feature::FlippingEdge));
  EXPECT_TRUE(C.Features.count(feature::DissectingLoops));
  EXPECT_TRUE(C.Features.count(feature::RandomAccessSeq));
  EXPECT_TRUE(C.Features.count(feature::IncomingNeighbors));
  EXPECT_TRUE(C.Features.count(feature::MultipleComm));
}

TEST(E2E, BetweennessCentralityExactOnPath) {
  CompileResult C = compileOrDie("bc_approx.gm");
  ASSERT_TRUE(C.ok());

  // Undirected path 0-1-2-3-4: run from every node (K = N with a seed
  // sweep is impractical, so check a single known root instead).
  Graph::Builder B(5);
  for (NodeId N = 0; N + 1 < 5; ++N) {
    B.addEdge(N, N + 1);
    B.addEdge(N + 1, N);
  }
  Graph G = std::move(B).build();

  uint64_t Seed = 77;
  std::vector<NodeId> Roots = expectedRoots(G.numNodes(), Seed, 1);

  ExecArgs Args;
  Args.Scalars["K"] = Value::makeInt(1);
  Config Cfg;
  Cfg.RandomSeed = Seed;
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

  std::vector<double> Ref = reference::betweennessCentrality(G, Roots);
  for (NodeId N = 0; N < 5; ++N)
    EXPECT_NEAR(Exec->nodeProp("BC").get(N).getDouble(), Ref[N], 1e-12);
}

//===----------------------------------------------------------------------===//
// Optimization ablations (the §4.2 claims: fewer timesteps, same results).
//===----------------------------------------------------------------------===//

struct AblationResult {
  RunStats Stats;
  std::vector<double> Rank;
};

AblationResult runPageRank(const CompileOptions &Opts, const Graph &G) {
  CompileResult C = compileOrDie("pagerank.gm", Opts);
  EXPECT_TRUE(C.ok());
  ExecArgs Args;
  Args.Scalars["e"] = Value::makeDouble(0.0);
  Args.Scalars["d"] = Value::makeDouble(0.85);
  Args.Scalars["max_iter"] = Value::makeInt(8);
  std::unique_ptr<IRExecutor> Exec;
  AblationResult R;
  R.Stats = runProgram(*C.Program, G, std::move(Args), Config{}, &Exec);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    R.Rank.push_back(Exec->nodeProp("pg_rank").get(N).getDouble());
  return R;
}

TEST(E2E, OptimizationsPreserveResultsAndCutTimesteps) {
  Graph G = generateUniformRandom(400, 3200, 111);

  CompileOptions All;
  CompileOptions NoIntra;
  NoIntra.IntraLoopMerging = false;
  CompileOptions None;
  None.StateMerging = false;
  None.IntraLoopMerging = false;

  AblationResult RAll = runPageRank(All, G);
  AblationResult RNoIntra = runPageRank(NoIntra, G);
  AblationResult RNone = runPageRank(None, G);

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_NEAR(RAll.Rank[N], RNone.Rank[N], 1e-9);
    ASSERT_NEAR(RAll.Rank[N], RNoIntra.Rank[N], 1e-9);
  }
  EXPECT_LT(RAll.Stats.Supersteps, RNoIntra.Stats.Supersteps);
  EXPECT_LT(RNoIntra.Stats.Supersteps, RNone.Stats.Supersteps);
}

TEST(E2E, SSSPAblationPreservesDistances) {
  Graph G = generateUniformRandom(300, 2400, 121);
  std::vector<int64_t> Len(G.numEdges(), 1);

  auto Run = [&](CompileOptions Opts) {
    CompileResult C = compileOrDie("sssp.gm", Opts);
    ExecArgs Args;
    Args.Scalars["root"] = Value::makeInt(0);
    Args.EdgeProps["len"] = toValues(Len);
    std::unique_ptr<IRExecutor> Exec;
    RunStats Stats = runProgram(*C.Program, G, std::move(Args), Config{}, &Exec);
    std::vector<int64_t> Dist;
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Dist.push_back(Exec->nodeProp("dist").get(N).getInt());
    return std::make_pair(Stats.Supersteps, Dist);
  };

  CompileOptions None;
  None.StateMerging = false;
  None.IntraLoopMerging = false;
  auto [StepsOpt, DistOpt] = Run(CompileOptions{});
  auto [StepsNone, DistNone] = Run(None);

  EXPECT_EQ(DistOpt, reference::sssp(G, 0, Len));
  EXPECT_EQ(DistOpt, DistNone);
  EXPECT_LT(StepsOpt, StepsNone);
}

//===----------------------------------------------------------------------===//
// Worker-count / threading invariance of compiled programs.
//===----------------------------------------------------------------------===//

class E2EWorkerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(E2EWorkerSweep, CompiledSSSPIndependentOfWorkers) {
  CompileResult C = compileOrDie("sssp.gm");
  Graph G = generateRMAT(1 << 9, 1 << 12, 131);
  std::vector<int64_t> Len(G.numEdges(), 2);
  ExecArgs Args;
  Args.Scalars["root"] = Value::makeInt(3);
  Args.EdgeProps["len"] = toValues(Len);
  Config Cfg;
  Cfg.NumWorkers = GetParam();
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);
  std::vector<int64_t> Ref = reference::sssp(G, 3, Len);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_EQ(Exec->nodeProp("dist").get(N).getInt(), Ref[N]);
}

INSTANTIATE_TEST_SUITE_P(Workers, E2EWorkerSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(E2E, CompiledProgramRunsThreaded) {
  CompileResult C = compileOrDie("avg_teen.gm");
  Graph G = generateRMAT(1 << 9, 1 << 12, 141);
  std::vector<int64_t> Age(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Age[N] = 10 + (N % 50);

  auto Run = [&](bool Threaded) {
    ExecArgs Args;
    Args.Scalars["K"] = Value::makeInt(30);
    Args.NodeProps["age"] = toValues(Age);
    Config Cfg;
    Cfg.NumWorkers = 4;
    Cfg.Threaded = Threaded;
    std::unique_ptr<IRExecutor> Exec;
    runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);
    return Exec->returnValue()->getDouble();
  };
  EXPECT_DOUBLE_EQ(Run(false), Run(true));
}

} // namespace

//===----------------------------------------------------------------------===//
// Extension algorithm: connected components by min-label propagation.
//===----------------------------------------------------------------------===//

namespace e2e_ext {

using namespace gm;
using gm::exec::ExecArgs;
using gm::exec::IRExecutor;
using gm::exec::runProgram;

TEST(E2EExt, ComponentLabelsMatchUnionFind) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/comp_label.gm");
  ASSERT_TRUE(C.ok()) << C.Diags->dump();
  // Uses both directions: multiple message types + in-neighbor preamble.
  EXPECT_TRUE(C.Program->UsesInNbrs);
  EXPECT_TRUE(C.Features.count(feature::MultipleComm));
  EXPECT_TRUE(C.Features.count(feature::IncomingNeighbors));

  // A sparse random graph fractures into many components.
  Graph G = generateUniformRandom(2000, 1400, 77);
  ExecArgs Args;
  pregel::Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);
  ASSERT_TRUE(Exec->finished());

  std::vector<NodeId> Ref = reference::weaklyConnectedComponents(G);
  int64_t RefComponents = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    ASSERT_EQ(Exec->nodeProp("comp").get(N).getInt(),
              static_cast<int64_t>(Ref[N]))
        << "node " << N;
    if (Ref[N] == N)
      ++RefComponents;
  }
  ASSERT_TRUE(Exec->returnValue().has_value());
  EXPECT_EQ(Exec->returnValue()->getInt(), RefComponents);
}

TEST(E2EExt, ComponentLabelsOnDisjointRings) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/comp_label.gm");
  ASSERT_TRUE(C.ok());
  // Three disjoint directed rings of 5 nodes each.
  Graph::Builder B(15);
  for (int R = 0; R < 3; ++R)
    for (int I = 0; I < 5; ++I)
      B.addEdge(R * 5 + I, R * 5 + (I + 1) % 5);
  Graph G = std::move(B).build();

  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, {}, pregel::Config{}, &Exec);
  EXPECT_EQ(Exec->returnValue()->getInt(), 3);
  for (NodeId N = 0; N < 15; ++N)
    EXPECT_EQ(Exec->nodeProp("comp").get(N).getInt(), (N / 5) * 5);
}

} // namespace e2e_ext

//===----------------------------------------------------------------------===//
// Extension algorithm: degree statistics (all reduction kinds at once).
//===----------------------------------------------------------------------===//

namespace e2e_stats {

using namespace gm;
using gm::exec::ExecArgs;
using gm::exec::IRExecutor;
using gm::exec::runProgram;

TEST(E2EExt, DegreeStatsComputesEveryAggregate) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/degree_stats.gm");
  ASSERT_TRUE(C.ok()) << C.Diags->dump();

  Graph G = generateRMAT(1 << 9, 1 << 12, 321);
  int64_t HubBar = 40;

  ExecArgs Args;
  Args.Scalars["hub_bar"] = Value::makeInt(HubBar);
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), pregel::Config{}, &Exec);
  ASSERT_TRUE(Exec->finished());

  int64_t Mx = 0, Mn = std::numeric_limits<int64_t>::max();
  int64_t Isolated = 0;
  bool AnyHub = false, AllConnected = true;
  double Sum = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    int64_t D = G.outDegree(N);
    Mx = std::max(Mx, D);
    Mn = std::min(Mn, D);
    Isolated += D == 0;
    AnyHub |= D > HubBar;
    AllConnected &= D > 0;
    Sum += static_cast<double>(D);
  }

  EXPECT_EQ(Exec->globalValue("mx").getInt(), Mx);
  EXPECT_EQ(Exec->globalValue("mn").getInt(), Mn);
  EXPECT_EQ(Exec->globalValue("isolated").getInt(), Isolated);
  EXPECT_EQ(Exec->globalValue("any_hub").getBool(), AnyHub);
  EXPECT_EQ(Exec->globalValue("all_connected").getBool(), AllConnected);
  EXPECT_NEAR(Exec->returnValue()->getDouble(), Sum / G.numNodes(), 1e-9);
}

TEST(E2EExt, DegreeStatsOnEmptyGraphAvgGuards) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/degree_stats.gm");
  ASSERT_TRUE(C.ok());
  Graph::Builder B(3);
  Graph G = std::move(B).build(); // no edges at all
  ExecArgs Args;
  Args.Scalars["hub_bar"] = Value::makeInt(5);
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), pregel::Config{}, &Exec);
  EXPECT_DOUBLE_EQ(Exec->returnValue()->getDouble(), 0.0);
  EXPECT_EQ(Exec->globalValue("isolated").getInt(), 3);
  EXPECT_FALSE(Exec->globalValue("all_connected").getBool());
}

} // namespace e2e_stats

//===----------------------------------------------------------------------===//
// Extension: weighted PageRank via local edge iteration.
//===----------------------------------------------------------------------===//

namespace e2e_weighted {

using namespace gm;
using gm::exec::ExecArgs;
using gm::exec::IRExecutor;
using gm::exec::runProgram;

TEST(E2EExt, WeightedPageRankMatchesReference) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/pagerank_weighted.gm");
  ASSERT_TRUE(C.ok()) << C.Diags->dump();
  // The weight-total loop must compile to local edge iteration — no
  // message type for it, only the propagation message.
  EXPECT_TRUE(C.Features.count(feature::LocalEdgeIteration));
  EXPECT_EQ(C.Program->MsgTypes.size(), 1u);

  Graph G = generateRMAT(1 << 9, 1 << 12, 616);
  std::mt19937_64 Rng(617);
  std::uniform_real_distribution<double> WDist(0.1, 5.0);
  std::vector<double> W(G.numEdges());
  std::vector<Value> WVals(G.numEdges());
  for (EdgeId E = 0; E < G.numEdges(); ++E) {
    W[E] = WDist(Rng);
    WVals[E] = Value::makeDouble(W[E]);
  }

  int Iters = 10;
  ExecArgs Args;
  Args.Scalars["e"] = Value::makeDouble(0.0);
  Args.Scalars["d"] = Value::makeDouble(0.85);
  Args.Scalars["max_iter"] = Value::makeInt(Iters);
  Args.EdgeProps["w"] = WVals;
  pregel::Config Cfg;
  Cfg.NumWorkers = 4;
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), Cfg, &Exec);

  std::vector<double> Ref =
      reference::pageRankWeighted(G, 0.85, 0.0, Iters, W);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_NEAR(Exec->nodeProp("pg_rank").get(N).getDouble(), Ref[N], 1e-9)
        << "node " << N;
}

TEST(E2EExt, WeightedPageRankUniformWeightsEqualPlainPageRank) {
  CompileResult C = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/pagerank_weighted.gm");
  ASSERT_TRUE(C.ok());
  Graph G = generateUniformRandom(300, 2400, 717);
  std::vector<Value> WVals(G.numEdges(), Value::makeDouble(2.5));

  ExecArgs Args;
  Args.Scalars["e"] = Value::makeDouble(0.0);
  Args.Scalars["d"] = Value::makeDouble(0.85);
  Args.Scalars["max_iter"] = Value::makeInt(8);
  Args.EdgeProps["w"] = WVals;
  std::unique_ptr<IRExecutor> Exec;
  runProgram(*C.Program, G, std::move(Args), pregel::Config{}, &Exec);

  std::vector<double> Plain = reference::pageRank(G, 0.85, 0.0, 8);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    ASSERT_NEAR(Exec->nodeProp("pg_rank").get(N).getDouble(), Plain[N], 1e-9);
}

} // namespace e2e_weighted
