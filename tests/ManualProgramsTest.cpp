//===- tests/ManualProgramsTest.cpp - Manual Pregel vs. oracles ---------------===//
///
/// Validates the hand-written GPS-style baselines against the sequential
/// reference implementations on assorted graphs and parameters.
///
//===----------------------------------------------------------------------===//

#include "algorithms/manual/ManualPrograms.h"
#include "algorithms/reference/Sequential.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace gm;
using namespace gm::manual;
using pregel::Config;
using pregel::Engine;
using pregel::RunStats;

std::vector<int64_t> randomAges(NodeId N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Age(5, 80);
  std::vector<int64_t> Result(N);
  for (auto &A : Result)
    A = Age(Rng);
  return Result;
}

std::vector<int64_t> randomLens(EdgeId M, uint64_t Seed, int64_t MaxLen = 20) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Len(1, MaxLen);
  std::vector<int64_t> Result(M);
  for (auto &L : Result)
    L = Len(Rng);
  return Result;
}

//===----------------------------------------------------------------------===//
// AvgTeen
//===----------------------------------------------------------------------===//

TEST(ManualAvgTeen, MatchesReferenceOnRandomGraph) {
  Graph G = generateUniformRandom(400, 3000, 21);
  std::vector<int64_t> Age = randomAges(400, 22);
  int64_t K = 30;

  AvgTeenProgram P(Age, K);
  RunStats Stats = Engine(G, Config{}).run(P);

  auto Ref = reference::avgTeenageFollowers(G, Age, K);
  EXPECT_EQ(P.teenCount(), Ref.TeenCount);
  EXPECT_DOUBLE_EQ(P.average(), Ref.Average);
  EXPECT_EQ(Stats.Supersteps, 2u);
}

TEST(ManualAvgTeen, TwoSuperstepsAndOneMessagePerTeenEdge) {
  Graph G = generateRMAT(1 << 10, 1 << 13, 31);
  std::vector<int64_t> Age = randomAges(G.numNodes(), 32);
  AvgTeenProgram P(Age, 25);
  RunStats Stats = Engine(G, Config{}).run(P);

  uint64_t TeenEdges = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    if (Age[N] >= 13 && Age[N] <= 19)
      TeenEdges += G.outDegree(N);
  EXPECT_EQ(Stats.TotalMessages, TeenEdges);
  EXPECT_EQ(Stats.Supersteps, 2u);
}

//===----------------------------------------------------------------------===//
// PageRank
//===----------------------------------------------------------------------===//

TEST(ManualPageRank, MatchesReferenceFixedIterations) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 41);
  int Iters = 15;
  PageRankProgram P(0.85, /*Epsilon=*/0.0, Iters);
  Engine(G, Config{}).run(P);

  std::vector<double> Ref = reference::pageRank(G, 0.85, 0.0, Iters);
  ASSERT_EQ(P.rank().size(), Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    EXPECT_NEAR(P.rank()[I], Ref[I], 1e-9) << "node " << I;
  EXPECT_EQ(P.iterations(), Iters);
}

TEST(ManualPageRank, EpsilonTermination) {
  Graph G = generateRing(16); // uniform PR is the fixed point
  PageRankProgram P(0.85, /*Epsilon=*/1e-6, /*MaxIter=*/100);
  Engine(G, Config{}).run(P);
  EXPECT_LT(P.iterations(), 5);
  for (double R : P.rank())
    EXPECT_NEAR(R, 1.0 / 16, 1e-9);
}

TEST(ManualPageRank, SuperstepCountIsIterationsPlusOne) {
  Graph G = generateUniformRandom(256, 2048, 51);
  int Iters = 10;
  PageRankProgram P(0.85, 0.0, Iters);
  RunStats Stats = Engine(G, Config{}).run(P);
  EXPECT_EQ(Stats.Supersteps, static_cast<uint64_t>(Iters) + 1);
}

//===----------------------------------------------------------------------===//
// Conductance
//===----------------------------------------------------------------------===//

TEST(ManualConductance, MatchesReferenceOnPartitions) {
  Graph G = generateRMAT(1 << 10, 1 << 13, 61);
  std::vector<int64_t> Member(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Member[N] = N % 4; // four partitions

  for (int64_t Part = 0; Part < 4; ++Part) {
    ConductanceProgram P(Member, Part);
    RunStats Stats = Engine(G, Config{}).run(P);
    EXPECT_DOUBLE_EQ(P.conductance(),
                     reference::conductance(G, Member, Part))
        << "partition " << Part;
    EXPECT_EQ(Stats.Supersteps, 2u);
  }
}

TEST(ManualConductance, DegenerateSubsets) {
  Graph G = generateRing(8);
  std::vector<int64_t> AllIn(8, 1);
  ConductanceProgram P(AllIn, 1);
  Engine(G, Config{}).run(P);
  EXPECT_DOUBLE_EQ(P.conductance(), 0.0);

  ConductanceProgram Q(AllIn, 2); // empty subset, no crossing edges
  Engine(G, Config{}).run(Q);
  EXPECT_DOUBLE_EQ(Q.conductance(), 0.0);
}

//===----------------------------------------------------------------------===//
// SSSP
//===----------------------------------------------------------------------===//

TEST(ManualSSSP, MatchesDijkstra) {
  Graph G = generateUniformRandom(500, 4000, 71);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 72);
  NodeId Root = 3;

  SSSPProgram P(Root, Len);
  Engine(G, Config{}).run(P);
  std::vector<int64_t> Ref = reference::sssp(G, Root, Len);
  EXPECT_EQ(P.distance(), Ref);
}

TEST(ManualSSSP, UnitWeightsTerminateInDiameterSteps) {
  Graph G = generateRing(32);
  std::vector<int64_t> Len(32, 1);
  SSSPProgram P(0, Len);
  RunStats Stats = Engine(G, Config{}).run(P);
  std::vector<int64_t> Ref = reference::sssp(G, 0, Len);
  EXPECT_EQ(P.distance(), Ref);
  // The wave reaches node 31 at step 31; its (useless) relaxation message
  // back to the root is delivered and rejected at step 32.
  EXPECT_EQ(Stats.Supersteps, 33u);
}

TEST(ManualSSSP, DisconnectedNodesStayInfinite) {
  Graph::Builder B(4);
  B.addEdge(0, 1);
  Graph G = std::move(B).build();
  std::vector<int64_t> Len = {7};
  SSSPProgram P(0, Len);
  Engine(G, Config{}).run(P);
  EXPECT_EQ(P.distance()[1], 7);
  EXPECT_EQ(P.distance()[2], std::numeric_limits<int64_t>::max());
}

//===----------------------------------------------------------------------===//
// Bipartite matching
//===----------------------------------------------------------------------===//

TEST(ManualMatching, ProducesMaximalMatching) {
  NodeId L = 120, R = 150;
  Graph G = generateBipartite(L, R, 900, 81);
  std::vector<uint8_t> Left(L + R, 0);
  for (NodeId N = 0; N < L; ++N)
    Left[N] = 1;

  BipartiteMatchingProgram P(Left);
  Engine(G, Config{}).run(P);

  EXPECT_TRUE(reference::isValidMatching(G, Left, P.match()));
  EXPECT_TRUE(reference::isMaximalMatching(G, Left, P.match()));

  int64_t Count = 0;
  for (NodeId N = 0; N < L; ++N)
    if (P.match()[N] != InvalidNode)
      ++Count;
  EXPECT_EQ(Count, P.matchCount());
  EXPECT_GT(Count, 0);
}

TEST(ManualMatching, PerfectOnDisjointPairs) {
  Graph::Builder B(6);
  B.addEdge(0, 3);
  B.addEdge(1, 4);
  B.addEdge(2, 5);
  Graph G = std::move(B).build();
  std::vector<uint8_t> Left = {1, 1, 1, 0, 0, 0};
  BipartiteMatchingProgram P(Left);
  Engine(G, Config{}).run(P);
  EXPECT_EQ(P.matchCount(), 3);
  EXPECT_EQ(P.match()[0], 3u);
  EXPECT_EQ(P.match()[4], 1u);
}

TEST(ManualMatching, EmptyGraphTerminatesImmediately) {
  Graph::Builder B(4);
  Graph G = std::move(B).build();
  std::vector<uint8_t> Left = {1, 1, 0, 0};
  BipartiteMatchingProgram P(Left);
  RunStats Stats = Engine(G, Config{}).run(P);
  EXPECT_EQ(P.matchCount(), 0);
  EXPECT_LE(Stats.Supersteps, 3u);
}

//===----------------------------------------------------------------------===//
// Cross-cutting: results independent of worker count / threading.
//===----------------------------------------------------------------------===//

class ManualWorkerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ManualWorkerSweep, SSSPIndependentOfWorkers) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 91);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 92);
  Config Cfg;
  Cfg.NumWorkers = GetParam();
  SSSPProgram P(0, Len);
  Engine(G, Cfg).run(P);
  EXPECT_EQ(P.distance(), reference::sssp(G, 0, Len));
}

TEST_P(ManualWorkerSweep, PageRankIndependentOfWorkers) {
  Graph G = generateUniformRandom(300, 2400, 95);
  Config Cfg;
  Cfg.NumWorkers = GetParam();
  PageRankProgram P(0.85, 0.0, 8);
  Engine(G, Cfg).run(P);
  std::vector<double> Ref = reference::pageRank(G, 0.85, 0.0, 8);
  for (size_t I = 0; I < Ref.size(); ++I)
    EXPECT_NEAR(P.rank()[I], Ref[I], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Workers, ManualWorkerSweep,
                         ::testing::Values(1, 2, 4, 8));

//===----------------------------------------------------------------------===//
// Declared message layouts: every hand-written messageLayout() must match
// what the program actually sends (pregel::checkDeclaredMessageLayout runs
// the program and returns the drift its send path reported).
//===----------------------------------------------------------------------===//

TEST(ManualLayouts, AllManualProgramsMatchTheirDeclaredLayout) {
  Graph G = generateUniformRandom(200, 1500, 111);
  std::vector<int64_t> Age = randomAges(200, 112);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 113);
  std::vector<int64_t> Member(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Member[N] = N % 2;

  {
    AvgTeenProgram P(Age, 30);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G), "");
  }
  {
    PageRankProgram P(0.85, 0.0, 5);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G), "");
  }
  {
    ConductanceProgram P(Member, 1);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G), "");
  }
  {
    SSSPProgram P(0, Len);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G), "");
  }
  {
    SSSPVoteToHaltProgram P(0, Len);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G), "");
  }
  {
    NodeId L = 40, R = 50;
    Graph B = generateBipartite(L, R, 300, 114);
    std::vector<uint8_t> Left(L + R, 0);
    for (NodeId N = 0; N < L; ++N)
      Left[N] = 1;
    BipartiteMatchingProgram P(Left);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, B), "");
  }
}

namespace drifted {

/// PageRank with a deliberately wrong declared layout: the program sends a
/// double rank contribution but declares an int slot.
class WrongSlotKind : public PageRankProgram {
public:
  using PageRankProgram::PageRankProgram;
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

/// Declares an empty payload for a message that carries one slot.
class WrongArity : public PageRankProgram {
public:
  using PageRankProgram::PageRankProgram;
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(0, {});
    return L;
  }
};

} // namespace drifted

TEST(ManualLayouts, DriftedLayoutIsReported) {
  Graph G = generateRing(16);
  {
    drifted::WrongSlotKind P(0.85, 0.0, 2);
    std::string Err = pregel::checkDeclaredMessageLayout(P, G);
    EXPECT_NE(Err.find("payload slot 0"), std::string::npos) << Err;
    EXPECT_NE(Err.find("'double'"), std::string::npos) << Err;
    EXPECT_NE(Err.find("'int'"), std::string::npos) << Err;
  }
  {
    drifted::WrongArity P(0.85, 0.0, 2);
    std::string Err = pregel::checkDeclaredMessageLayout(P, G);
    EXPECT_NE(Err.find("carries 1 payload slot(s) but the layout declares 0"),
              std::string::npos)
        << Err;
  }
}

TEST(ManualLayouts, DriftedLayoutIsReportedOnThreadedRuns) {
  // The check sits on the send path, so real worker threads report drift
  // exactly like the sequential simulation.
  Graph G = generateRing(16);
  Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Threaded = true;
  {
    drifted::WrongSlotKind P(0.85, 0.0, 2);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G, Cfg),
              "message tag 0 payload slot 0 has kind 'double' but the layout "
              "declares 'int'");
  }
  {
    drifted::WrongArity P(0.85, 0.0, 2);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G, Cfg),
              "message tag 0 carries 1 payload slot(s) but the layout "
              "declares 0");
  }
  {
    PageRankProgram P(0.85, 0.0, 2);
    EXPECT_EQ(pregel::checkDeclaredMessageLayout(P, G, Cfg), "");
  }
}

TEST(ManualThreaded, SSSPMatchesSequentialEngine) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 99);
  std::vector<int64_t> Len = randomLens(G.numEdges(), 100);
  Config Seq;
  Config Thr;
  Thr.Threaded = true;
  SSSPProgram A(0, Len), B(0, Len);
  Engine(G, Seq).run(A);
  Engine(G, Thr).run(B);
  EXPECT_EQ(A.distance(), B.distance());
}

} // namespace
