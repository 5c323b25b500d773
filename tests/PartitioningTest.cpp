//===- tests/PartitioningTest.cpp - Partitioning never leaks into results ---===//
///
/// The partitioning subsystem's contract (docs/partitioning.md): the
/// strategy, the worker count, the execution mode and LALP mirroring are
/// pure performance knobs. This suite checks
///
///  - structural properties of each Partition strategy (total coverage,
///    contiguity, balance bounds) and of the LALP mirror tables;
///  - that all six compiled paper algorithms are bit-identical across
///    every strategy x {1,3,8} workers x sequential/threaded;
///  - that LALP broadcasts deliver the exact per-edge message sequence
///    (order-sensitive folds match) and that the network-byte accounting
///    identity bytes(off) == bytes(on) + mirror_bytes_saved holds.
///
/// Configure with -DGM_SANITIZE=thread and the threaded half of the matrix
/// runs under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "pregel/Partitioner.h"
#include "pregel/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace gm;
using namespace gm::pregel;

constexpr PartitionStrategy AllStrategies[] = {
    PartitionStrategy::Hash, PartitionStrategy::Range,
    PartitionStrategy::EdgeBalanced};

//===----------------------------------------------------------------------===//
// Partition structure
//===----------------------------------------------------------------------===//

TEST(Partitioner, NamesRoundTrip) {
  for (PartitionStrategy S : AllStrategies) {
    auto Back = parsePartitionStrategy(partitionStrategyName(S));
    ASSERT_TRUE(Back.has_value()) << partitionStrategyName(S);
    EXPECT_EQ(*Back, S);
  }
  EXPECT_FALSE(parsePartitionStrategy("metis").has_value());
  EXPECT_FALSE(parsePartitionStrategy("").has_value());
  // The deleted greedy strategy is rejected like any unknown name.
  EXPECT_FALSE(parsePartitionStrategy("degree-aware").has_value());
}

/// Every vertex owned exactly once: each worker's slice visits only its own
/// vertices, ascending, ownedCount matches the slice, and the counts sum
/// to N.
void expectValidPartition(const Partition &P, const Graph &G, unsigned W) {
  ASSERT_EQ(P.numWorkers(), W);
  ASSERT_EQ(P.numNodes(), G.numNodes());
  std::vector<unsigned> Seen(G.numNodes(), 0);
  size_t Total = 0;
  for (unsigned Worker = 0; Worker < W; ++Worker) {
    const Partition::Slice S = P.slice(Worker);
    ASSERT_GT(S.Stride, 0u);
    size_t Count = 0;
    for (NodeId V = S.First; V < S.End; V += S.Stride) {
      ASSERT_LT(V, G.numNodes());
      ++Seen[V];
      ++Count;
      EXPECT_EQ(P.workerOf(V), Worker);
    }
    EXPECT_EQ(Count, P.ownedCount(Worker));
    Total += Count;
  }
  EXPECT_EQ(Total, G.numNodes());
  for (NodeId V = 0; V < G.numNodes(); ++V)
    EXPECT_EQ(Seen[V], 1u) << "vertex " << V;
}

TEST(Partitioner, EveryStrategyCoversEveryVertexOnce) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 3);
  for (PartitionStrategy S : AllStrategies)
    for (unsigned W : {1u, 3u, 8u}) {
      SCOPED_TRACE(std::string(partitionStrategyName(S)) + " W=" +
                   std::to_string(W));
      expectValidPartition(makePartition(G, S, W), G, W);
    }
  // More workers than vertices: the surplus workers own nothing.
  Graph Tiny = generateUniformRandom(5, 8, 1);
  for (PartitionStrategy S : AllStrategies) {
    SCOPED_TRACE(partitionStrategyName(S));
    expectValidPartition(makePartition(Tiny, S, 8), Tiny, 8);
  }
}

TEST(Partitioner, HashIsModuloArithmetic) {
  Graph G = generateUniformRandom(100, 300, 1);
  Partition P = makePartition(G, PartitionStrategy::Hash, 7);
  for (NodeId V = 0; V < G.numNodes(); ++V)
    EXPECT_EQ(P.workerOf(V), V % 7);
}

TEST(Partitioner, RangeIsContiguousAndVertexBalanced) {
  Graph G = generateUniformRandom(103, 400, 2); // 103 = 3*34 + 1
  Partition P = makePartition(G, PartitionStrategy::Range, 3);
  // Contiguous: worker ids are non-decreasing over vertex ids.
  for (NodeId V = 1; V < G.numNodes(); ++V)
    EXPECT_LE(P.workerOf(V - 1), P.workerOf(V));
  // Balanced to within one vertex, extras on the lowest workers.
  EXPECT_EQ(P.ownedCount(0), 35u);
  EXPECT_EQ(P.ownedCount(1), 34u);
  EXPECT_EQ(P.ownedCount(2), 34u);
}

TEST(Partitioner, EdgeBalancedIsContiguousAndNonEmpty) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 5); // skewed degrees
  // Per-worker vertex counts of the cuts, pinned so that no change to how
  // the cuts are computed or stored moves a vertex unnoticed.
  const std::pair<unsigned, std::vector<size_t>> Pinned[] = {
      {3u, {34, 135, 343}}, {8u, {4, 14, 24, 47, 56, 112, 64, 191}}};
  for (const auto &[W, WantCounts] : Pinned) {
    Partition P = makePartition(G, PartitionStrategy::EdgeBalanced, W);
    for (NodeId V = 1; V < G.numNodes(); ++V)
      EXPECT_LE(P.workerOf(V - 1), P.workerOf(V));
    std::vector<size_t> Counts;
    for (unsigned Worker = 0; Worker < W; ++Worker) {
      EXPECT_GE(P.ownedCount(Worker), 1u) << "worker " << Worker;
      Counts.push_back(P.ownedCount(Worker));
    }
    EXPECT_EQ(Counts, WantCounts);
    // The cut should beat plain range partitioning on max edge load.
    auto Edges = P.edgeCounts(G);
    auto RangeEdges =
        makePartition(G, PartitionStrategy::Range, W).edgeCounts(G);
    EXPECT_LE(*std::max_element(Edges.begin(), Edges.end()),
              *std::max_element(RangeEdges.begin(), RangeEdges.end()));
  }
}

//===----------------------------------------------------------------------===//
// LALP tables
//===----------------------------------------------------------------------===//

TEST(Lalp, ThresholdZeroDisables) {
  Graph G = generateComplete(8);
  Partition P = makePartition(G, PartitionStrategy::Hash, 3);
  LalpPlan Plan = buildLalpPlan(G, P, 0);
  EXPECT_FALSE(Plan.enabled());
}

TEST(Lalp, MirrorTablesMatchOutEdgeOrder) {
  // Star with a duplicate spoke: hub 0 -> 1..9, plus 0 -> 4 again, and one
  // low-degree back-edge 3 -> 0.
  Graph::Builder B(10);
  for (NodeId V = 1; V < 10; ++V)
    B.addEdge(0, V);
  B.addEdge(0, 4);
  B.addEdge(3, 0);
  Graph G = std::move(B).build();

  const unsigned W = 3;
  Partition P = makePartition(G, PartitionStrategy::Hash, W);
  LalpPlan Plan = buildLalpPlan(G, P, 5);
  ASSERT_TRUE(Plan.enabled());
  EXPECT_TRUE(Plan.isHighDegree(0));   // degree 10
  EXPECT_FALSE(Plan.isHighDegree(3));  // degree 1

  int32_t HD = Plan.HDIndex[0];
  ASSERT_GE(HD, 0);
  uint64_t TotalFanout = 0;
  for (unsigned Worker = 0; Worker < W; ++Worker) {
    const uint32_t F = Plan.fanout(HD, Worker);
    TotalFanout += F;
    const NodeId *M = Plan.mirrors(HD, Worker);
    // Each mirror list is the sub-sequence of the hub's out-neighbors owned
    // by that worker, in out-edge order, duplicates kept.
    std::vector<NodeId> Expected;
    for (NodeId Nbr : G.outNeighbors(0))
      if (P.workerOf(Nbr) == Worker)
        Expected.push_back(Nbr);
    ASSERT_EQ(F, Expected.size()) << "worker " << Worker;
    for (uint32_t I = 0; I < F; ++I)
      EXPECT_EQ(M[I], Expected[I]) << "worker " << Worker << " slot " << I;
  }
  EXPECT_EQ(TotalFanout, G.outDegree(0)); // duplicate edge counted twice
}

//===----------------------------------------------------------------------===//
// Equivalence harness
//===----------------------------------------------------------------------===//

/// An order-sensitive neighborhood-broadcast program: Acc folds received
/// values non-commutatively, so any deviation from the canonical
/// ascending-source delivery order (or any LALP fanout mismatch, including
/// dropped duplicate edges) changes the result.
class OrderSensitiveFloodProgram : public VertexProgram {
public:
  std::vector<int64_t> Acc;

  void init(const Graph &G, MasterContext &) override {
    Acc.assign(G.numNodes(), 0);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() >= 4)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    for (pregel::MsgRef M : Ctx.messages())
      Acc[Ctx.id()] = Acc[Ctx.id()] * 31 + M.getInt(0);
    Message M;
    M.push(Value::makeInt(static_cast<int64_t>(Ctx.id()) + 1));
    Ctx.sendToAllOutNeighbors(M);
  }
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

TEST(PartitionEquivalence, OrderSensitiveFloodInvariantAcrossEverything) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 11);
  Config Base;
  Base.NumWorkers = 1;
  OrderSensitiveFloodProgram Baseline;
  RunStats BaseStats = Engine(G, Base).run(Baseline);

  for (PartitionStrategy S : AllStrategies)
    for (unsigned W : {1u, 3u, 8u})
      for (bool Threaded : {false, true})
        for (uint32_t Lalp : {0u, 8u}) {
          Config Cfg;
          Cfg.NumWorkers = W;
          Cfg.Threaded = Threaded;
          Cfg.Partition = S;
          Cfg.LalpThreshold = Lalp;
          OrderSensitiveFloodProgram P;
          RunStats Stats = Engine(G, Cfg).run(P);
          std::string What = std::string(partitionStrategyName(S)) +
                             " W=" + std::to_string(W) +
                             (Threaded ? " threaded" : " seq") +
                             " lalp=" + std::to_string(Lalp);
          EXPECT_EQ(Stats.Supersteps, BaseStats.Supersteps) << What;
          EXPECT_EQ(Stats.Halt, BaseStats.Halt) << What;
          EXPECT_EQ(P.Acc, Baseline.Acc) << What;
        }
}

/// Sum-combiner flood: with LALP on and a combiner configured, combining
/// moves to the receiving worker; totals must not change.
class CombinerFloodProgram : public VertexProgram {
public:
  std::vector<int64_t> Acc;

  void init(const Graph &G, MasterContext &) override {
    Acc.assign(G.numNodes(), 0);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() >= 4)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    for (pregel::MsgRef M : Ctx.messages())
      Acc[Ctx.id()] += M.getInt(0);
    Message M;
    M.push(Value::makeInt(static_cast<int64_t>(Ctx.id()) + 1));
    Ctx.sendToAllOutNeighbors(M);
  }
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

TEST(PartitionEquivalence, ReceiveSideCombiningMatchesLalpOff) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 13);
  Config Off;
  Off.NumWorkers = 3;
  Off.Combiners[0] = ReduceKind::Sum;
  CombinerFloodProgram Baseline;
  Engine(G, Off).run(Baseline);

  for (PartitionStrategy S : AllStrategies)
    for (bool Threaded : {false, true}) {
      Config Cfg = Off;
      Cfg.Threaded = Threaded;
      Cfg.Partition = S;
      Cfg.LalpThreshold = 4;
      CombinerFloodProgram P;
      RunStats Stats = Engine(G, Cfg).run(P);
      EXPECT_GT(Stats.MirrorHits, 0u);
      EXPECT_EQ(P.Acc, Baseline.Acc)
          << partitionStrategyName(S) << (Threaded ? " threaded" : " seq");
    }
}

//===----------------------------------------------------------------------===//
// All six paper algorithms: bit-identical under every strategy, worker
// count and execution mode.
//===----------------------------------------------------------------------===//

struct AlgoCase {
  const char *Name;
  const char *ResultProp; ///< null: compare the return value only
};

// Names the case in gtest's listing (and so in the CTest names), instead of
// the struct's raw bytes: two string addresses that ASLR moves every run.
void PrintTo(const AlgoCase &C, std::ostream *OS) { *OS << C.Name; }

class PaperAlgoPartitioning : public ::testing::TestWithParam<AlgoCase> {};

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
    Args.Scalars["max_iter"] = Value::makeInt(6);
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

TEST_P(PaperAlgoPartitioning, BitIdenticalAcrossStrategyWorkerMode) {
  const AlgoCase &C = GetParam();
  const bool Bipartite = std::string(C.Name) == "bipartite_matching";
  NodeId BipartiteLeft = 1 << 8;
  Graph G = Bipartite
                ? generateBipartite(BipartiteLeft, (1 << 8) + 100, 1 << 11, 5)
                : generateRMAT(1 << 9, 1 << 12, 5);

  CompileResult Compiled = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/" + C.Name + ".gm");
  ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

  auto Run = [&](const Config &Cfg, RunStats &Stats) {
    std::unique_ptr<exec::IRExecutor> Exec;
    Stats = exec::runProgram(*Compiled.Program, G,
                             makeArgs(C.Name, G, BipartiteLeft), Cfg, &Exec);
    return Exec;
  };

  Config BaseCfg;
  BaseCfg.NumWorkers = 1;
  RunStats BaseStats;
  auto Base = Run(BaseCfg, BaseStats);

  for (PartitionStrategy S : AllStrategies)
    for (unsigned W : {1u, 3u, 8u})
      for (bool Threaded : {false, true}) {
        Config Cfg;
        Cfg.NumWorkers = W;
        Cfg.Threaded = Threaded;
        Cfg.Partition = S;
        std::string What = std::string(C.Name) + " " +
                           partitionStrategyName(S) + " W=" +
                           std::to_string(W) +
                           (Threaded ? " threaded" : " seq");
        RunStats Stats;
        auto Exec = Run(Cfg, Stats);
        // Supersteps, per-step message histogram and totals are all
        // partition-independent (NetworkMessages/NetworkBytes are not:
        // they count cross-worker records, which depend on the cut).
        EXPECT_EQ(Stats.Supersteps, BaseStats.Supersteps) << What;
        EXPECT_EQ(Stats.TotalMessages, BaseStats.TotalMessages) << What;
        EXPECT_EQ(Stats.MessagesPerStep, BaseStats.MessagesPerStep) << What;
        EXPECT_EQ(Stats.Halt, BaseStats.Halt) << What;

        if (C.ResultProp) {
          for (NodeId N = 0; N < G.numNodes(); ++N) {
            Value A = Base->nodeProp(C.ResultProp).get(N);
            Value B = Exec->nodeProp(C.ResultProp).get(N);
            ASSERT_TRUE(A == B)
                << What << " " << C.ResultProp << "[" << N
                << "]: " << A.toString() << " vs " << B.toString();
          }
        }
        ASSERT_EQ(Base->returnValue().has_value(),
                  Exec->returnValue().has_value())
            << What;
        if (Base->returnValue()) {
          EXPECT_TRUE(*Base->returnValue() == *Exec->returnValue())
              << What << ": " << Base->returnValue()->toString() << " vs "
              << Exec->returnValue()->toString();
        }
      }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, PaperAlgoPartitioning,
    ::testing::Values(AlgoCase{"avg_teen", "teen_cnt"},
                      AlgoCase{"pagerank", "pg_rank"},
                      AlgoCase{"conductance", nullptr},
                      AlgoCase{"sssp", "dist"},
                      AlgoCase{"bipartite_matching", "match"},
                      AlgoCase{"bc_approx", "BC"}),
    [](const ::testing::TestParamInfo<AlgoCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// LALP on compiled PageRank: identical ranks, exact byte accounting.
//===----------------------------------------------------------------------===//

TEST(Lalp, CompiledPageRankSavesNetworkBytesExactly) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 5);
  CompileResult Compiled =
      compileGreenMarlFile(std::string(GM_ALGORITHMS_DIR) + "/pagerank.gm");
  ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

  auto Run = [&](uint32_t Lalp, RunStats &Stats) {
    Config Cfg;
    Cfg.NumWorkers = 8;
    Cfg.Threaded = true;
    Cfg.LalpThreshold = Lalp;
    std::unique_ptr<exec::IRExecutor> Exec;
    Stats = exec::runProgram(*Compiled.Program, G, makeArgs("pagerank", G, 0),
                             Cfg, &Exec);
    return Exec;
  };

  RunStats Off, On;
  auto ExecOff = Run(0, Off);
  auto ExecOn = Run(8, On);

  EXPECT_EQ(Off.MirrorHits, 0u);
  EXPECT_EQ(Off.MirrorBytesSaved, 0u);
  EXPECT_GT(On.MirrorHits, 0u);
  EXPECT_GT(On.MirrorBytesSaved, 0u);
  // A broadcast ships one record per remote worker instead of one per
  // remote out-edge; the saving is accounted exactly.
  EXPECT_LT(On.NetworkBytes, Off.NetworkBytes);
  EXPECT_EQ(On.NetworkBytes + On.MirrorBytesSaved, Off.NetworkBytes);
  EXPECT_EQ(On.Supersteps, Off.Supersteps);
  EXPECT_EQ(On.Halt, Off.Halt);

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    Value A = ExecOff->nodeProp("pg_rank").get(N);
    Value B = ExecOn->nodeProp("pg_rank").get(N);
    ASSERT_TRUE(A == B) << "pg_rank[" << N << "]: " << A.toString() << " vs "
                        << B.toString();
  }
}

} // namespace
