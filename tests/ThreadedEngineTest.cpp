//===- tests/ThreadedEngineTest.cpp - Threaded == sequential, bit for bit ---===//
///
/// The parallel engine's contract: turning Config::Threaded on changes wall
/// time only. Every RunStats counter (supersteps, message and byte totals,
/// the per-step histogram) and every vertex result must be bit-identical to
/// the sequential engine at the same worker count. This suite checks that
/// contract for hand-written combiner and random-writing programs and for
/// all six compiler-generated paper algorithms, plus the ThreadPool itself.
///
/// Configure with -DGM_SANITIZE=thread to run this binary (and the rest of
/// the tree) under ThreadSanitizer: these tests then double as the engine's
/// data-race gate.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "pregel/Runtime.h"
#include "pregel/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>

namespace {

using namespace gm;
using namespace gm::pregel;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryWorkerOncePerGeneration) {
  ThreadPool Pool(5);
  std::vector<int> Counts(5, 0);
  for (int Round = 0; Round < 100; ++Round)
    Pool.runOnWorkers([&](unsigned Id) { ++Counts[Id]; });
  for (int C : Counts)
    EXPECT_EQ(C, 100);
}

TEST(ThreadPool, BarrierMakesWritesVisible) {
  ThreadPool Pool(4);
  std::vector<uint64_t> Slots(4, 0);
  // Phase 2 reads every phase-1 slot: only safe if runOnWorkers is a full
  // barrier with proper publication.
  Pool.runOnWorkers([&](unsigned Id) { Slots[Id] = Id + 1; });
  std::atomic<uint64_t> Total{0};
  Pool.runOnWorkers([&](unsigned) {
    uint64_t Sum = 0;
    for (uint64_t S : Slots)
      Sum += S;
    Total += Sum;
  });
  EXPECT_EQ(Total.load(), 4u * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, RethrowsFirstTaskException) {
  ThreadPool Pool(3);
  EXPECT_THROW(Pool.runOnWorkers([](unsigned Id) {
    if (Id == 1)
      throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // The pool must stay usable after an exceptional generation.
  std::vector<int> Ran(3, 0);
  Pool.runOnWorkers([&](unsigned Id) { Ran[Id] = 1; });
  EXPECT_EQ(Ran, (std::vector<int>{1, 1, 1}));
}

//===----------------------------------------------------------------------===//
// Equivalence harness
//===----------------------------------------------------------------------===//

/// Asserts the full RunStats counter set matches between two runs.
void expectSameCounters(const RunStats &A, const RunStats &B,
                        const std::string &What) {
  EXPECT_EQ(A.Supersteps, B.Supersteps) << What;
  EXPECT_EQ(A.TotalMessages, B.TotalMessages) << What;
  EXPECT_EQ(A.NetworkMessages, B.NetworkMessages) << What;
  EXPECT_EQ(A.NetworkBytes, B.NetworkBytes) << What;
  EXPECT_EQ(A.MessagesPerStep, B.MessagesPerStep) << What;
  EXPECT_EQ(A.Halt, B.Halt) << What;
}

class WorkerSweep : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep, ::testing::Values(1, 3, 8));

/// A combiner program: every vertex floods its id for several rounds and
/// accumulates the (pre-combined) sums it receives. Exercises sender-side
/// combining plus per-vertex result state.
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

TEST_P(WorkerSweep, CombinerProgramThreadedMatchesSequential) {
  Graph G = generateRMAT(1 << 9, 1 << 12, 77);
  Config Cfg;
  Cfg.NumWorkers = GetParam();
  Cfg.Combiners[0] = ReduceKind::Sum;

  CombinerFloodProgram Seq, Thr;
  RunStats SeqStats = Engine(G, Cfg).run(Seq);
  Cfg.Threaded = true;
  RunStats ThrStats = Engine(G, Cfg).run(Thr);

  expectSameCounters(SeqStats, ThrStats,
                     "combiner W=" + std::to_string(GetParam()));
  EXPECT_EQ(Seq.Acc, Thr.Acc);
}

/// A random-writing (sendTo) program: each vertex sends to a hashed target,
/// stressing the cross-worker shard routing and the per-destination
/// delivery order.
class ScatterProgram : public VertexProgram {
public:
  std::vector<int64_t> Acc;

  void init(const Graph &G, MasterContext &) override {
    Acc.assign(G.numNodes(), 0);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() >= 3)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    for (pregel::MsgRef M : Ctx.messages())
      Acc[Ctx.id()] = Acc[Ctx.id()] * 31 + M.getInt(0); // order-sensitive
    NodeId N = Ctx.graph().numNodes();
    NodeId Target =
        static_cast<NodeId>((uint64_t(Ctx.id()) * 2654435761u +
                             Ctx.superstep() * 40503u) %
                            N);
    Message M;
    M.push(Value::makeInt(static_cast<int64_t>(Ctx.id())));
    Ctx.sendTo(Target, M);
  }
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

TEST_P(WorkerSweep, RandomWritingThreadedMatchesSequential) {
  Graph G = generateUniformRandom(700, 2800, 55);
  Config Cfg;
  Cfg.NumWorkers = GetParam();

  ScatterProgram Seq, Thr;
  RunStats SeqStats = Engine(G, Cfg).run(Seq);
  Cfg.Threaded = true;
  RunStats ThrStats = Engine(G, Cfg).run(Thr);

  expectSameCounters(SeqStats, ThrStats,
                     "sendTo W=" + std::to_string(GetParam()));
  // Acc folds message values order-sensitively, so this also pins the
  // worker-major delivery order, not just the delivered multiset.
  EXPECT_EQ(Seq.Acc, Thr.Acc);
}

TEST_P(WorkerSweep, ResultsIdenticalAcrossWorkerCounts) {
  // Partitioning must never leak into results: compare against W=1.
  Graph G = generateUniformRandom(700, 2800, 55);
  Config One;
  One.NumWorkers = 1;
  ScatterProgram Base;
  Engine(G, One).run(Base);

  Config Cfg;
  Cfg.NumWorkers = GetParam();
  Cfg.Threaded = true;
  ScatterProgram P;
  Engine(G, Cfg).run(P);
  EXPECT_EQ(Base.Acc, P.Acc);
}

//===----------------------------------------------------------------------===//
// All six paper algorithms, compiled: threaded == sequential bit for bit.
//===----------------------------------------------------------------------===//

struct AlgoCase {
  const char *Name;
  const char *ResultProp; ///< null: compare the return value only
};

// Without a printer gtest lists the parameter as its raw bytes: two string
// addresses that ASLR moves on every run, so the listed (and CTest) test
// names would differ from one build to the next.
void PrintTo(const AlgoCase &C, std::ostream *OS) { *OS << C.Name; }

class PaperAlgoThreaded : public ::testing::TestWithParam<AlgoCase> {};

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

TEST_P(PaperAlgoThreaded, BitIdenticalToSequential) {
  const AlgoCase &C = GetParam();
  const bool Bipartite = std::string(C.Name) == "bipartite_matching";
  NodeId BipartiteLeft = 1 << 8;
  Graph G = Bipartite
                ? generateBipartite(BipartiteLeft, (1 << 8) + 100, 1 << 11, 5)
                : generateRMAT(1 << 9, 1 << 12, 5);

  CompileResult Compiled = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/" + C.Name + ".gm");
  ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

  auto Run = [&](bool Threaded, RunStats &Stats) {
    Config Cfg;
    Cfg.NumWorkers = 4;
    Cfg.Threaded = Threaded;
    std::unique_ptr<exec::IRExecutor> Exec;
    Stats = exec::runProgram(*Compiled.Program, G,
                             makeArgs(C.Name, G, BipartiteLeft), Cfg, &Exec);
    return Exec;
  };

  RunStats SeqStats, ThrStats;
  auto Seq = Run(false, SeqStats);
  auto Thr = Run(true, ThrStats);
  expectSameCounters(SeqStats, ThrStats, C.Name);

  if (C.ResultProp) {
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      Value A = Seq->nodeProp(C.ResultProp).get(N);
      Value B = Thr->nodeProp(C.ResultProp).get(N);
      ASSERT_TRUE(A == B) << C.Name << " " << C.ResultProp << "[" << N
                          << "]: " << A.toString() << " vs " << B.toString();
    }
  }
  ASSERT_EQ(Seq->returnValue().has_value(), Thr->returnValue().has_value());
  if (Seq->returnValue()) {
    EXPECT_TRUE(*Seq->returnValue() == *Thr->returnValue())
        << Seq->returnValue()->toString() << " vs "
        << Thr->returnValue()->toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, PaperAlgoThreaded,
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
// Engine reuse and edge cases
//===----------------------------------------------------------------------===//

TEST(ThreadedEngine, RepeatedRunsOnOneEngineAreIdentical) {
  // Buffers (shards, inbox pool, combiner scratch) persist across run()
  // calls; stale state would show up as diverging stats or results.
  Graph G = generateRMAT(1 << 9, 1 << 12, 99);
  Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Threaded = true;
  Cfg.Combiners[0] = ReduceKind::Sum;
  Engine E(G, Cfg);

  CombinerFloodProgram A, B;
  RunStats S1 = E.run(A);
  RunStats S2 = E.run(B);
  expectSameCounters(S1, S2, "repeated run");
  EXPECT_EQ(A.Acc, B.Acc);
}

TEST(ThreadedEngine, PickRandomNodeOnEmptyGraphReturnsInvalid) {
  class Prog : public VertexProgram {
  public:
    NodeId Picked = 0;
    void init(const Graph &, MasterContext &) override {}
    void masterCompute(MasterContext &Master) override {
      Picked = Master.pickRandomNode();
      Master.haltAll();
    }
    void compute(VertexContext &) override {}
    MessageLayout messageLayout() const override { return MessageLayout(); }
  };
  Graph G = Graph::Builder(0).build();
  Engine E(G, Config{});
  Prog P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(P.Picked, InvalidNode);
  EXPECT_EQ(Stats.Halt, HaltReason::MasterHalt);
}

} // namespace
