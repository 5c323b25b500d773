//===- tests/PregelRuntimeTest.cpp - BSP engine semantics tests --------------===//

#include "graph/Generators.h"
#include "pregel/Runtime.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

namespace {

using namespace gm;
using namespace gm::pregel;

/// A program skeleton with no-op hooks; tests override what they need.
/// Every program here sends single-Int messages of type 0.
class TestProgram : public VertexProgram {
public:
  void init(const Graph &, MasterContext &) override {}
  void masterCompute(MasterContext &) override {}
  void compute(VertexContext &) override {}
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

//===----------------------------------------------------------------------===//
// Message timing: a message sent in step i is visible exactly in step i+1.
//===----------------------------------------------------------------------===//

class TimingProgram : public TestProgram {
public:
  std::vector<uint64_t> ReceivedAtStep;

  void init(const Graph &G, MasterContext &) override {
    ReceivedAtStep.assign(G.numNodes(), 0);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 3)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() == 0 && Ctx.id() == 0) {
      Message M;
      M.push(Value::makeInt(7));
      Ctx.sendToAllOutNeighbors(M);
    }
    if (!Ctx.messages().empty())
      ReceivedAtStep[Ctx.id()] = Ctx.superstep();
  }
};

TEST(PregelRuntime, MessagesArriveNextSuperstep) {
  Graph G = generateRing(4); // 0->1->2->3->0
  Engine E(G, Config{});
  TimingProgram P;
  E.run(P);
  EXPECT_EQ(P.ReceivedAtStep[1], 1u);
  EXPECT_EQ(P.ReceivedAtStep[2], 0u); // never received anything
}

//===----------------------------------------------------------------------===//
// Ring relay: each step forwards; checks per-step bookkeeping and halting.
//===----------------------------------------------------------------------===//

class RelayProgram : public TestProgram {
public:
  NodeId LastHolder = InvalidNode;

  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 10)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() == 0) {
      if (Ctx.id() == 0) {
        Message M;
        M.push(Value::makeInt(0));
        Ctx.sendToAllOutNeighbors(M);
      }
      Ctx.voteToHalt();
      return;
    }
    if (!Ctx.messages().empty()) {
      LastHolder = Ctx.id();
      Message M;
      M.push(Value::makeInt(static_cast<int64_t>(Ctx.superstep())));
      Ctx.sendToAllOutNeighbors(M);
    }
    Ctx.voteToHalt();
  }
};

TEST(PregelRuntime, RelayTravelsOneHopPerStep) {
  Graph G = generateRing(5);
  Engine E(G, Config{});
  RelayProgram P;
  RunStats Stats = E.run(P);
  // Master halts at step 10; the token was at node (10-1) % 5 = 4.
  EXPECT_EQ(P.LastHolder, 4u);
  EXPECT_EQ(Stats.Supersteps, 10u);
  EXPECT_EQ(Stats.TotalMessages, 10u);
}

//===----------------------------------------------------------------------===//
// Vote-to-halt and quiescence termination.
//===----------------------------------------------------------------------===//

class QuiescenceProgram : public TestProgram {
public:
  int ComputeCalls = 0;

  void compute(VertexContext &Ctx) override {
    ++ComputeCalls;
    if (Ctx.superstep() == 0 && Ctx.id() == 0) {
      Message M;
      M.push(Value::makeInt(1));
      Ctx.sendToAllOutNeighbors(M);
    }
    Ctx.voteToHalt();
  }
};

TEST(PregelRuntime, TerminatesOnQuiescence) {
  Graph G = generateRing(3);
  Engine E(G, Config{});
  QuiescenceProgram P;
  RunStats Stats = E.run(P);
  // Step 0: all 3 run, node 0 sends. Step 1: only node 1 (reactivated).
  // Step 2: nothing active, no messages -> stop.
  EXPECT_EQ(Stats.Supersteps, 2u);
  EXPECT_EQ(P.ComputeCalls, 4);
}

TEST(PregelRuntime, HaltedVertexReactivatedByMessage) {
  Graph G = generateRing(3);
  Engine E(G, Config{});
  QuiescenceProgram P;
  E.run(P);
  SUCCEED(); // covered by the step count above; kept for intent
}

//===----------------------------------------------------------------------===//
// Global objects: vertex reductions resolve at the barrier; master
// broadcasts are visible to same-step vertices.
//===----------------------------------------------------------------------===//

class GlobalSumProgram : public TestProgram {
public:
  Value SeenByMaster;
  int64_t BroadcastSeenAtStep0 = -1;

  void init(const Graph &, MasterContext &Master) override {
    Master.declareGlobal("total", ReduceKind::Sum, Value::makeInt(0));
    Master.declareGlobal("bcast", ReduceKind::None, Value::makeInt(0));
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 0)
      Master.setGlobal("bcast", Value::makeInt(99));
    if (Master.superstep() == 1) {
      SeenByMaster = Master.getGlobal("total");
      Master.haltAll();
    }
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() == 0) {
      if (Ctx.id() == 0)
        BroadcastSeenAtStep0 = Ctx.getGlobal("bcast").getInt();
      Ctx.putGlobal("total", Value::makeInt(static_cast<int64_t>(Ctx.id()) + 1));
    }
  }
};

TEST(PregelRuntime, GlobalSumResolvesAtBarrier) {
  Graph G = generateRing(4);
  Engine E(G, Config{});
  GlobalSumProgram P;
  E.run(P);
  EXPECT_EQ(P.SeenByMaster.getInt(), 1 + 2 + 3 + 4);
  EXPECT_EQ(P.BroadcastSeenAtStep0, 99);
}

class GlobalMinMaxProgram : public TestProgram {
public:
  int64_t MinSeen = 0, MaxSeen = 0;

  void init(const Graph &, MasterContext &Master) override {
    Master.declareGlobal("mn", ReduceKind::Min);
    Master.declareGlobal("mx", ReduceKind::Max);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 1) {
      MinSeen = Master.getGlobal("mn").getInt();
      MaxSeen = Master.getGlobal("mx").getInt();
      Master.haltAll();
    }
  }
  void compute(VertexContext &Ctx) override {
    int64_t X = static_cast<int64_t>(Ctx.id()) * 3 % 7;
    Ctx.putGlobal("mn", Value::makeInt(X));
    Ctx.putGlobal("mx", Value::makeInt(X));
  }
};

TEST(PregelRuntime, GlobalMinMaxReductions) {
  Graph G = generateRing(7); // ids 0..6 -> values {0,3,6,2,5,1,4}
  Engine E(G, Config{});
  GlobalMinMaxProgram P;
  E.run(P);
  EXPECT_EQ(P.MinSeen, 0);
  EXPECT_EQ(P.MaxSeen, 6);
}

TEST(PregelRuntime, UnwrittenGlobalKeepsValue) {
  // A master broadcast must persist across barriers when no vertex writes it.
  class Prog : public TestProgram {
  public:
    int64_t SeenAtStep3 = -1;
    void init(const Graph &, MasterContext &Master) override {
      Master.declareGlobal("k", ReduceKind::None, Value::makeInt(5));
    }
    void masterCompute(MasterContext &Master) override {
      if (Master.superstep() == 3) {
        SeenAtStep3 = Master.getGlobal("k").getInt();
        Master.haltAll();
      }
    }
    void compute(VertexContext &) override {}
  };
  Graph G = generateRing(2);
  Engine E(G, Config{});
  Prog P;
  E.run(P);
  EXPECT_EQ(P.SeenAtStep3, 5);
}

//===----------------------------------------------------------------------===//
// Network accounting.
//===----------------------------------------------------------------------===//

class BroadcastOnceProgram : public TestProgram {
public:
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 2)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() != 0)
      return;
    Message M;
    M.push(Value::makeInt(1));
    Ctx.sendToAllOutNeighbors(M);
  }
};

TEST(PregelRuntime, CountsCrossWorkerMessagesOnly) {
  // Ring of 4 with 2 workers: 0,2 on worker 0; 1,3 on worker 1.
  // Every ring edge (n -> n+1) crosses the boundary.
  Graph G = generateRing(4);
  Config Cfg;
  Cfg.NumWorkers = 2;
  Engine E(G, Cfg);
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.TotalMessages, 4u);
  EXPECT_EQ(Stats.NetworkMessages, 4u);
  // 4B dst header + 8B int payload per message.
  EXPECT_EQ(Stats.NetworkBytes, 4u * 12u);
}

TEST(PregelRuntime, SingleWorkerHasNoNetworkTraffic) {
  Graph G = generateRing(4);
  Config Cfg;
  Cfg.NumWorkers = 1;
  Engine E(G, Cfg);
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.TotalMessages, 4u);
  EXPECT_EQ(Stats.NetworkMessages, 0u);
  EXPECT_EQ(Stats.NetworkBytes, 0u);
}

/// BroadcastOnceProgram with a second (unused) message type: the layout now
/// stores a tag in every record, and the wire charges for it.
class TaggedBroadcastOnceProgram : public BroadcastOnceProgram {
public:
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    L.addType(1, {ValueKind::Int});
    return L;
  }
};

TEST(PregelRuntime, TaggedProgramsPayTagBytes) {
  Graph G = generateRing(4);
  Config Cfg;
  Cfg.NumWorkers = 4;
  Engine E(G, Cfg);
  TaggedBroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.NetworkMessages, 4u);
  EXPECT_EQ(Stats.NetworkBytes, 4u * 16u); // +4B tag each
}

TEST(PregelRuntime, PerStepMessageHistogram) {
  Graph G = generateRing(4);
  Engine E(G, Config{});
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  ASSERT_EQ(Stats.MessagesPerStep.size(), 2u);
  EXPECT_EQ(Stats.MessagesPerStep[0], 4u);
  EXPECT_EQ(Stats.MessagesPerStep[1], 0u);
}

//===----------------------------------------------------------------------===//
// sendTo (random writing) and master RNG.
//===----------------------------------------------------------------------===//

class SendToProgram : public TestProgram {
public:
  std::vector<int> Hits;
  void init(const Graph &G, MasterContext &) override {
    Hits.assign(G.numNodes(), 0);
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 2)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() == 0) {
      Message M;
      M.push(Value::makeInt(static_cast<int64_t>(Ctx.id())));
      Ctx.sendTo(0, M); // everyone writes to vertex 0
    } else {
      Hits[Ctx.id()] = static_cast<int>(Ctx.messages().size());
    }
  }
};

TEST(PregelRuntime, SendToArbitraryVertex) {
  Graph G = generateRing(6);
  Engine E(G, Config{});
  SendToProgram P;
  E.run(P);
  EXPECT_EQ(P.Hits[0], 6);
  for (NodeId N = 1; N < 6; ++N)
    EXPECT_EQ(P.Hits[N], 0);
}

TEST(PregelRuntime, PickRandomIsSeededAndInRange) {
  Graph G = generateRing(10);
  class Prog : public TestProgram {
  public:
    std::vector<NodeId> Picks;
    void masterCompute(MasterContext &Master) override {
      Picks.push_back(Master.pickRandomNode());
      if (Master.superstep() == 4)
        Master.haltAll();
    }
  };
  Config Cfg;
  Cfg.RandomSeed = 12345;
  Prog A, B;
  Engine(G, Cfg).run(A);
  Engine(G, Cfg).run(B);
  EXPECT_EQ(A.Picks, B.Picks);
  for (NodeId N : A.Picks)
    EXPECT_LT(N, 10u);
}

//===----------------------------------------------------------------------===//
// Threaded == sequential for associative programs.
//===----------------------------------------------------------------------===//

class DegreeSumProgram : public TestProgram {
public:
  int64_t Total = -1;
  void init(const Graph &, MasterContext &Master) override {
    Master.declareGlobal("deg", ReduceKind::Sum, Value::makeInt(0));
  }
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 1) {
      Total = Master.getGlobal("deg").getInt();
      Master.haltAll();
    }
  }
  void compute(VertexContext &Ctx) override {
    Ctx.putGlobal("deg", Value::makeInt(Ctx.numOutNeighbors()));
  }
};

TEST(PregelRuntime, ThreadedMatchesSequential) {
  Graph G = generateUniformRandom(500, 3000, 17);
  Config Seq;
  Seq.NumWorkers = 4;
  Config Thr = Seq;
  Thr.Threaded = true;

  DegreeSumProgram A, B;
  Engine(G, Seq).run(A);
  Engine(G, Thr).run(B);
  EXPECT_EQ(A.Total, 3000);
  EXPECT_EQ(A.Total, B.Total);
}

// Worker counts must not change program results (only network stats).
class WorkerCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkerCountTest, ResultIndependentOfPartitioning) {
  Graph G = generateUniformRandom(300, 2000, 23);
  Config Cfg;
  Cfg.NumWorkers = GetParam();
  DegreeSumProgram P;
  RunStats Stats = Engine(G, Cfg).run(P);
  EXPECT_EQ(P.Total, 2000);
  EXPECT_EQ(Stats.Supersteps, 1u);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

//===----------------------------------------------------------------------===//
// Runaway guard.
//===----------------------------------------------------------------------===//

class NeverEndingProgram : public TestProgram {
public:
  void compute(VertexContext &Ctx) override {
    Message M;
    M.push(Value::makeInt(0));
    Ctx.sendToAllOutNeighbors(M); // keeps everyone active forever
  }
};

TEST(PregelRuntime, MaxSuperstepsGuard) {
  Graph G = generateRing(3);
  Config Cfg;
  Cfg.MaxSupersteps = 25;
  Engine E(G, Cfg);
  NeverEndingProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.Supersteps, 25u);
}

//===----------------------------------------------------------------------===//
// Superstep metrics and halt reasons.
//===----------------------------------------------------------------------===//

TEST(PregelMetrics, PerSuperstepMessageCounts) {
  Graph G = generateRing(4);
  Engine E(G, Config{});
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  ASSERT_EQ(Stats.Steps.size(), Stats.Supersteps);
  ASSERT_EQ(Stats.Steps.size(), 2u);
  EXPECT_EQ(Stats.Steps[0].Step, 0u);
  EXPECT_EQ(Stats.Steps[1].Step, 1u);
  EXPECT_EQ(Stats.Steps[0].Messages, 4u);
  EXPECT_EQ(Stats.Steps[1].Messages, 0u);
  // Step 0 runs all 4 vertices; step 1 only the 4 message receivers.
  EXPECT_EQ(Stats.Steps[0].RanVertices, 4u);
  EXPECT_EQ(Stats.Steps[1].RanVertices, 4u);
  // BroadcastOnceProgram never votes to halt (the master ends the run), so
  // every vertex stays active after both steps.
  EXPECT_EQ(Stats.Steps[0].ActiveAfter, 4u);
  EXPECT_EQ(Stats.Steps[1].ActiveAfter, 4u);
  EXPECT_GE(Stats.Steps[0].timeImbalance(), 1.0);
}

TEST(PregelMetrics, PerWorkerByteAttribution) {
  // Ring of 4 with 2 workers: 0,2 on worker 0; 1,3 on worker 1. Every ring
  // edge crosses the boundary, so each worker sends 2 network messages of
  // 12 bytes (4B header + 8B int) and receives 2.
  Graph G = generateRing(4);
  Config Cfg;
  Cfg.NumWorkers = 2;
  Engine E(G, Cfg);
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  ASSERT_GE(Stats.Steps.size(), 1u);
  const SuperstepMetrics &S0 = Stats.Steps[0];
  ASSERT_EQ(S0.Workers.size(), 2u);
  for (unsigned W = 0; W < 2; ++W) {
    EXPECT_EQ(S0.Workers[W].MessagesSent, 2u);
    EXPECT_EQ(S0.Workers[W].NetworkMessagesSent, 2u);
    EXPECT_EQ(S0.Workers[W].BytesSent, 24u);
    EXPECT_EQ(S0.Workers[W].MessagesReceived, 2u);
  }
  // Step aggregates equal the sum over workers, and the per-worker bytes
  // add up to the run's total network traffic.
  EXPECT_EQ(S0.NetworkBytes, Stats.NetworkBytes);
  std::vector<WorkerStepMetrics> Totals = aggregateWorkers(Stats.Steps);
  uint64_t Sent = 0, Bytes = 0;
  for (const WorkerStepMetrics &W : Totals) {
    Sent += W.MessagesSent;
    Bytes += W.BytesSent;
  }
  EXPECT_EQ(Sent, Stats.TotalMessages);
  EXPECT_EQ(Bytes, Stats.NetworkBytes);
}

TEST(PregelMetrics, CombinerReductionRatio) {
  // All 6 vertices send one Sum-combinable message to vertex 0; with 2
  // workers each sending side folds its 3 messages into 1.
  Graph G = generateRing(6);
  Config Cfg;
  Cfg.NumWorkers = 2;
  Cfg.Combiners[0] = ReduceKind::Sum;
  Engine E(G, Cfg);
  SendToProgram P;
  RunStats Stats = E.run(P);
  ASSERT_GE(Stats.Steps.size(), 1u);
  const SuperstepMetrics &S0 = Stats.Steps[0];
  EXPECT_EQ(S0.CombinerInput, 6u);
  EXPECT_EQ(S0.CombinerOutput, 2u);
  EXPECT_DOUBLE_EQ(S0.combinerRatio(), 2.0 / 6.0);
  // The combined messages are what reaches the wire accounting.
  EXPECT_EQ(S0.Messages, 2u);
  EXPECT_EQ(P.Hits[0], 2);
}

TEST(PregelMetrics, HaltReasonMasterHalt) {
  Graph G = generateRing(4);
  Engine E(G, Config{});
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.Halt, HaltReason::MasterHalt);
}

TEST(PregelMetrics, HaltReasonQuiescence) {
  Graph G = generateRing(3);
  Engine E(G, Config{});
  QuiescenceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.Halt, HaltReason::Quiescence);
}

TEST(PregelMetrics, MaxSuperstepsSetsHaltReasonAndDiagnostic) {
  Graph G = generateRing(3);
  Config Cfg;
  Cfg.MaxSupersteps = 5;
  DiagnosticEngine Diags;
  Cfg.Diags = &Diags;
  Engine E(G, Cfg);
  NeverEndingProgram P;
  RunStats Stats = E.run(P);
  EXPECT_EQ(Stats.Halt, HaltReason::MaxSupersteps);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_NE(Diags.diagnostics()[0].toString().find("MaxSupersteps"),
            std::string::npos);
  EXPECT_NE(Stats.toString().find("halt=max-supersteps"), std::string::npos);
}

TEST(PregelMetrics, CollectMetricsOffSkipsSteps) {
  Graph G = generateRing(4);
  Config Cfg;
  Cfg.CollectMetrics = false;
  Engine E(G, Cfg);
  BroadcastOnceProgram P;
  RunStats Stats = E.run(P);
  EXPECT_TRUE(Stats.Steps.empty());
  // Aggregate stats and halt reasons are tracked regardless.
  EXPECT_EQ(Stats.TotalMessages, 4u);
  EXPECT_EQ(Stats.Halt, HaltReason::MasterHalt);
}

TEST(PregelMetrics, ThreadedWorkersFillOwnSlots) {
  Graph G = generateUniformRandom(500, 3000, 17);
  Config Cfg;
  Cfg.NumWorkers = 4;
  Cfg.Threaded = true;
  Engine E(G, Cfg);
  DegreeSumProgram P;
  RunStats Stats = E.run(P);
  ASSERT_EQ(Stats.Steps.size(), 1u);
  ASSERT_EQ(Stats.Steps[0].Workers.size(), 4u);
  uint64_t Ran = 0;
  for (const WorkerStepMetrics &W : Stats.Steps[0].Workers)
    Ran += W.RanVertices;
  EXPECT_EQ(Ran, 500u);
}

TEST(PregelMetrics, PhaseLabelRecordedPerStep) {
  class LabeledProgram : public TestProgram {
  public:
    void masterCompute(MasterContext &Master) override {
      if (Master.superstep() == 2) {
        Master.haltAll();
        return;
      }
      Master.setPhaseLabel("phase-" + std::to_string(Master.superstep()));
    }
    void compute(VertexContext &Ctx) override {
      if (Ctx.superstep() < 1) {
        Message M;
        M.push(Value::makeInt(1));
        Ctx.sendToAllOutNeighbors(M);
      }
    }
  };
  Graph G = generateRing(3);
  Engine E(G, Config{});
  LabeledProgram P;
  RunStats Stats = E.run(P);
  ASSERT_EQ(Stats.Steps.size(), 2u);
  EXPECT_EQ(Stats.Steps[0].Label, "phase-0");
  EXPECT_EQ(Stats.Steps[1].Label, "phase-1");
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism: sequential-mode runs are bitwise repeatable, and inbox
// grouping is stable regardless of which worker a sender lives on.
//===----------------------------------------------------------------------===//

namespace determinism {

using namespace gm;
using namespace gm::pregel;

class CollectOrderProgram : public VertexProgram {
public:
  std::vector<int64_t> SeenAtZero;
  void init(const Graph &, MasterContext &) override {}
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() == 2)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    if (Ctx.superstep() == 0) {
      Message M;
      M.push(Value::makeInt(static_cast<int64_t>(Ctx.id())));
      Ctx.sendTo(0, M);
      return;
    }
    if (Ctx.id() == 0)
      for (pregel::MsgRef M : Ctx.messages())
        SeenAtZero.push_back(M.getInt(0));
  }
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }
};

TEST(Determinism, RunsAreRepeatable) {
  Graph G = generateUniformRandom(200, 1000, 31);
  Config Cfg;
  Cfg.NumWorkers = 4;
  CollectOrderProgram A, B;
  Engine(G, Cfg).run(A);
  Engine(G, Cfg).run(B);
  EXPECT_EQ(A.SeenAtZero, B.SeenAtZero);
  EXPECT_EQ(A.SeenAtZero.size(), 200u);
}

TEST(Determinism, InboxArrivesInAscendingSourceOrder) {
  Graph G = generateRing(8);
  Config Cfg;
  Cfg.NumWorkers = 3;
  CollectOrderProgram P;
  Engine(G, Cfg).run(P);
  // Canonical delivery order: each vertex reads its inbox in ascending
  // source id, independent of which worker owns the sender — so the order
  // is the same for every partition strategy and worker count.
  std::vector<int64_t> Expected = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(P.SeenAtZero, Expected);
}

TEST(Determinism, InboxOrderInvariantUnderWorkerCountAndPartition) {
  Graph G = generateUniformRandom(64, 400, 7);
  std::vector<int64_t> Baseline;
  for (unsigned W : {1u, 3u, 8u})
    for (PartitionStrategy S :
         {PartitionStrategy::Hash, PartitionStrategy::Range,
          PartitionStrategy::EdgeBalanced}) {
      Config Cfg;
      Cfg.NumWorkers = W;
      Cfg.Partition = S;
      CollectOrderProgram P;
      Engine(G, Cfg).run(P);
      if (Baseline.empty())
        Baseline = P.SeenAtZero;
      EXPECT_EQ(P.SeenAtZero, Baseline)
          << "workers=" << W << " partition=" << partitionStrategyName(S);
    }
}

} // namespace determinism
