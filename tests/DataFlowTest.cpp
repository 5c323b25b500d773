//===- tests/DataFlowTest.cpp - dataflow analyses + cleanup passes ----------===//
///
/// The dataflow-analysis framework (docs/analysis.md "Dataflow analyses")
/// and the cleanup passes it drives, in three tiers:
///
///  1. Framework facts on hand-built IR: slot liveness, message-field
///     liveness, SCCP global/slot lattices, reachability and the frontier
///     shape of each state.
///  2. Pass correctness on hand-built IR: dead-slot elimination compacts
///     and reindexes, message-field pruning shrinks the wire schema,
///     constant folding substitutes and elides — each leaving the program
///     strictly verifiable.
///  3. The contract that justifies running them by default: the six paper
///     algorithms are bit-identical with the passes on vs off, across
///     worker counts x seq/threaded x interp/native.
///
//===----------------------------------------------------------------------===//

#include "analysis/DataFlow.h"
#include "analysis/PIRVerifier.h"
#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "opt/DataFlowOpt.h"
#include "opt/Optimizer.h"
#include "support/PassStatistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace {

using namespace gm;
using namespace gm::pir;

std::string dumpFindings(const std::vector<CheckFinding> &Fs) {
  std::string Out;
  for (const CheckFinding &F : Fs)
    Out += "  " + F.toString() + "\n";
  return Out.empty() ? "  (no findings)\n" : Out;
}

/// Fixture:
///   state 0 'entry'                                      -> goto 1
///   state 1 'send':  send_out m(acc, 7)                  -> goto 2
///   state 2 'recv':  on_message m { acc += msg.0 };
///                    scratch = acc                        -> goto END
/// Props: acc:int (read+written), scratch:int (written only, dead).
/// Globals: K(none,int,init 5, never set) T(none,int, set in trans).
/// Message m(v:int, junk:int) — field 1 is never read.
std::unique_ptr<PregelProgram> buildFixture() {
  auto P = std::make_unique<PregelProgram>();
  P->Name = "dataflow_fixture";
  int Acc = P->addNodeProp("acc", ValueKind::Int);
  int Scratch = P->addNodeProp("scratch", ValueKind::Int);
  P->addGlobal("K", ValueKind::Int, ReduceKind::None, Value::makeInt(5));
  int GT = P->addGlobal("T", ValueKind::Int, ReduceKind::None,
                        Value::makeInt(0));

  int Msg = P->addMsgType("m");
  P->MsgTypes[Msg].Fields.push_back({"v", ValueKind::Int});
  P->MsgTypes[Msg].Fields.push_back({"junk", ValueKind::Int});

  int Entry = P->newState("entry");
  int Send = P->newState("send");
  int Recv = P->newState("recv");
  P->state(Entry).TransCode.push_back(P->makeGoto(Send));

  VStmt *SendStmt = P->newVStmt(VStmtKind::SendToOutNbrs);
  SendStmt->Index = Msg;
  SendStmt->Payload.push_back(P->propRead(Acc));
  SendStmt->Payload.push_back(P->constExpr(Value::makeInt(7)));
  P->state(Send).VertexCode.push_back(SendStmt);
  P->state(Send).TransCode.push_back(P->makeGoto(Recv));

  PExpr *Field = P->newExpr();
  Field->K = PExprKind::MsgField;
  Field->Index = 0;
  Field->Ty = ValueKind::Int;
  VStmt *AccStmt = P->newVStmt(VStmtKind::Assign);
  AccStmt->Index = Acc;
  AccStmt->Reduce = ReduceKind::Sum;
  AccStmt->Value = Field;
  VStmt *On = P->newVStmt(VStmtKind::OnMessage);
  On->Index = Msg;
  On->Then.push_back(AccStmt);
  VStmt *Copy = P->newVStmt(VStmtKind::Assign);
  Copy->Index = Scratch;
  Copy->Value = P->propRead(Acc);
  P->state(Recv).VertexCode.push_back(On);
  P->state(Recv).VertexCode.push_back(Copy);

  MStmt *SetT = P->newMStmt(MStmtKind::Set);
  SetT->Index = GT;
  SetT->Value = P->constExpr(Value::makeInt(9));
  P->state(Recv).TransCode.push_back(SetT);
  P->state(Recv).TransCode.push_back(P->makeGoto(EndState));
  return P;
}

//===----------------------------------------------------------------------===//
// Tier 1: framework facts.
//===----------------------------------------------------------------------===//

TEST(DataFlowFacts, SlotLiveness) {
  auto P = buildFixture();
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  DataFlowInfo DF = analyzeDataFlow(*P);
  EXPECT_TRUE(DF.SlotRead[0]) << "acc feeds the payload and the copy";
  EXPECT_TRUE(DF.SlotWritten[0]);
  EXPECT_FALSE(DF.SlotRead[1]) << "scratch is write-only";
  EXPECT_TRUE(DF.SlotWritten[1]);
  EXPECT_FALSE(DF.slotDead(*P, 0));
  EXPECT_TRUE(DF.slotDead(*P, 1));
  EXPECT_EQ(DF.countDeadSlots(*P), 1u);

  // Param slots are live by contract: they are the program's output.
  P->NodeProps[1].Param = true;
  DataFlowInfo DF2 = analyzeDataFlow(*P);
  EXPECT_FALSE(DF2.slotDead(*P, 1));
  EXPECT_EQ(DF2.countDeadSlots(*P), 0u);
}

TEST(DataFlowFacts, MessageFieldLiveness) {
  auto P = buildFixture();
  DataFlowInfo DF = analyzeDataFlow(*P);
  ASSERT_EQ(DF.Channels.size(), 1u);
  const ChannelFacts &Ch = DF.Channels[0];
  ASSERT_EQ(Ch.FieldRead.size(), 2u);
  EXPECT_TRUE(Ch.FieldRead[0]) << "msg.v is accumulated in the handler";
  EXPECT_FALSE(Ch.FieldRead[1]) << "msg.junk is never read";
  EXPECT_NE(std::find(Ch.SendStates.begin(), Ch.SendStates.end(), 1),
            Ch.SendStates.end());
  EXPECT_NE(std::find(Ch.RecvStates.begin(), Ch.RecvStates.end(), 2),
            Ch.RecvStates.end());
  EXPECT_EQ(DF.countDeadMsgFields(), 1u);
}

TEST(DataFlowFacts, SCCPGlobalLattice) {
  auto P = buildFixture();
  DataFlowInfo DF = analyzeDataFlow(*P);
  // K: init 5, never assigned -> constant 5.
  ASSERT_TRUE(DF.GlobalVal[0].isConst());
  EXPECT_TRUE(DF.GlobalVal[0].V == Value::makeInt(5));
  // T: master-set to a different value than its init -> not a constant.
  EXPECT_FALSE(DF.GlobalVal[1].isConst());
}

TEST(DataFlowFacts, ReachabilityAndHaltPaths) {
  auto P = buildFixture();
  int Orphan = P->newState("orphan");
  P->state(Orphan).TransCode.push_back(P->makeGoto(EndState));
  DataFlowInfo DF = analyzeDataFlow(*P);
  EXPECT_TRUE(DF.Reachable[0]);
  EXPECT_TRUE(DF.Reachable[1]);
  EXPECT_TRUE(DF.Reachable[2]);
  EXPECT_FALSE(DF.Reachable[Orphan]);
  EXPECT_TRUE(DF.ReachesEnd[0]);
  EXPECT_TRUE(DF.ReachesEnd[2]);
}

TEST(DataFlowFacts, FrontierShapes) {
  auto P = buildFixture();
  DataFlowInfo DF = analyzeDataFlow(*P);
  EXPECT_EQ(DF.Shapes[0], StateShape::MasterOnly) << "entry has no vertex code";
  EXPECT_EQ(DF.Shapes[1], StateShape::Flood) << "unguarded send";
  // 'recv' also carries an unguarded plain assignment (scratch = acc), so
  // it floods too.
  EXPECT_EQ(DF.Shapes[2], StateShape::Flood);

  // Removing the unguarded copy turns 'recv' receiver-only.
  P->States[2].VertexCode.pop_back();
  DataFlowInfo DF2 = analyzeDataFlow(*P);
  EXPECT_EQ(DF2.Shapes[2], StateShape::ReceiverOnly);
}

TEST(DataFlowFacts, RenderMentionsEveryTable) {
  auto P = buildFixture();
  DataFlowInfo DF = analyzeDataFlow(*P);
  std::string Out = renderDataFlow(*P, DF);
  for (const char *Needle :
       {"acc", "scratch", "junk", "shape=flood", "shape=master-only"})
    EXPECT_NE(Out.find(Needle), std::string::npos) << "missing: " << Needle;
}

//===----------------------------------------------------------------------===//
// Tier 2: pass correctness on hand-built IR.
//===----------------------------------------------------------------------===//

TEST(DataFlowPasses, DeadSlotElimCompactsAndReindexes) {
  auto P = buildFixture();
  PassStatistics Stats;
  EXPECT_TRUE(eliminateDeadSlots(*P, &Stats));
  EXPECT_EQ(Stats.counter("opt.dead-slots-removed"), 1u);
  ASSERT_EQ(P->NodeProps.size(), 1u);
  EXPECT_EQ(P->NodeProps[0].Name, "acc");
  std::vector<CheckFinding> Fs = verifyProgramStrict(*P);
  EXPECT_TRUE(Fs.empty()) << dumpFindings(Fs);
  // The write to scratch is gone from 'recv'; only the handler remains.
  ASSERT_EQ(P->States[2].VertexCode.size(), 1u);
  EXPECT_EQ(P->States[2].VertexCode[0]->K, VStmtKind::OnMessage);
  // Second run: nothing left to do.
  EXPECT_FALSE(eliminateDeadSlots(*P));
}

TEST(DataFlowPasses, DeadSlotElimSparesParams) {
  auto P = buildFixture();
  P->NodeProps[1].Param = true;
  EXPECT_FALSE(eliminateDeadSlots(*P));
  EXPECT_EQ(P->NodeProps.size(), 2u);
}

TEST(DataFlowPasses, MessageFieldPruneShrinksTheWire) {
  auto P = buildFixture();
  unsigned Before = deriveMessageLayout(*P).recordSize();
  PassStatistics Stats;
  EXPECT_TRUE(pruneMessageFields(*P, &Stats));
  EXPECT_EQ(Stats.counter("opt.msg-fields-pruned"), 1u);
  ASSERT_EQ(P->MsgTypes[0].Fields.size(), 1u);
  EXPECT_EQ(P->MsgTypes[0].Fields[0].Name, "v");
  // The send's payload dropped the pruned position alongside.
  ASSERT_EQ(P->States[1].VertexCode[0]->Payload.size(), 1u);
  std::vector<CheckFinding> Fs = verifyProgramStrict(*P);
  EXPECT_TRUE(Fs.empty()) << dumpFindings(Fs);
  EXPECT_LT(deriveMessageLayout(*P).recordSize(), Before);
  EXPECT_FALSE(pruneMessageFields(*P));
}

TEST(DataFlowPasses, ConstFoldSubstitutesConstGlobal) {
  auto P = buildFixture();
  // scratch = acc becomes scratch = K + 1, a foldable const expression.
  PExpr *KRead = P->newExpr();
  KRead->K = PExprKind::GlobalRead;
  KRead->Index = 0;
  KRead->Ty = ValueKind::Int;
  VStmt *Copy = P->States[2].VertexCode[1];
  Copy->Value = P->binary(BinaryOpKind::Add, KRead,
                          P->constExpr(Value::makeInt(1)), ValueKind::Int);
  PassStatistics Stats;
  EXPECT_TRUE(constFoldDataflow(*P, &Stats));
  EXPECT_GE(Stats.counter("opt.const-folds"), 1u);
  ASSERT_EQ(Copy->Value->K, PExprKind::Const);
  EXPECT_TRUE(Copy->Value->ConstVal == Value::makeInt(6));
  std::vector<CheckFinding> Fs = verifyProgramStrict(*P);
  EXPECT_TRUE(Fs.empty()) << dumpFindings(Fs);
}

TEST(DataFlowPasses, ConstFoldElidesConstBranches) {
  auto P = buildFixture();
  // if (true) { acc = 0 } else { acc = 1 } -> splice the then-branch.
  VStmt *ThenA = P->newVStmt(VStmtKind::Assign);
  ThenA->Index = 0;
  ThenA->Value = P->constExpr(Value::makeInt(0));
  VStmt *ElseA = P->newVStmt(VStmtKind::Assign);
  ElseA->Index = 0;
  ElseA->Value = P->constExpr(Value::makeInt(1));
  VStmt *If = P->newVStmt(VStmtKind::If);
  If->Cond = P->constExpr(Value::makeBool(true));
  If->Then.push_back(ThenA);
  If->Else.push_back(ElseA);
  P->States[1].VertexCode.push_back(If);
  PassStatistics Stats;
  EXPECT_TRUE(constFoldDataflow(*P, &Stats));
  EXPECT_GE(Stats.counter("opt.branches-elided"), 1u);
  // The If is gone; its then-branch assignment was spliced inline.
  ASSERT_EQ(P->States[1].VertexCode.size(), 2u);
  EXPECT_EQ(P->States[1].VertexCode[1], ThenA);
}

TEST(DataFlowPasses, PipelineIteratesToFixpoint) {
  // The driver loop (fold -> prune -> elim, up to four rounds) must leave a
  // program none of the passes can improve further.
  auto P = buildFixture();
  for (int Round = 0; Round < 4; ++Round) {
    bool Changed = constFoldDataflow(*P);
    Changed |= pruneMessageFields(*P);
    Changed |= eliminateDeadSlots(*P);
    if (!Changed)
      break;
  }
  EXPECT_FALSE(constFoldDataflow(*P));
  EXPECT_FALSE(pruneMessageFields(*P));
  EXPECT_FALSE(eliminateDeadSlots(*P));
  DataFlowInfo DF = analyzeDataFlow(*P);
  EXPECT_EQ(DF.countDeadSlots(*P), 0u);
  EXPECT_EQ(DF.countDeadMsgFields(), 0u);
}

//===----------------------------------------------------------------------===//
// Tier 3: passes-on == passes-off, bit for bit, for the paper algorithms.
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

class DataFlowEquivalence : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Workers, DataFlowEquivalence,
                         ::testing::Values(1, 3, 8));

TEST_P(DataFlowEquivalence, PaperAlgorithmsBitIdenticalOnVsOff) {
  const AlgoCase Cases[] = {
      {"avg_teen", "teen_cnt"},        {"pagerank", "pg_rank"},
      {"conductance", nullptr},        {"sssp", "dist"},
      {"bipartite_matching", "match"}, {"bc_approx", "BC"},
  };
  const unsigned W = GetParam();

  for (const AlgoCase &C : Cases) {
    const bool Bipartite = std::string(C.Name) == "bipartite_matching";
    NodeId BipartiteLeft = 1 << 7;
    Graph G = Bipartite
                  ? generateBipartite(BipartiteLeft, (1 << 7) + 50, 1 << 10, 5)
                  : generateRMAT(1 << 8, 1 << 10, 5);

    CompileOptions OffOpts;
    OffOpts.DataflowOpts = false;
    const std::string Path =
        std::string(GM_ALGORITHMS_DIR) + "/" + C.Name + ".gm";
    CompileResult On = compileGreenMarlFile(Path);
    CompileResult Off = compileGreenMarlFile(Path, OffOpts);
    ASSERT_TRUE(On.ok()) << On.Diags->dump();
    ASSERT_TRUE(Off.ok()) << Off.Diags->dump();

    auto Run = [&](CompileResult &R, bool Threaded, pregel::ExecBackend B) {
      pregel::Config Cfg;
      Cfg.NumWorkers = W;
      Cfg.Threaded = Threaded;
      Cfg.Backend = B;
      Cfg.Combiners =
          inferCombinerTags(*R.Program, exec::IRExecutor::MsgTagOffset);
      return exec::runProgramWithBackend(*R.Program, G,
                                         makeArgs(C.Name, G, BipartiteLeft),
                                         Cfg);
    };

    for (bool Threaded : {false, true})
      for (pregel::ExecBackend B :
           {pregel::ExecBackend::Interp, pregel::ExecBackend::Native}) {
        std::string What =
            std::string(C.Name) + " W=" + std::to_string(W) +
            (Threaded ? " threaded" : " sequential") +
            (B == pregel::ExecBackend::Interp ? " interp" : " native");
        exec::BackendRun A = Run(On, Threaded, B);
        // The registry holds only default-pipeline programs, so the off
        // leg always runs the interpreter — which is the point: the
        // optimized program (native or interp) must match the
        // unoptimized interpreter bit for bit.
        exec::BackendRun Bx = Run(Off, Threaded, B);
        if (B == pregel::ExecBackend::Native) {
          EXPECT_EQ(A.Used, exec::BackendKind::NativeRegistry) << What;
        }

        EXPECT_EQ(A.Stats.Supersteps, Bx.Stats.Supersteps) << What;
        EXPECT_EQ(A.Stats.TotalMessages, Bx.Stats.TotalMessages) << What;
        EXPECT_EQ(A.Stats.NetworkMessages, Bx.Stats.NetworkMessages)
            << What;
        EXPECT_EQ(A.Stats.NetworkBytes, Bx.Stats.NetworkBytes) << What;
        EXPECT_EQ(A.Stats.Halt, Bx.Stats.Halt) << What;
        if (C.ResultProp) {
          for (NodeId N = 0; N < G.numNodes(); ++N) {
            Value Va = A.nodeValue(C.ResultProp, N);
            Value Vb = Bx.nodeValue(C.ResultProp, N);
            ASSERT_TRUE(Va == Vb)
                << What << " " << C.ResultProp << "[" << N
                << "]: " << Va.toString() << " vs " << Vb.toString();
          }
        }
        ASSERT_EQ(A.returnValue().has_value(),
                  Bx.returnValue().has_value())
            << What;
        if (A.returnValue()) {
          EXPECT_TRUE(*A.returnValue() == *Bx.returnValue())
              << What << ": " << A.returnValue()->toString() << " vs "
              << Bx.returnValue()->toString();
        }
      }
  }
}

} // namespace
