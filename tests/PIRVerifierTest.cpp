//===- tests/PIRVerifierTest.cpp - strict verifier + linter fixtures --------===//
//
// Broken-IR fixtures for the analysis layer: each test takes a known-good
// hand-built program, breaks exactly one thing, and asserts the documented
// rule id / diagnostic (docs/analysis.md). The clean-bill tests compile the
// paper algorithms with --verify-each/--lint semantics and expect zero
// errors at every pipeline stage.
//
//===----------------------------------------------------------------------===//

#include "analysis/PIRLint.h"
#include "analysis/PIRVerifier.h"
#include "driver/Compiler.h"
#include "support/Diagnostics.h"
#include "support/PassStatistics.h"

#include <gtest/gtest.h>

namespace {

using namespace gm;
using namespace gm::pir;

std::string dumpFindings(const std::vector<CheckFinding> &Fs) {
  std::string Out;
  for (const CheckFinding &F : Fs)
    Out += "  " + F.toString() + "\n";
  return Out.empty() ? "  (no findings)\n" : Out;
}

/// True when some finding carries \p Rule and its message contains
/// \p MsgSub and its path contains \p PathSub.
testing::AssertionResult hasFinding(const std::vector<CheckFinding> &Fs,
                                    const std::string &Rule,
                                    const std::string &MsgSub,
                                    const std::string &PathSub = "") {
  for (const CheckFinding &F : Fs)
    if (F.Rule == Rule && F.Message.find(MsgSub) != std::string::npos &&
        F.Path.find(PathSub) != std::string::npos)
      return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "no finding [" << Rule << "] with message containing \"" << MsgSub
         << "\" and path containing \"" << PathSub << "\"; findings were:\n"
         << dumpFindings(Fs);
}

/// The known-good fixture every negative test mutates:
///   state 0 'entry'  -> goto 1
///   state 1 'send':  if (age >= 13) send_out m(1);          -> goto 2
///   state 2 'recv':  cnt = 0; on_message m { cnt += msg.0 };
///                    $S += cnt + (flag ? 1 : 0)             -> goto END
/// Props: age:int cnt:int flag:bool. Globals: K(none,int) S(sum,int)
/// done(none,bool). Message m(f:int). Every prop is read somewhere, so the
/// dead-data lints stay quiet on the unmutated program.
std::unique_ptr<PregelProgram> buildBase() {
  auto P = std::make_unique<PregelProgram>();
  P->Name = "fixture";
  int Age = P->addNodeProp("age", ValueKind::Int);
  int Cnt = P->addNodeProp("cnt", ValueKind::Int);
  int Flag = P->addNodeProp("flag", ValueKind::Bool);
  P->addGlobal("K", ValueKind::Int, ReduceKind::None, Value::makeInt(0));
  P->addGlobal("S", ValueKind::Int, ReduceKind::Sum, Value::makeInt(0));
  P->addGlobal("done", ValueKind::Bool, ReduceKind::None,
               Value::makeBool(false));

  int Msg = P->addMsgType("m");
  P->MsgTypes[Msg].Fields.push_back({"f", ValueKind::Int});

  int Entry = P->newState("entry");
  int Send = P->newState("send");
  int Recv = P->newState("recv");
  P->state(Entry).TransCode.push_back(P->makeGoto(Send));

  PExpr *Cond = P->binary(BinaryOpKind::Ge, P->propRead(Age),
                          P->constExpr(Value::makeInt(13)), ValueKind::Bool);
  VStmt *SendStmt = P->newVStmt(VStmtKind::SendToOutNbrs);
  SendStmt->Index = Msg;
  SendStmt->Payload.push_back(P->constExpr(Value::makeInt(1)));
  VStmt *Guard = P->newVStmt(VStmtKind::If);
  Guard->Cond = Cond;
  Guard->Then.push_back(SendStmt);
  P->state(Send).VertexCode.push_back(Guard);
  P->state(Send).TransCode.push_back(P->makeGoto(Recv));

  VStmt *Reset = P->newVStmt(VStmtKind::Assign);
  Reset->Index = Cnt;
  Reset->Value = P->constExpr(Value::makeInt(0));
  VStmt *Acc = P->newVStmt(VStmtKind::Assign);
  Acc->Index = Cnt;
  Acc->Reduce = ReduceKind::Sum;
  PExpr *Field = P->newExpr();
  Field->K = PExprKind::MsgField;
  Field->Index = 0;
  Field->Ty = ValueKind::Int;
  Acc->Value = Field;
  VStmt *On = P->newVStmt(VStmtKind::OnMessage);
  On->Index = Msg;
  On->Then.push_back(Acc);
  P->state(Recv).VertexCode.push_back(Reset);
  P->state(Recv).VertexCode.push_back(On);

  PExpr *FlagBit = P->newExpr();
  FlagBit->K = PExprKind::Ternary;
  FlagBit->Ty = ValueKind::Int;
  FlagBit->A = P->propRead(Flag);
  FlagBit->B = P->constExpr(Value::makeInt(1));
  FlagBit->C = P->constExpr(Value::makeInt(0));
  VStmt *Fold = P->newVStmt(VStmtKind::GlobalPut);
  Fold->Index = 1; // S reduce=sum
  Fold->Reduce = ReduceKind::Sum;
  Fold->Value =
      P->binary(BinaryOpKind::Add, P->propRead(Cnt), FlagBit, ValueKind::Int);
  P->state(Recv).VertexCode.push_back(Fold);
  P->state(Recv).TransCode.push_back(P->makeGoto(EndState));
  return P;
}

// Fixture navigation shorthands (mutating tests reach into the tree).
VStmt *sendGuard(PregelProgram &P) { return P.States[1].VertexCode[0]; }
VStmt *sendStmt(PregelProgram &P) { return sendGuard(P)->Then[0]; }
VStmt *resetStmt(PregelProgram &P) { return P.States[2].VertexCode[0]; }
VStmt *onMessage(PregelProgram &P) { return P.States[2].VertexCode[1]; }
VStmt *accStmt(PregelProgram &P) { return onMessage(P)->Then[0]; }

//===----------------------------------------------------------------------===//
// IR-path formatter.
//===----------------------------------------------------------------------===//

TEST(IRPath, ScopesJoinWithSlashes) {
  IRPath P;
  P.push("state 3 'bfs_fwd'");
  {
    IRPath::Scope S1(P, "vertex stmt 2");
    IRPath::Scope S2(P, "on_message 'm0'");
    EXPECT_EQ(P.str(), "state 3 'bfs_fwd' / vertex stmt 2 / on_message 'm0'");
  }
  EXPECT_EQ(P.str(), "state 3 'bfs_fwd'");
}

TEST(IRPath, FindingToStringCarriesPathAndRule) {
  CheckFinding F{CheckSeverity::Error, "slot-range", "state 1 'x'", "boom"};
  EXPECT_EQ(F.toString(), "state 1 'x': boom [slot-range]");
}

//===----------------------------------------------------------------------===//
// Strict verifier: one broken thing per test.
//===----------------------------------------------------------------------===//

TEST(PIRVerifier, BaseFixtureIsClean) {
  auto P = buildBase();
  std::vector<CheckFinding> Fs = verifyProgramStrict(*P);
  EXPECT_TRUE(Fs.empty()) << dumpFindings(Fs);
  std::vector<CheckFinding> Ls = lintProgram(*P);
  EXPECT_TRUE(Ls.empty()) << dumpFindings(Ls);
}

TEST(PIRVerifier, BadAssignSlotIndex) {
  auto P = buildBase();
  resetStmt(*P)->Index = 99;
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "slot-range",
                         "assign property index out of range",
                         "state 2 'recv' / vertex stmt 0"));
}

TEST(PIRVerifier, BadMsgFieldIndex) {
  auto P = buildBase();
  accStmt(*P)->Value->Index = 7;
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "slot-range",
                         "message field index out of range",
                         "on_message 'm'"));
}

TEST(PIRVerifier, MsgFieldAnnotationMismatch) {
  auto P = buildBase();
  accStmt(*P)->Value->Ty = ValueKind::Double; // field 'f' is int
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "expr-type", "annotated"));
}

TEST(PIRVerifier, CastToBoolFromNumberRejected) {
  auto P = buildBase();
  PExpr *Cast = P->newExpr();
  Cast->K = PExprKind::Cast;
  Cast->Ty = ValueKind::Bool;
  Cast->A = P->constExpr(Value::makeInt(1));
  VStmt *S = P->newVStmt(VStmtKind::Assign);
  S->Index = 2; // flag:bool
  S->Value = Cast;
  P->States[2].VertexCode.push_back(S);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "expr-type",
                         "cast to bool from non-bool operand"));
}

TEST(PIRVerifier, AssignStorageMismatch) {
  auto P = buildBase();
  VStmt *S = P->newVStmt(VStmtKind::Assign);
  S->Index = 2; // flag:bool
  S->Value = P->constExpr(Value::makeInt(1));
  P->States[2].VertexCode.push_back(S);
  EXPECT_TRUE(
      hasFinding(verifyProgramStrict(*P), "assign-type", "this.flag"));
}

TEST(PIRVerifier, ReduceKindIncompatibleWithValue) {
  auto P = buildBase();
  accStmt(*P)->Reduce = ReduceKind::And; // and-reduce needs bool operands
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "reduce-type", "reduction"));
}

TEST(PIRVerifier, GlobalPutRestatedReduceMustMatch) {
  auto P = buildBase();
  VStmt *Put = P->newVStmt(VStmtKind::GlobalPut);
  Put->Index = 1; // S reduce=sum
  Put->Reduce = ReduceKind::Min;
  Put->Value = P->constExpr(Value::makeInt(1));
  P->States[2].VertexCode.push_back(Put);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "global-put-reduce",
                         "does not match"));
}

TEST(PIRVerifier, VertexPutToNonReducedGlobal) {
  auto P = buildBase();
  VStmt *Put = P->newVStmt(VStmtKind::GlobalPut);
  Put->Index = 0; // K reduce=none
  Put->Value = P->constExpr(Value::makeInt(1));
  P->States[2].VertexCode.push_back(Put);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "context",
                         "vertex put to non-reduced global 'K'"));
}

TEST(PIRVerifier, IfConditionMustBeBool) {
  auto P = buildBase();
  sendGuard(*P)->Cond = P->constExpr(Value::makeInt(3));
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "cond-type",
                         "if condition must be bool", "state 1 'send'"));
}

TEST(PIRVerifier, TransitionMustReachGoto) {
  auto P = buildBase();
  P->States[1].TransCode.clear();
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "trans-fall-through",
                         "fall off the end", "state 1 'send'"));
}

TEST(PIRVerifier, GotoTargetOutOfRange) {
  auto P = buildBase();
  P->States[1].TransCode.clear();
  P->States[1].TransCode.push_back(P->makeGoto(99));
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "goto-range",
                         "goto target out of range"));
}

TEST(PIRVerifier, PayloadArityMismatch) {
  auto P = buildBase();
  P->MsgTypes[0].Fields.push_back({"extra", ValueKind::Int});
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "payload-arity",
                         "payload arity mismatch for 'm'"));
}

TEST(PIRVerifier, PayloadKindMustMatchLayoutSlot) {
  auto P = buildBase();
  sendStmt(*P)->Payload[0] = P->constExpr(Value::makeDouble(1.0));
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "payload-type",
                         "but field 'f' is 'int'", "payload 0"));
}

TEST(PIRVerifier, SendInWithoutUsesInNbrs) {
  auto P = buildBase();
  VStmt *Bad = P->newVStmt(VStmtKind::SendToInNbrs);
  Bad->Index = 0;
  Bad->Payload.push_back(P->constExpr(Value::makeInt(1)));
  P->States[1].VertexCode.push_back(Bad);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "send-in-decl",
                         "send_in without uses_in_nbrs"));
}

TEST(PIRVerifier, NestedOnMessageRejected) {
  auto P = buildBase();
  VStmt *Inner = P->newVStmt(VStmtKind::OnMessage);
  Inner->Index = 0;
  onMessage(*P)->Then.push_back(Inner);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "nested-on-message",
                         "nested on_message"));
}

TEST(PIRVerifier, MsgFieldOutsideOnMessage) {
  auto P = buildBase();
  PExpr *F = P->newExpr();
  F->K = PExprKind::MsgField;
  F->Index = 0;
  F->Ty = ValueKind::Int;
  VStmt *S = P->newVStmt(VStmtKind::Assign);
  S->Index = 1; // cnt
  S->Value = F;
  P->States[1].VertexCode.push_back(S);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "context",
                         "message field outside on_message"));
}

TEST(PIRVerifier, MasterSetStorageMismatch) {
  auto P = buildBase();
  MStmt *Set = P->newMStmt(MStmtKind::Set);
  Set->Index = 2; // done:bool
  Set->Value = P->constExpr(Value::makeInt(1));
  P->States[2].TransCode.insert(P->States[2].TransCode.begin(), Set);
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "master-set-type",
                         "master set of '$done'", "trans stmt 0"));
}

TEST(PIRVerifier, LegacyEntryPointReportsFirstFinding) {
  auto P = buildBase();
  resetStmt(*P)->Index = 99;
  std::string First = verifyProgram(*P);
  EXPECT_NE(First.find("assign property index out of range"),
            std::string::npos)
      << First;
  EXPECT_NE(First.find("state 2 'recv'"), std::string::npos) << First;
  EXPECT_NE(First.find("[slot-range]"), std::string::npos) << First;
}

//===----------------------------------------------------------------------===//
// Linter: state machine + message protocol.
//===----------------------------------------------------------------------===//

TEST(PIRLint, StateGraphFollowsGotos) {
  auto P = buildBase();
  StateGraph G = buildStateGraph(*P);
  ASSERT_EQ(G.Succ.size(), 3u);
  EXPECT_EQ(G.Succ[0], std::vector<int>({1}));
  EXPECT_EQ(G.Succ[1], std::vector<int>({2}));
  EXPECT_TRUE(G.Succ[2].empty());
  EXPECT_FALSE(G.CanEnd[0]);
  EXPECT_FALSE(G.CanEnd[1]);
  EXPECT_TRUE(G.CanEnd[2]);
}

TEST(PIRLint, UnreachableStateWarned) {
  auto P = buildBase();
  int Orphan = P->newState("orphan");
  P->state(Orphan).TransCode.push_back(P->makeGoto(EndState));
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  std::vector<CheckFinding> Ls = lintProgram(*P);
  ASSERT_TRUE(hasFinding(Ls, "unreachable-state", "no transition targets it",
                         "state 3 'orphan'"));
  for (const CheckFinding &F : Ls)
    if (F.Rule == "unreachable-state") {
      EXPECT_FALSE(F.isError());
    }
}

TEST(PIRLint, NoHaltPathIsAnError) {
  auto P = buildBase();
  P->States[2].TransCode.clear();
  P->States[2].TransCode.push_back(P->makeGoto(1)); // 1 <-> 2 forever
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  std::vector<CheckFinding> Ls = lintProgram(*P);
  ASSERT_TRUE(hasFinding(Ls, "no-halt-path", "no path to END"));
  for (const CheckFinding &F : Ls)
    if (F.Rule == "no-halt-path") {
      EXPECT_TRUE(F.isError());
    }
}

TEST(PIRLint, OrphanedMessageWarned) {
  auto P = buildBase();
  // Drop the receiver: messages sent in 'send' are paid for and dropped.
  P->States[2].VertexCode.erase(P->States[2].VertexCode.begin() + 1);
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  EXPECT_TRUE(hasFinding(lintProgram(*P), "orphaned-message",
                         "message 'm' sent here is never consumed",
                         "state 1 'send'"));
}

TEST(PIRLint, DeadReceiveWarned) {
  auto P = buildBase();
  // Drop the sender: the on_message handler in 'recv' can never fire.
  P->States[1].VertexCode.clear();
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  EXPECT_TRUE(hasFinding(lintProgram(*P), "dead-receive",
                         "on_message 'm' can never fire", "state 2 'recv'"));
}

TEST(PIRLint, UnusedInNbrsWarned) {
  auto P = buildBase();
  P->UsesInNbrs = true;
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  EXPECT_TRUE(hasFinding(lintProgram(*P), "unused-in-nbrs",
                         "setup preamble is wasted"));
}

TEST(PIRLint, RandomWritePlainAssignmentWarned) {
  // §3.1 "random writing": vertex 'write' sends its id to node 0; the
  // handler stores the payload with a plain assignment -> race.
  auto P = std::make_unique<PregelProgram>();
  P->Name = "race";
  int Cnt = P->addNodeProp("cnt", ValueKind::Int);
  int Msg = P->addMsgType("rw");
  P->MsgTypes[Msg].Fields.push_back({"v", ValueKind::Int});

  int Entry = P->newState("entry");
  int Write = P->newState("write");
  int Apply = P->newState("apply");
  P->state(Entry).TransCode.push_back(P->makeGoto(Write));

  VStmt *Send = P->newVStmt(VStmtKind::SendToNode);
  Send->Index = Msg;
  Send->Value = P->constExpr(Value::makeInt(0));
  PExpr *Id = P->newExpr();
  Id->K = PExprKind::VertexId;
  Id->Ty = ValueKind::Int;
  Send->Payload.push_back(Id);
  P->state(Write).VertexCode.push_back(Send);
  P->state(Write).TransCode.push_back(P->makeGoto(Apply));

  PExpr *Field = P->newExpr();
  Field->K = PExprKind::MsgField;
  Field->Index = 0;
  Field->Ty = ValueKind::Int;
  VStmt *Store = P->newVStmt(VStmtKind::Assign);
  Store->Index = Cnt;
  Store->Value = Field; // plain assign, no reduction
  VStmt *On = P->newVStmt(VStmtKind::OnMessage);
  On->Index = Msg;
  On->Then.push_back(Store);
  P->state(Apply).VertexCode.push_back(On);
  P->state(Apply).TransCode.push_back(P->makeGoto(EndState));

  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  std::vector<CheckFinding> Ls = lintProgram(*P);
  ASSERT_TRUE(hasFinding(Ls, "random-write-race",
                         "random write to 'this.cnt'",
                         "state 2 'apply' / on_message 'rw'"));
  // Reducing the write silences the warning.
  Store->Reduce = ReduceKind::Max;
  EXPECT_FALSE(hasFinding(lintProgram(*P), "random-write-race", ""));
}

TEST(PIRLint, DeadSlotWarned) {
  auto P = buildBase();
  // Drop the fold that reads cnt and flag: both become write-only (cnt) or
  // entirely unused (flag), i.e. dead slots.
  P->States[2].VertexCode.pop_back();
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  std::vector<CheckFinding> Ls = lintProgram(*P);
  EXPECT_TRUE(hasFinding(Ls, "dead-slot", "node property 'cnt'"));
  EXPECT_TRUE(hasFinding(Ls, "dead-slot", "node property 'flag'"));
  EXPECT_FALSE(hasFinding(Ls, "dead-slot", "node property 'age'"));
  for (const CheckFinding &F : Ls)
    if (F.Rule == "dead-slot") {
      EXPECT_FALSE(F.isError());
    }
}

TEST(PIRLint, ParamSlotIsNeverDead) {
  // An externally observable slot (Param) is live by contract even when no
  // statement reads it — it is the program's output.
  auto P = buildBase();
  P->States[2].VertexCode.pop_back();
  P->NodeProps[1].Param = true; // cnt becomes an output column
  std::vector<CheckFinding> Ls = lintProgram(*P);
  EXPECT_FALSE(hasFinding(Ls, "dead-slot", "node property 'cnt'"));
  EXPECT_TRUE(hasFinding(Ls, "dead-slot", "node property 'flag'"));
}

TEST(PIRLint, DeadMessageFieldWarned) {
  auto P = buildBase();
  // The handler stops reading msg.f: the field still travels the wire.
  accStmt(*P)->Value = P->constExpr(Value::makeInt(1));
  ASSERT_TRUE(verifyProgramStrict(*P).empty());
  EXPECT_TRUE(hasFinding(lintProgram(*P), "dead-message-field",
                         "message 'm' field 0 ('f')"));
}

//===----------------------------------------------------------------------===//
// Broken pass output: what the strict verifier catches if a dataflow
// cleanup pass mis-rewrites the program (docs/analysis.md).
//===----------------------------------------------------------------------===//

TEST(PIRVerifier, BadSlotCompactionCaught) {
  // A buggy dead-slot elimination that shrinks the slot table without
  // reindexing the surviving reads: the fold's flag read (slot 2) now
  // indexes past the end.
  auto P = buildBase();
  P->NodeProps.pop_back();
  EXPECT_TRUE(hasFinding(verifyProgramStrict(*P), "slot-range",
                         "property index out of range"));
}

TEST(PIRVerifier, BadFieldPruneCaught) {
  // A buggy message-field prune that drops the field declaration but keeps
  // the send payload and the handler's field read.
  auto P = buildBase();
  P->MsgTypes[0].Fields.clear();
  std::vector<CheckFinding> Fs = verifyProgramStrict(*P);
  EXPECT_TRUE(hasFinding(Fs, "payload-arity", "payload arity mismatch"));
  EXPECT_TRUE(hasFinding(Fs, "slot-range", "message field index out of range"));
}

//===----------------------------------------------------------------------===//
// Pipeline integration: verifyAfterPass and whole-compiler clean bills.
//===----------------------------------------------------------------------===//

TEST(VerifyEach, FailureNamesThePass) {
  auto P = buildBase();
  resetStmt(*P)->Index = 99;
  DiagnosticEngine Diags;
  PassStatistics Stats;
  EXPECT_FALSE(verifyAfterPass(*P, "state-merging", Diags, &Stats));
  EXPECT_TRUE(Diags.hasErrors());
  std::string Dump = Diags.dump();
  EXPECT_NE(Dump.find("IR verification failed after pass 'state-merging'"),
            std::string::npos)
      << Dump;
  EXPECT_NE(Dump.find("assign property index out of range"),
            std::string::npos)
      << Dump;
  EXPECT_GE(Stats.counter("verify.findings"), 1u);
}

TEST(VerifyEach, CleanProgramPassesAndCountsNothing) {
  auto P = buildBase();
  DiagnosticEngine Diags;
  PassStatistics Stats;
  EXPECT_TRUE(verifyAfterPass(*P, "translate", Diags, &Stats));
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Stats.counter("verify.findings"), 0u);
}

std::string algoPath(const std::string &Name) {
  return std::string(GM_ALGORITHMS_DIR) + "/" + Name;
}

const char *const PaperAlgorithms[] = {
    "avg_teen.gm", "pagerank.gm",           "conductance.gm",
    "sssp.gm",     "bipartite_matching.gm", "bc_approx.gm",
};

TEST(CleanBill, PaperAlgorithmsVerifyAtEveryStage) {
  // Every algorithm, at every optimization level, with per-pass verification
  // and the linter on: zero errors, and the final IR re-verifies clean.
  const bool Toggles[][2] = {{true, true}, {false, true}, {false, false}};
  for (const char *Name : PaperAlgorithms) {
    for (const bool *T : Toggles) {
      CompileOptions Opts;
      Opts.StateMerging = T[0];
      Opts.IntraLoopMerging = T[1];
      Opts.VerifyEach = true;
      Opts.Lint = true;
      PassStatistics Stats;
      Opts.Stats = &Stats;
      CompileResult R = compileGreenMarlFile(algoPath(Name), Opts);
      ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags->dump();
      EXPECT_EQ(R.Diags->errorCount(), 0u) << Name << ": " << R.Diags->dump();
      std::vector<CheckFinding> Fs = verifyProgramStrict(*R.Program);
      EXPECT_TRUE(Fs.empty()) << Name << ":\n" << dumpFindings(Fs);
      for (const CheckFinding &F : lintProgram(*R.Program))
        EXPECT_FALSE(F.isError()) << Name << ": " << F.toString();
    }
  }
}

TEST(CleanBill, BipartiteMatchingWarnsAboutRandomWrites) {
  // The §3.1 caveat: bipartite matching writes match/suitor through
  // SendToNode with plain assignments. Expected (and documented) warnings.
  CompileOptions Opts;
  Opts.Lint = true;
  PassStatistics Stats;
  Opts.Stats = &Stats;
  CompileResult R =
      compileGreenMarlFile(algoPath("bipartite_matching.gm"), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags->dump();
  EXPECT_EQ(R.Diags->errorCount(), 0u);
  EXPECT_EQ(R.Diags->warningCount(), 2u) << R.Diags->dump();
  std::string Dump = R.Diags->dump();
  EXPECT_NE(Dump.find("random-write-race"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("this.match"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("this.suitor"), std::string::npos) << Dump;
  EXPECT_EQ(Stats.counter("lint.random-write-race"), 2u);
}

TEST(CleanBill, WerrorPromotesLintWarnings) {
  CompileOptions Opts;
  Opts.Lint = true;
  Opts.WarningsAsErrors = true;
  CompileResult R =
      compileGreenMarlFile(algoPath("bipartite_matching.gm"), Opts);
  EXPECT_FALSE(R.ok());
  ASSERT_TRUE(R.Diags->hasErrors());
  EXPECT_NE(R.Diags->dump().find("random-write-race"), std::string::npos)
      << R.Diags->dump();
}

} // namespace
