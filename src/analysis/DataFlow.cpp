//===- analysis/DataFlow.cpp ------------------------------------------------===//

#include "analysis/DataFlow.h"

#include <algorithm>
#include <functional>
#include <sstream>

using namespace gm;
using namespace gm::pir;

//===----------------------------------------------------------------------===//
// Constant lattice
//===----------------------------------------------------------------------===//

bool ConstVal::meet(const ConstVal &O) {
  if (S == State::Bottom || O.S == State::Top)
    return false;
  if (S == State::Top) {
    S = O.S;
    V = O.V;
    return true;
  }
  // Const meet Const / Const meet Bottom.
  if (O.S == State::Const && V == O.V)
    return false;
  S = State::Bottom;
  return true;
}

std::optional<Value> pir::foldBinary(BinaryOpKind Op, const Value &L,
                                     const Value &R, ValueKind Ty) {
  // Mirrors IRExecutor's evalBinary exactly; the And/Or cases reproduce the
  // short-circuit result (both operands are constants here, so evaluation
  // order is unobservable).
  auto BothInt = [&] {
    return L.kind() != ValueKind::Double && R.kind() != ValueKind::Double;
  };
  switch (Op) {
  case BinaryOpKind::Add:
    if (Ty == ValueKind::Int && BothInt())
      return Value::makeInt(L.asInt() + R.asInt());
    return Value::makeDouble(L.asDouble() + R.asDouble());
  case BinaryOpKind::Sub:
    if (Ty == ValueKind::Int && BothInt())
      return Value::makeInt(L.asInt() - R.asInt());
    return Value::makeDouble(L.asDouble() - R.asDouble());
  case BinaryOpKind::Mul:
    if (Ty == ValueKind::Int && BothInt())
      return Value::makeInt(L.asInt() * R.asInt());
    return Value::makeDouble(L.asDouble() * R.asDouble());
  case BinaryOpKind::Div:
    if (Ty == ValueKind::Int && BothInt()) {
      if (R.asInt() == 0)
        return std::nullopt; // leave the runtime assert in place
      return Value::makeInt(L.asInt() / R.asInt());
    }
    return Value::makeDouble(L.asDouble() / R.asDouble());
  case BinaryOpKind::Mod:
    if (R.asInt() == 0)
      return std::nullopt;
    return Value::makeInt(L.asInt() % R.asInt());
  case BinaryOpKind::Eq:
  case BinaryOpKind::Ne: {
    bool Equal;
    if (L.kind() == ValueKind::Bool || R.kind() == ValueKind::Bool)
      Equal = L.asBool() == R.asBool();
    else if (L.kind() == ValueKind::Double || R.kind() == ValueKind::Double)
      Equal = L.asDouble() == R.asDouble();
    else
      Equal = L.asInt() == R.asInt();
    return Value::makeBool(Op == BinaryOpKind::Eq ? Equal : !Equal);
  }
  case BinaryOpKind::Lt:
  case BinaryOpKind::Le:
  case BinaryOpKind::Gt:
  case BinaryOpKind::Ge: {
    bool Result;
    if (L.kind() == ValueKind::Double || R.kind() == ValueKind::Double) {
      double A = L.asDouble(), B = R.asDouble();
      Result = Op == BinaryOpKind::Lt   ? A < B
               : Op == BinaryOpKind::Le ? A <= B
               : Op == BinaryOpKind::Gt ? A > B
                                        : A >= B;
    } else {
      int64_t A = L.asInt(), B = R.asInt();
      Result = Op == BinaryOpKind::Lt   ? A < B
               : Op == BinaryOpKind::Le ? A <= B
               : Op == BinaryOpKind::Gt ? A > B
                                        : A >= B;
    }
    return Value::makeBool(Result);
  }
  case BinaryOpKind::And:
    return Value::makeBool(L.asBool() && R.asBool());
  case BinaryOpKind::Or:
    return Value::makeBool(L.asBool() || R.asBool());
  }
  return std::nullopt;
}

std::optional<Value> pir::foldUnary(UnaryOpKind Op, const Value &A) {
  if (Op == UnaryOpKind::Not)
    return Value::makeBool(!A.asBool());
  if (A.kind() == ValueKind::Double)
    return Value::makeDouble(-A.getDouble());
  return Value::makeInt(-A.asInt());
}

std::optional<Value> pir::foldCast(const Value &A, ValueKind Ty) {
  switch (Ty) {
  case ValueKind::Int:
    return Value::makeInt(A.asInt());
  case ValueKind::Double:
    return Value::makeDouble(A.asDouble());
  case ValueKind::Bool:
    return Value::makeBool(A.asBool());
  case ValueKind::Undef:
    break;
  }
  return std::nullopt;
}

const char *pir::stateShapeName(StateShape S) {
  switch (S) {
  case StateShape::MasterOnly:
    return "master-only";
  case StateShape::ReceiverOnly:
    return "receiver-only";
  case StateShape::Flood:
    return "flood";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Shared walks
//===----------------------------------------------------------------------===//

namespace {

/// Zero of a kind — what a freshly built Column holds before any write.
Value zeroOf(ValueKind K) {
  switch (K) {
  case ValueKind::Bool:
    return Value::makeBool(false);
  case ValueKind::Double:
    return Value::makeDouble(0.0);
  default:
    return Value::makeInt(0);
  }
}

void forEachExpr(const PExpr *E, const std::function<void(const PExpr *)> &Fn) {
  if (!E)
    return;
  Fn(E);
  forEachExpr(E->A, Fn);
  forEachExpr(E->B, Fn);
  forEachExpr(E->C, Fn);
}

/// All expressions a vertex statement evaluates itself (not its bodies).
void forEachStmtExpr(const VStmt *V,
                     const std::function<void(const PExpr *)> &Fn) {
  forEachExpr(V->Cond, Fn);
  forEachExpr(V->Value, Fn);
  for (const PExpr *E : V->Payload)
    forEachExpr(E, Fn);
}

//===----------------------------------------------------------------------===//
// The analysis driver
//===----------------------------------------------------------------------===//

class Analyzer {
public:
  explicit Analyzer(const PregelProgram &P) : P(P) {}

  DataFlowInfo run() {
    Info.CFG = buildStateGraph(P);
    const int N = static_cast<int>(P.States.size());
    scanProgram();
    initLattices();
    solveConstants();
    computeHaltReachability(N);
    solveLiveness(N);
    solveReachingDefs(N);
    classifyShapes(N);
    return std::move(Info);
  }

private:
  //===--------------------------------------------------------------------===//
  // Structure scan: sends, handlers, reads, writes
  //===--------------------------------------------------------------------===//

  void scanProgram() {
    const int N = static_cast<int>(P.States.size());
    Info.SlotRead.assign(P.NodeProps.size(), false);
    Info.SlotWritten.assign(P.NodeProps.size(), false);
    Info.Channels.resize(P.MsgTypes.size());
    for (size_t T = 0; T < P.MsgTypes.size(); ++T) {
      Info.Channels[T].FieldRead.assign(P.MsgTypes[T].Fields.size(), false);
      Info.Channels[T].FieldVal.assign(P.MsgTypes[T].Fields.size(),
                                       ConstVal::top());
    }
    SendsIn.assign(N, {});
    RecvIn.assign(N, {});

    for (int S = 0; S < N; ++S)
      scanBody(S, P.States[S].VertexCode, /*MsgType=*/-1);

    // Channel def-use edges: a send in state S feeds the handlers of S's
    // CFG successors (the state running in the next superstep).
    for (size_t T = 0; T < P.MsgTypes.size(); ++T) {
      ChannelFacts &C = Info.Channels[T];
      for (int S = 0; S < N; ++S) {
        if (SendsIn[S].count(static_cast<int>(T)))
          C.SendStates.push_back(S);
        if (RecvIn[S].count(static_cast<int>(T)))
          C.RecvStates.push_back(S);
      }
      for (int S : C.SendStates) {
        for (int Succ : Info.CFG.Succ[S])
          if (RecvIn[Succ].count(static_cast<int>(T))) {
            C.Live = true;
            break;
          }
        if (C.Live)
          break;
      }
    }
  }

  void scanBody(int S, const std::vector<VStmt *> &Body, int MsgType) {
    for (const VStmt *V : Body) {
      if (!V)
        continue;
      forEachStmtExpr(V, [&](const PExpr *E) {
        if (E->K == PExprKind::PropRead)
          Info.SlotRead[E->Index] = true;
        if (E->K == PExprKind::MsgField && MsgType >= 0)
          Info.Channels[MsgType].FieldRead[E->Index] = true;
      });
      switch (V->K) {
      case VStmtKind::Assign:
        Info.SlotWritten[V->Index] = true;
        break;
      case VStmtKind::SendToOutNbrs:
      case VStmtKind::SendToInNbrs:
      case VStmtKind::SendToNode:
        SendsIn[S].insert(V->Index);
        break;
      case VStmtKind::OnMessage:
        RecvIn[S].insert(V->Index);
        break;
      default:
        break;
      }
      scanBody(S, V->Then, V->K == VStmtKind::OnMessage ? V->Index : MsgType);
      scanBody(S, V->Else, MsgType);
    }
  }

  //===--------------------------------------------------------------------===//
  // SCCP over globals, slots and message fields
  //===--------------------------------------------------------------------===//

  void initLattices() {
    Info.GlobalVal.assign(P.Globals.size(), ConstVal::top());
    for (size_t I = 0; I < P.Globals.size(); ++I) {
      const GlobalDef &G = P.Globals[I];
      if (G.Param || G.VertexReduce != ReduceKind::None) {
        // Argument-seeded or vertex-reduced: value unknowable at compile
        // time.
        Info.GlobalVal[I] = ConstVal::bottom();
      } else if (!G.Init.isUndef()) {
        Info.GlobalVal[I].meet(ConstVal::of(G.Init));
      }
      // An Undef init contributes nothing: a declared-but-never-written
      // global is never consumed by a verified program (the generated-code
      // globalAs* helpers document the same stance).
    }
    Info.SlotVal.assign(P.NodeProps.size(), ConstVal::top());
    for (size_t I = 0; I < P.NodeProps.size(); ++I) {
      if (P.NodeProps[I].Param)
        Info.SlotVal[I] = ConstVal::bottom();
      else
        Info.SlotVal[I].meet(ConstVal::of(zeroOf(P.NodeProps[I].Ty)));
    }
    Info.EdgePropVal.assign(P.EdgeProps.size(), ConstVal::bottom());
  }

  /// Abstract value of an expression under the current lattices. MsgType is
  /// the enclosing OnMessage's type (-1 outside handlers).
  ConstVal evalAbs(const PExpr *E, int MsgType) {
    if (!E)
      return ConstVal::bottom();
    switch (E->K) {
    case PExprKind::Const:
      return ConstVal::of(E->ConstVal);
    case PExprKind::GlobalRead:
      return Info.GlobalVal[E->Index];
    case PExprKind::PropRead:
      return Info.SlotVal[E->Index];
    case PExprKind::MsgField:
      if (MsgType >= 0)
        return Info.Channels[MsgType].FieldVal[E->Index];
      return ConstVal::bottom();
    case PExprKind::EdgePropRead:
    case PExprKind::VertexId:
    case PExprKind::OutDegree:
    case PExprKind::InDegree:
    case PExprKind::NumNodes:
    case PExprKind::NumEdges:
    case PExprKind::RandomNode:
      return ConstVal::bottom();
    case PExprKind::Binary: {
      ConstVal A = evalAbs(E->A, MsgType);
      // Short-circuit precision: a constant-false && / constant-true ||
      // decides the result without the other operand.
      if (A.isConst() && E->BinOp == BinaryOpKind::And && !A.V.asBool())
        return ConstVal::of(Value::makeBool(false));
      if (A.isConst() && E->BinOp == BinaryOpKind::Or && A.V.asBool())
        return ConstVal::of(Value::makeBool(true));
      ConstVal B = evalAbs(E->B, MsgType);
      if (A.isConst() && B.isConst())
        if (std::optional<Value> V = foldBinary(E->BinOp, A.V, B.V, E->Ty))
          return ConstVal::of(*V);
      if (A.S == ConstVal::State::Top || B.S == ConstVal::State::Top)
        return ConstVal::top();
      return ConstVal::bottom();
    }
    case PExprKind::Unary: {
      ConstVal A = evalAbs(E->A, MsgType);
      if (A.isConst())
        if (std::optional<Value> V = foldUnary(E->UnOp, A.V))
          return ConstVal::of(*V);
      return A.isBottom() ? ConstVal::bottom() : ConstVal::top();
    }
    case PExprKind::Ternary: {
      ConstVal C = evalAbs(E->A, MsgType);
      if (C.isConst())
        return evalAbs(C.V.asBool() ? E->B : E->C, MsgType);
      ConstVal B1 = evalAbs(E->B, MsgType);
      ConstVal B2 = evalAbs(E->C, MsgType);
      B1.meet(B2);
      if (C.isBottom() && B1.S == ConstVal::State::Top)
        return ConstVal::top();
      return C.isBottom() ? B1 : ConstVal::top();
    }
    case PExprKind::Cast: {
      ConstVal A = evalAbs(E->A, MsgType);
      if (A.isConst())
        if (std::optional<Value> V = foldCast(A.V, E->Ty))
          return ConstVal::of(*V);
      return A.isBottom() ? ConstVal::bottom() : ConstVal::top();
    }
    }
    return ConstVal::bottom();
  }

  /// True unless the condition is a provable constant \p Taken-disagreeing
  /// value — the sparse-conditional part: untaken branches contribute no
  /// writes and no reachable gotos.
  bool branchPossible(const PExpr *Cond, int MsgType, bool Taken) {
    ConstVal C = evalAbs(Cond, MsgType);
    if (!C.isConst())
      return true;
    return C.V.asBool() == Taken;
  }

  void absExecMaster(const std::vector<MStmt *> &Code,
                     std::vector<bool> &NextReachable, bool &Changed) {
    for (const MStmt *M : Code) {
      if (!M)
        continue;
      switch (M->K) {
      case MStmtKind::Set:
        Changed |= Info.GlobalVal[M->Index].meet(evalAbs(M->Value, -1));
        break;
      case MStmtKind::If:
        if (branchPossible(M->Cond, -1, true))
          absExecMaster(M->Then, NextReachable, Changed);
        if (branchPossible(M->Cond, -1, false))
          absExecMaster(M->Else, NextReachable, Changed);
        break;
      case MStmtKind::Goto:
        if (M->Index >= 0 && !NextReachable[M->Index]) {
          NextReachable[M->Index] = true;
          Changed = true;
        }
        break;
      }
    }
  }

  void absExecVertex(int S, const std::vector<VStmt *> &Body, int MsgType,
                     bool &Changed) {
    for (const VStmt *V : Body) {
      if (!V)
        continue;
      switch (V->K) {
      case VStmtKind::Assign:
        if (V->Reduce == ReduceKind::None)
          Changed |= Info.SlotVal[V->Index].meet(evalAbs(V->Value, MsgType));
        else
          // Reductions fold the old value in; treat as opaque.
          Changed |= Info.SlotVal[V->Index].meet(ConstVal::bottom());
        break;
      case VStmtKind::GlobalPut:
        // Verified programs only put to reduced globals, which start at
        // Bottom; nothing to do.
        break;
      case VStmtKind::If:
        if (branchPossible(V->Cond, MsgType, true))
          absExecVertex(S, V->Then, MsgType, Changed);
        if (branchPossible(V->Cond, MsgType, false))
          absExecVertex(S, V->Else, MsgType, Changed);
        break;
      case VStmtKind::SendToOutNbrs:
      case VStmtKind::SendToInNbrs:
      case VStmtKind::SendToNode: {
        ChannelFacts &C = Info.Channels[V->Index];
        for (size_t F = 0; F < V->Payload.size(); ++F)
          if (F < C.FieldVal.size())
            Changed |= C.FieldVal[F].meet(evalAbs(V->Payload[F], MsgType));
        break;
      }
      case VStmtKind::OnMessage:
        // The handler only fires when a reachable CFG predecessor sends
        // the tag.
        if (handlerMayFire(S, V->Index))
          absExecVertex(S, V->Then, V->Index, Changed);
        break;
      case VStmtKind::ForEachOutEdge:
        absExecVertex(S, V->Then, MsgType, Changed);
        break;
      }
    }
  }

  bool handlerMayFire(int S, int Tag) const {
    for (size_t Q = 0; Q < P.States.size(); ++Q) {
      if (!Info.Reachable[Q] || !SendsIn[Q].count(Tag))
        continue;
      const std::vector<int> &Succ = Info.CFG.Succ[Q];
      if (std::find(Succ.begin(), Succ.end(), S) != Succ.end())
        return true;
    }
    return false;
  }

  void solveConstants() {
    const int N = static_cast<int>(P.States.size());
    Info.Reachable.assign(N, false);
    if (N > 0)
      Info.Reachable[0] = true;
    // Iterate abstract execution of every reachable state until the
    // lattices and the executable-state set stop moving. Both only grow
    // downward / outward, so this terminates.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int S = 0; S < N; ++S) {
        if (!Info.Reachable[S])
          continue;
        absExecVertex(S, P.States[S].VertexCode, -1, Changed);
        absExecMaster(P.States[S].TransCode, Info.Reachable, Changed);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Halt reachability
  //===--------------------------------------------------------------------===//

  void computeHaltReachability(int N) {
    std::vector<std::vector<int>> Pred(N);
    for (int S = 0; S < N; ++S)
      for (int T : Info.CFG.Succ[S])
        Pred[T].push_back(S);
    Info.ReachesEnd.assign(N, false);
    std::deque<int> Work;
    for (int S = 0; S < N; ++S)
      if (Info.CFG.CanEnd[S]) {
        Info.ReachesEnd[S] = true;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      int S = Work.front();
      Work.pop_front();
      for (int Q : Pred[S])
        if (!Info.ReachesEnd[Q]) {
          Info.ReachesEnd[Q] = true;
          Work.push_back(Q);
        }
    }
  }

  //===--------------------------------------------------------------------===//
  // Slot liveness (backward)
  //===--------------------------------------------------------------------===//

  /// Sequential gen/kill over one statement list: Gen collects slots read
  /// before any must-write, Must collects slots certainly written.
  /// Conditional bodies (If branches, handlers, edge loops) generate but
  /// only an If with both branches writing kills.
  void genKill(const std::vector<VStmt *> &Body, SlotSet &Gen, SlotSet &Must) {
    for (const VStmt *V : Body) {
      if (!V)
        continue;
      forEachStmtExpr(V, [&](const PExpr *E) {
        if (E->K == PExprKind::PropRead && !Must.count(E->Index))
          Gen.Slots.insert(E->Index);
      });
      switch (V->K) {
      case VStmtKind::Assign:
        // A reduce-assignment reads the old value too.
        if (V->Reduce != ReduceKind::None && !Must.count(V->Index))
          Gen.Slots.insert(V->Index);
        Must.Slots.insert(V->Index);
        break;
      case VStmtKind::If: {
        SlotSet ThenGen = Gen, ThenMust = Must;
        SlotSet ElseGen = Gen, ElseMust = Must;
        genKill(V->Then, ThenGen, ThenMust);
        genKill(V->Else, ElseGen, ElseMust);
        Gen.join(ThenGen);
        Gen.join(ElseGen);
        std::set<int> Both;
        std::set_intersection(ThenMust.Slots.begin(), ThenMust.Slots.end(),
                              ElseMust.Slots.begin(), ElseMust.Slots.end(),
                              std::inserter(Both, Both.begin()));
        Must.Slots = std::move(Both);
        break;
      }
      case VStmtKind::OnMessage:
      case VStmtKind::ForEachOutEdge: {
        // Runs zero or more times: generates, never kills.
        SlotSet BodyGen = Gen, BodyMust = Must;
        genKill(V->Then, BodyGen, BodyMust);
        Gen.join(BodyGen);
        break;
      }
      default:
        break;
      }
    }
  }

  void solveLiveness(int N) {
    std::vector<SlotSet> Gen(N), Kill(N);
    for (int S = 0; S < N; ++S)
      genKill(P.States[S].VertexCode, Gen[S], Kill[S]);

    SlotSet Params;
    for (size_t I = 0; I < P.NodeProps.size(); ++I)
      if (P.NodeProps[I].Param)
        Params.Slots.insert(static_cast<int>(I));

    DataFlowResult<SlotSet> R = solveDataFlow<SlotSet>(
        Info.CFG, FlowDirection::Backward,
        [&](int S, const SlotSet &LiveOut) {
          SlotSet In = Gen[S];
          SlotSet Out = LiveOut;
          // Parameter props are observable outputs: live at END.
          if (Info.CFG.CanEnd[S])
            Out.join(Params);
          for (int Slot : Out.Slots)
            if (!Kill[S].count(Slot))
              In.Slots.insert(Slot);
          return In;
        });
    Info.LiveOut = std::move(R.Entry);
    Info.LiveIn = std::move(R.Exit);
  }

  //===--------------------------------------------------------------------===//
  // Reaching definitions (forward, state granularity)
  //===--------------------------------------------------------------------===//

  void solveReachingDefs(int N) {
    std::vector<SlotSet> Defs(N);
    std::function<void(int, const std::vector<VStmt *> &)> Collect =
        [&](int S, const std::vector<VStmt *> &Body) {
          for (const VStmt *V : Body) {
            if (!V)
              continue;
            if (V->K == VStmtKind::Assign)
              Defs[S].Slots.insert(V->Index);
            Collect(S, V->Then);
            Collect(S, V->Else);
          }
        };
    for (int S = 0; S < N; ++S)
      Collect(S, P.States[S].VertexCode);

    DataFlowResult<SlotSet> R = solveDataFlow<SlotSet>(
        Info.CFG, FlowDirection::Forward, [&](int S, const SlotSet &In) {
          SlotSet Out = In;
          Out.join(Defs[S]);
          return Out;
        });
    Info.ReachingDefs = std::move(R.Entry);
  }

  //===--------------------------------------------------------------------===//
  // Frontier-shape classification
  //===--------------------------------------------------------------------===//

  static bool anyUnguardedEffect(const std::vector<VStmt *> &Body) {
    for (const VStmt *V : Body) {
      if (!V)
        continue;
      switch (V->K) {
      case VStmtKind::Assign:
      case VStmtKind::GlobalPut:
      case VStmtKind::SendToOutNbrs:
      case VStmtKind::SendToInNbrs:
      case VStmtKind::SendToNode:
      case VStmtKind::ForEachOutEdge:
        return true;
      case VStmtKind::If:
        if (anyUnguardedEffect(V->Then) || anyUnguardedEffect(V->Else))
          return true;
        break;
      case VStmtKind::OnMessage:
        // Effects here only run for vertices that received a message —
        // exactly the frontier.
        break;
      }
    }
    return false;
  }

  void classifyShapes(int N) {
    Info.Shapes.assign(N, StateShape::MasterOnly);
    for (int S = 0; S < N; ++S)
      if (!P.States[S].VertexCode.empty())
        Info.Shapes[S] = anyUnguardedEffect(P.States[S].VertexCode)
                             ? StateShape::Flood
                             : StateShape::ReceiverOnly;
  }

  const PregelProgram &P;
  DataFlowInfo Info;
  std::vector<std::set<int>> SendsIn; ///< msg types sent per state
  std::vector<std::set<int>> RecvIn;  ///< msg types handled per state
};

} // namespace

size_t DataFlowInfo::countDeadSlots(const PregelProgram &P) const {
  size_t N = 0;
  for (size_t I = 0; I < P.NodeProps.size(); ++I)
    if (slotDead(P, static_cast<int>(I)))
      ++N;
  return N;
}

size_t DataFlowInfo::countDeadMsgFields() const {
  size_t N = 0;
  for (const ChannelFacts &C : Channels)
    for (bool Read : C.FieldRead)
      if (!Read)
        ++N;
  return N;
}

DataFlowInfo pir::analyzeDataFlow(const PregelProgram &P) {
  return Analyzer(P).run();
}

//===----------------------------------------------------------------------===//
// --analyze rendering
//===----------------------------------------------------------------------===//

namespace {

std::string constStr(const ConstVal &C) {
  switch (C.S) {
  case ConstVal::State::Top:
    return "unwritten";
  case ConstVal::State::Const:
    return "const " + C.V.toString();
  case ConstVal::State::Bottom:
    return "varies";
  }
  return "?";
}

std::string joinInts(const std::vector<int> &Xs) {
  std::ostringstream OS;
  for (size_t I = 0; I < Xs.size(); ++I)
    OS << (I ? "," : "") << Xs[I];
  return OS.str();
}

} // namespace

std::string pir::renderDataFlow(const PregelProgram &P,
                                const DataFlowInfo &I) {
  std::ostringstream OS;
  OS << "=== dataflow analysis: " << P.Name << " ===\n";

  OS << "state CFG (shape / halt / live-in slots):\n";
  for (size_t S = 0; S < P.States.size(); ++S) {
    OS << "  " << S << " '" << P.States[S].Name << "' -> ";
    std::vector<int> Succ = I.CFG.Succ[S];
    OS << (Succ.empty() && !I.CFG.CanEnd[S] ? "(none)" : joinInts(Succ));
    if (I.CFG.CanEnd[S])
      OS << (Succ.empty() ? "END" : ",END");
    OS << "  shape=" << stateShapeName(I.Shapes[S]);
    if (!I.Reachable[S])
      OS << " unreachable";
    if (!I.ReachesEnd[S])
      OS << " no-halt-path";
    std::ostringstream Live;
    for (int Slot : I.LiveIn[S].Slots)
      Live << " " << P.NodeProps[Slot].Name;
    if (!Live.str().empty())
      OS << "  live-in:" << Live.str();
    OS << "\n";
  }

  if (!P.NodeProps.empty()) {
    OS << "slots (node props):\n";
    for (size_t N = 0; N < P.NodeProps.size(); ++N) {
      const PropDef &D = P.NodeProps[N];
      OS << "  " << D.Name << " " << valueKindName(D.Ty)
         << (D.Param ? " param" : "")
         << (I.SlotRead[N] ? "" : " never-read")
         << (I.SlotWritten[N] ? "" : " never-written") << " "
         << constStr(I.SlotVal[N]);
      if (I.slotDead(P, static_cast<int>(N)))
        OS << " DEAD";
      OS << "\n";
    }
  }

  if (!P.Globals.empty()) {
    OS << "globals:\n";
    for (size_t G = 0; G < P.Globals.size(); ++G) {
      const GlobalDef &D = P.Globals[G];
      OS << "  $" << D.Name << " " << valueKindName(D.Ty);
      if (D.Param)
        OS << " param";
      if (D.VertexReduce != ReduceKind::None)
        OS << " reduce=" << reduceKindName(D.VertexReduce);
      OS << " " << constStr(I.GlobalVal[G]) << "\n";
    }
  }

  if (!P.MsgTypes.empty()) {
    OS << "message channels (send states -> handler states):\n";
    for (size_t T = 0; T < P.MsgTypes.size(); ++T) {
      const ChannelFacts &C = I.Channels[T];
      OS << "  " << P.MsgTypes[T].Name << ": {" << joinInts(C.SendStates)
         << "} -> {" << joinInts(C.RecvStates) << "}"
         << (C.Live ? "" : " dead-channel");
      for (size_t F = 0; F < P.MsgTypes[T].Fields.size(); ++F)
        OS << " " << P.MsgTypes[T].Fields[F].Name << "="
           << (C.FieldRead[F] ? constStr(C.FieldVal[F]) : "DEAD");
      OS << "\n";
    }
  }

  return OS.str();
}
