//===- exec/IRExecutor.cpp -----------------------------------------------------===//

#include "exec/IRExecutor.h"

#include "exec/CompiledProgram.h"

#include <algorithm>
#include <cmath>
#include <functional>

using namespace gm;
using namespace gm::exec;
using namespace gm::pir;
using pregel::MasterContext;
using pregel::Message;
using pregel::VertexContext;

IRExecutor::IRExecutor(const PregelProgram &Prog, const Graph &G,
                       ExecArgs Args)
    : Prog(Prog), G(G), Args(std::move(Args)),
      SetupPhase(Prog.UsesInNbrs ? 0 : 2) {}

void IRExecutor::init(const Graph &G2, MasterContext &Master) {
  assert(&G2 == &G && "executor bound to a different graph");
  (void)G2;

  // Node property columns, preloaded from property arguments when given.
  Props.clear();
  PropIndex.clear();
  for (const PropDef &D : Prog.NodeProps) {
    PropIndex[D.Name] = static_cast<int>(Props.size());
    Props.emplace_back(D.Ty, G.numNodes());
    auto It = Args.NodeProps.find(D.Name);
    if (It == Args.NodeProps.end())
      continue;
    assert(It->second.size() == G.numNodes() && "node property size mismatch");
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Props.back().set(N, It->second[N]);
  }

  // Edge property columns (always argument-supplied).
  EdgeProps.clear();
  for (const PropDef &D : Prog.EdgeProps) {
    auto It = Args.EdgeProps.find(D.Name);
    assert(It != Args.EdgeProps.end() && "missing edge property argument");
    assert(It->second.size() == G.numEdges() && "edge property size mismatch");
    EdgeProps.push_back(It->second);
  }

  // Globals: program-declared values, overridden by scalar arguments.
  for (const GlobalDef &D : Prog.Globals) {
    Value Init = D.Init;
    auto It = Args.Scalars.find(D.Name);
    if (It != Args.Scalars.end())
      Init = It->second;
    Master.declareGlobal(D.Name, D.VertexReduce, Init);
  }

  // Hoist raw storage pointers out of the per-vertex hot path. Taken after
  // every column is built: the backing vectors never resize again, so these
  // stay valid for all supersteps.
  PropRefs.clear();
  for (Column &C : Props) {
    ColRef Ref;
    Ref.K = C.kind();
    Ref.I = C.intData();
    Ref.D = C.doubleData();
    Ref.B = C.boolData();
    PropRefs.push_back(Ref);
  }
  EdgePropRefs.clear();
  for (const std::vector<Value> &E : EdgeProps)
    EdgePropRefs.push_back(E.data());

  CurState = 0;
  CurVertexCode = &Prog.States[0].VertexCode;
  SetupPhase = Prog.UsesInNbrs ? 0 : 2;
  Finished = false;
  ReturnVal.reset();
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

namespace {

Value evalBinary(BinaryOpKind Op, const Value &L, const Value &R,
                 ValueKind Ty) {
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
      assert(R.asInt() != 0 && "integer division by zero");
      return Value::makeInt(L.asInt() / R.asInt());
    }
    return Value::makeDouble(L.asDouble() / R.asDouble());
  case BinaryOpKind::Mod:
    assert(R.asInt() != 0 && "modulo by zero");
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
  case BinaryOpKind::Or:
    gm_unreachable("logical ops are short-circuited by the caller");
  }
  gm_unreachable("invalid binary op");
}
} // namespace

Value IRExecutor::eval(const PExpr *E, EvalCtx &C) {
  switch (E->K) {
  case PExprKind::Const:
    return E->ConstVal;
  case PExprKind::GlobalRead:
    if (C.Vertex)
      return GlobalCache[E->Index];
    return C.Master->getGlobal(Prog.Globals[E->Index].Name);
  case PExprKind::PropRead: {
    assert(C.Vertex && "property read outside vertex context");
    const ColRef &Ref = PropRefs[E->Index];
    NodeId N = C.Vertex->id();
    switch (Ref.K) {
    case ValueKind::Bool:
      return Value::makeBool(Ref.B[N] != 0);
    case ValueKind::Double:
      return Value::makeDouble(Ref.D[N]);
    default:
      return Value::makeInt(Ref.I[N]);
    }
  }
  case PExprKind::MsgField:
    assert(C.Msg.valid() && "message field outside on_message");
    return C.Msg[E->Index];
  case PExprKind::EdgePropRead:
    assert(C.Edge != ~EdgeId{0} && "edge property outside per-edge payload");
    return EdgePropRefs[E->Index][C.Edge];
  case PExprKind::VertexId:
    assert(C.Vertex && "vertex id outside vertex context");
    return Value::makeInt(C.Vertex->id());
  case PExprKind::OutDegree:
    return Value::makeInt(G.outDegree(C.Vertex->id()));
  case PExprKind::InDegree:
    return Value::makeInt(G.inDegree(C.Vertex->id()));
  case PExprKind::NumNodes:
    return Value::makeInt(G.numNodes());
  case PExprKind::NumEdges:
    return Value::makeInt(static_cast<int64_t>(G.numEdges()));
  case PExprKind::RandomNode:
    if (C.Master)
      return Value::makeInt(C.Master->pickRandomNode());
    return Value::makeInt(vertexRandomNode(
        C.Vertex->id(), C.Vertex->superstep(), G.numNodes()));
  case PExprKind::Binary: {
    if (E->BinOp == BinaryOpKind::And) {
      if (!eval(E->A, C).asBool())
        return Value::makeBool(false);
      return Value::makeBool(eval(E->B, C).asBool());
    }
    if (E->BinOp == BinaryOpKind::Or) {
      if (eval(E->A, C).asBool())
        return Value::makeBool(true);
      return Value::makeBool(eval(E->B, C).asBool());
    }
    Value L = eval(E->A, C);
    Value R = eval(E->B, C);
    return evalBinary(E->BinOp, L, R, E->Ty);
  }
  case PExprKind::Unary: {
    Value V = eval(E->A, C);
    if (E->UnOp == UnaryOpKind::Not)
      return Value::makeBool(!V.asBool());
    if (V.kind() == ValueKind::Double)
      return Value::makeDouble(-V.getDouble());
    return Value::makeInt(-V.asInt());
  }
  case PExprKind::Ternary:
    return eval(E->A, C).asBool() ? eval(E->B, C) : eval(E->C, C);
  case PExprKind::Cast: {
    Value V = eval(E->A, C);
    switch (E->Ty) {
    case ValueKind::Int:
      return Value::makeInt(V.asInt());
    case ValueKind::Double:
      return Value::makeDouble(V.asDouble());
    case ValueKind::Bool:
      return Value::makeBool(V.asBool());
    case ValueKind::Undef:
      break;
    }
    gm_unreachable("invalid cast target");
  }
  }
  gm_unreachable("invalid expression kind");
}

//===----------------------------------------------------------------------===//
// Vertex execution
//===----------------------------------------------------------------------===//

/// True if any payload expression reads an edge property (requiring
/// per-edge evaluation of the payload).
static bool payloadUsesEdgeProps(const std::vector<PExpr *> &Payload) {
  std::function<bool(const PExpr *)> Scan = [&](const PExpr *E) -> bool {
    if (!E)
      return false;
    if (E->K == PExprKind::EdgePropRead)
      return true;
    return Scan(E->A) || Scan(E->B) || Scan(E->C);
  };
  for (const PExpr *E : Payload)
    if (Scan(E))
      return true;
  return false;
}

void IRExecutor::execVStmt(const VStmt *S, VertexContext &Ctx, EvalCtx &C) {
  switch (S->K) {
  case VStmtKind::Assign: {
    Value V = eval(S->Value, C);
    const ColRef &Ref = PropRefs[S->Index];
    NodeId N = Ctx.id();
    if (S->Reduce == ReduceKind::None) {
      // Column::set with one branch on the cached kind.
      switch (Ref.K) {
      case ValueKind::Bool:
        Ref.B[N] = V.asBool() ? 1 : 0;
        return;
      case ValueKind::Double:
        Ref.D[N] = V.asDouble();
        return;
      default:
        Ref.I[N] = V.asInt();
        return;
      }
    }
    // Same-kind reduces run in place — exactly what applyReduce computes
    // when target and operand kinds match. Mixed kinds (and Undef columns)
    // fall through to the boxed Column::reduce path.
    if (Ref.K == ValueKind::Double && V.kind() == ValueKind::Double) {
      double &T = Ref.D[N];
      double O = V.getDouble();
      switch (S->Reduce) {
      case ReduceKind::Sum:
      case ReduceKind::Count:
        T += O;
        return;
      case ReduceKind::Prod:
        T *= O;
        return;
      case ReduceKind::Min:
        T = std::min(T, O);
        return;
      case ReduceKind::Max:
        T = std::max(T, O);
        return;
      default:
        break;
      }
    } else if (Ref.K == ValueKind::Int && V.kind() == ValueKind::Int) {
      int64_t &T = Ref.I[N];
      int64_t O = V.getInt();
      switch (S->Reduce) {
      case ReduceKind::Sum:
      case ReduceKind::Count:
        T += O;
        return;
      case ReduceKind::Prod:
        T *= O;
        return;
      case ReduceKind::Min:
        T = std::min(T, O);
        return;
      case ReduceKind::Max:
        T = std::max(T, O);
        return;
      default:
        break;
      }
    } else if (Ref.K == ValueKind::Bool && V.kind() == ValueKind::Bool) {
      uint8_t &T = Ref.B[N];
      bool O = V.getBool();
      switch (S->Reduce) {
      case ReduceKind::And:
        T = ((T != 0) && O) ? 1 : 0;
        return;
      case ReduceKind::Or:
        T = ((T != 0) || O) ? 1 : 0;
        return;
      default:
        break;
      }
    }
    Props[S->Index].reduce(N, S->Reduce, V);
    return;
  }
  case VStmtKind::GlobalPut:
    Ctx.putGlobal(Prog.Globals[S->Index].Name, eval(S->Value, C));
    return;
  case VStmtKind::If: {
    const auto &Body = eval(S->Cond, C).asBool() ? S->Then : S->Else;
    for (const VStmt *Child : Body)
      execVStmt(Child, Ctx, C);
    return;
  }
  case VStmtKind::SendToOutNbrs: {
    if (!payloadUsesEdgeProps(S->Payload)) {
      Message M;
      M.Type = S->Index + MsgTagOffset;
      for (const PExpr *E : S->Payload)
        M.push(eval(E, C));
      Ctx.sendToAllOutNeighbors(M);
      return;
    }
    // Per-edge payload (edge properties differ along each edge).
    EdgeId E = G.outEdgeBegin(Ctx.id());
    for (NodeId Nbr : G.outNeighbors(Ctx.id())) {
      EvalCtx EdgeCtx = C;
      EdgeCtx.Edge = E;
      Message M;
      M.Type = S->Index + MsgTagOffset;
      for (const PExpr *PE : S->Payload)
        M.push(eval(PE, EdgeCtx));
      Ctx.sendTo(Nbr, M);
      ++E;
    }
    return;
  }
  case VStmtKind::SendToInNbrs: {
    Message M;
    M.Type = S->Index + MsgTagOffset;
    for (const PExpr *E : S->Payload)
      M.push(eval(E, C));
    for (NodeId Src : G.inNeighbors(Ctx.id()))
      Ctx.sendTo(Src, M);
    return;
  }
  case VStmtKind::SendToNode: {
    Value Target = eval(S->Value, C);
    int64_t T = Target.asInt();
    if (T < 0)
      return; // NIL target: no-op
    Message M;
    M.Type = S->Index + MsgTagOffset;
    for (const PExpr *E : S->Payload)
      M.push(eval(E, C));
    Ctx.sendTo(static_cast<NodeId>(T), M);
    return;
  }
  case VStmtKind::OnMessage: {
    int32_t Tag = S->Index + MsgTagOffset;
    for (pregel::MsgRef M : Ctx.messages()) {
      if (M.type() != Tag)
        continue;
      EvalCtx MsgCtx = C;
      MsgCtx.Msg = M;
      for (const VStmt *Child : S->Then)
        execVStmt(Child, Ctx, MsgCtx);
    }
    return;
  }
  case VStmtKind::ForEachOutEdge: {
    EvalCtx EdgeCtx = C;
    for (EdgeId E = G.outEdgeBegin(Ctx.id()), End = G.outEdgeEnd(Ctx.id());
         E != End; ++E) {
      EdgeCtx.Edge = E;
      for (const VStmt *Child : S->Then)
        execVStmt(Child, Ctx, EdgeCtx);
    }
    return;
  }
  }
  gm_unreachable("invalid vertex statement");
}

pregel::MessageLayout IRExecutor::messageLayout() const {
  return pir::deriveMessageLayout(Prog);
}

void IRExecutor::compute(VertexContext &Ctx) {
  if (SetupPhase == 0) {
    // In-neighbor setup, step 1: broadcast own id along out-edges (§4.3).
    Message M;
    M.Type = SetupMsgTag;
    M.push(Value::makeInt(Ctx.id()));
    Ctx.sendToAllOutNeighbors(M);
    return;
  }
  if (SetupPhase == 1) {
    // Step 2: the runtime graph already indexes in-neighbors; the messages
    // were paid for above, so nothing to materialize here.
    return;
  }

  EvalCtx C;
  C.Vertex = &Ctx;
  for (const VStmt *Stmt : *CurVertexCode)
    execVStmt(Stmt, Ctx, C);
}

//===----------------------------------------------------------------------===//
// Master execution
//===----------------------------------------------------------------------===//

void IRExecutor::execMStmt(const MStmt *S, MasterContext &Master,
                           std::optional<int> &Jump) {
  if (Jump)
    return; // after a goto, remaining master code is dead
  switch (S->K) {
  case MStmtKind::Set: {
    EvalCtx C;
    C.Master = &Master;
    Master.setGlobal(Prog.Globals[S->Index].Name, eval(S->Value, C));
    return;
  }
  case MStmtKind::If: {
    EvalCtx C;
    C.Master = &Master;
    const auto &Body = eval(S->Cond, C).asBool() ? S->Then : S->Else;
    for (const MStmt *Child : Body)
      execMStmt(Child, Master, Jump);
    return;
  }
  case MStmtKind::Goto:
    Jump = S->Index;
    return;
  }
  gm_unreachable("invalid master statement");
}

void IRExecutor::runTransition(MasterContext &Master) {
  const PState &Prev = Prog.States[CurState];
  std::optional<int> Jump;
  for (const MStmt *S : Prev.TransCode)
    execMStmt(S, Master, Jump);
  assert(Jump && "transition program did not reach a goto");
  int Target = *Jump;

  if (Target == EndState) {
    Finished = true;
    if (!Prog.ReturnGlobal.empty())
      ReturnVal = Master.getGlobal(Prog.ReturnGlobal);
    for (const GlobalDef &D : Prog.Globals)
      FinalGlobals[D.Name] = Master.getGlobal(D.Name);
    Master.haltAll();
    return;
  }
  CurState = Target;
  CurVertexCode = &Prog.States[CurState].VertexCode;
}

void IRExecutor::masterCompute(MasterContext &Master) {
  // Snapshot globals for this superstep's vertex phase (after the state
  // transition below runs, values may change; refresh afterwards).
  auto Refresh = [&] {
    GlobalCache.resize(Prog.Globals.size());
    for (size_t I = 0; I < Prog.Globals.size(); ++I)
      GlobalCache[I] = Master.getGlobal(Prog.Globals[I].Name);
  };
  struct Snap {
    decltype(Refresh) &R;
    ~Snap() { R(); }
  } AtExit{Refresh};

  if (Prog.UsesInNbrs) {
    // §4.3 preamble: superstep 0 broadcasts ids, superstep 1 collects them;
    // the program's own state machine starts at superstep 2.
    if (Master.superstep() == 0) {
      SetupPhase = 0;
      Master.setPhaseLabel("in-nbr-setup-0");
      return;
    }
    if (Master.superstep() == 1) {
      SetupPhase = 1;
      Master.setPhaseLabel("in-nbr-setup-1");
      return;
    }
    SetupPhase = 2;
  }
  runTransition(Master);
  // Trace annotation: the state whose vertex phase this superstep runs.
  if (!Finished)
    Master.setPhaseLabel("s" + std::to_string(CurState) + ":" +
                         Prog.States[CurState].Name);
}

//===----------------------------------------------------------------------===//
// Accessors and helpers
//===----------------------------------------------------------------------===//

const Column &IRExecutor::nodeProp(const std::string &Name) const {
  auto It = PropIndex.find(Name);
  assert(It != PropIndex.end() && "unknown node property");
  return Props[It->second];
}

Value IRExecutor::globalValue(const std::string &Name) const {
  auto It = FinalGlobals.find(Name);
  assert(It != FinalGlobals.end() &&
         "global snapshot only available after the program halted itself");
  return It->second;
}

std::string exec::missingArgument(const PregelProgram &Prog,
                                  const ExecArgs &Args) {
  for (const GlobalDef &D : Prog.Globals)
    if (D.Param && !Args.Scalars.count(D.Name))
      return "missing scalar argument \"" + D.Name + "\"";
  for (const PropDef &D : Prog.EdgeProps)
    if (!Args.EdgeProps.count(D.Name))
      return "missing edge property \"" + D.Name + "\"";
  return "";
}

pregel::RunStats exec::runProgram(const PregelProgram &Prog, const Graph &G,
                                  ExecArgs Args, pregel::Config Cfg,
                                  std::unique_ptr<IRExecutor> *OutExec) {
  auto Exec = std::make_unique<IRExecutor>(Prog, G, std::move(Args));
  pregel::Engine Engine(G, Cfg);
  pregel::RunStats Stats = Engine.run(*Exec);
  if (OutExec)
    *OutExec = std::move(Exec);
  return Stats;
}
