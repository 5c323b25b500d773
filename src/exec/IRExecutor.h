//===- exec/IRExecutor.h - Run Pregel IR on the BSP engine ------------------===//
///
/// \file
/// Adapts a compiled pir::PregelProgram to the pregel::VertexProgram
/// interface so it can run on the bundled runtime. This is the moral
/// equivalent of compiling the generated GPS Java and deploying it: vertex
/// state lives in typed columns, globals in the runtime's global-objects
/// map, and the state machine is driven from masterCompute exactly as the
/// generated master class would.
///
/// Faithfulness notes: compiler-generated programs never vote to halt
/// (§5.2), and when the program uses incoming-neighbor sends the executor
/// prepends the two in-neighbor setup supersteps of §4.3, paying their
/// messages for real.
///
//===----------------------------------------------------------------------===//

#ifndef GM_EXEC_IREXECUTOR_H
#define GM_EXEC_IREXECUTOR_H

#include "pregel/Runtime.h"
#include "pregelir/PregelIR.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gm::exec {

/// Typed columnar storage for one node property.
class Column {
public:
  Column() = default;
  Column(ValueKind K, NodeId N) : K(K) {
    switch (K) {
    case ValueKind::Bool:
      B.assign(N, 0);
      break;
    case ValueKind::Double:
      D.assign(N, 0.0);
      break;
    default:
      I.assign(N, 0);
      break;
    }
  }

  ValueKind kind() const { return K; }

  Value get(NodeId N) const {
    switch (K) {
    case ValueKind::Bool:
      return Value::makeBool(B[N] != 0);
    case ValueKind::Double:
      return Value::makeDouble(D[N]);
    default:
      return Value::makeInt(I[N]);
    }
  }

  void set(NodeId N, const Value &V) {
    switch (K) {
    case ValueKind::Bool:
      B[N] = V.asBool() ? 1 : 0;
      return;
    case ValueKind::Double:
      D[N] = V.asDouble();
      return;
    default:
      I[N] = V.asInt();
      return;
    }
  }

  void reduce(NodeId N, ReduceKind R, const Value &V) {
    Value Cur = get(N);
    applyReduce(R, Cur, V);
    set(N, Cur);
  }

  /// Raw storage pointers for the interpreter's hoisted hot path. Only the
  /// vector matching kind() is populated; the backing vectors never resize
  /// after construction, so the pointers stay valid for the whole run.
  int64_t *intData() { return I.data(); }
  double *doubleData() { return D.data(); }
  uint8_t *boolData() { return B.data(); }

private:
  ValueKind K = ValueKind::Int;
  std::vector<int64_t> I;
  std::vector<double> D;
  std::vector<uint8_t> B;
};

/// Inputs for one run of a compiled program.
struct ExecArgs {
  /// Scalar procedure arguments by parameter name (Node args as Int ids).
  std::unordered_map<std::string, Value> Scalars;
  /// Initial contents for node property parameters, by name (size numNodes).
  std::unordered_map<std::string, std::vector<Value>> NodeProps;
  /// Contents for edge property parameters, by name (size numEdges,
  /// indexed by EdgeId).
  std::unordered_map<std::string, std::vector<Value>> EdgeProps;
};

/// The first input \p Prog needs that \p Args lacks, as a message: a scalar
/// parameter without a value (`missing scalar argument "hub_bar"`) or a
/// declared edge property without a column (`missing edge property "len"`).
/// Empty when every scalar parameter and edge property is supplied.
std::string missingArgument(const pir::PregelProgram &Prog,
                            const ExecArgs &Args);

class IRExecutor : public pregel::VertexProgram {
public:
  IRExecutor(const pir::PregelProgram &Prog, const Graph &G, ExecArgs Args);

  void init(const Graph &G, pregel::MasterContext &Master) override;
  void masterCompute(pregel::MasterContext &Master) override;
  void compute(pregel::VertexContext &Ctx) override;
  /// Every translated program's message shapes are statically known, so the
  /// engine always gets a packed wire schema (pir::deriveMessageLayout).
  pregel::MessageLayout messageLayout() const override;

  /// Results, valid after Engine::run completes.
  const Column &nodeProp(const std::string &Name) const;
  Value globalValue(const std::string &Name) const;
  std::optional<Value> returnValue() const { return ReturnVal; }
  bool finished() const { return Finished; }

  /// The message-type tag offset: IR message type i travels as tag
  /// i + 1 (tag 0 is reserved for the in-neighbor setup broadcast). The
  /// convention itself lives in the IR (shared with deriveMessageLayout).
  static constexpr int32_t MsgTagOffset = pir::MsgTagOffset;
  static constexpr int32_t SetupMsgTag = pir::SetupMsgTag;

private:
  struct EvalCtx {
    pregel::VertexContext *Vertex = nullptr; ///< null in master context
    pregel::MasterContext *Master = nullptr;
    pregel::MsgRef Msg;       ///< inside OnMessage (format-blind cursor)
    EdgeId Edge = ~EdgeId{0}; ///< inside per-edge payload eval
  };

  Value eval(const pir::PExpr *E, EvalCtx &C);
  void execVStmt(const pir::VStmt *S, pregel::VertexContext &Ctx,
                 EvalCtx &C);
  void execMStmt(const pir::MStmt *S, pregel::MasterContext &Master,
                 std::optional<int> &Jump);
  void runTransition(pregel::MasterContext &Master);

  const pir::PregelProgram &Prog;
  const Graph &G;
  ExecArgs Args;

  std::vector<Column> Props;
  std::unordered_map<std::string, int> PropIndex;
  std::vector<std::vector<Value>> EdgeProps; ///< by IR edge-prop index
  /// Hoisted raw column pointers, rebuilt once per run at the end of
  /// init(). The per-vertex hot path (PropRead, Assign) branches once on
  /// the cached kind and hits the typed array directly instead of going
  /// through the switch-dispatched Column accessors for every access —
  /// the columns never resize after init, so the pointers stay valid for
  /// every superstep.
  struct ColRef {
    ValueKind K = ValueKind::Int;
    int64_t *I = nullptr;
    double *D = nullptr;
    uint8_t *B = nullptr;
  };
  std::vector<ColRef> PropRefs;
  /// Hoisted EdgeProps[i].data() pointers (same lifetime argument).
  std::vector<const Value *> EdgePropRefs;
  /// The current state's vertex code, hoisted out of compute(): updated on
  /// every state transition instead of being looked up per vertex.
  const std::vector<pir::VStmt *> *CurVertexCode = nullptr;
  int CurState = 0;
  int SetupPhase; ///< 0,1 = in-nbr setup supersteps; 2 = normal execution
  /// Per-superstep snapshot of every global, indexed by IR global index.
  /// Globals are fixed for the duration of a vertex phase (master runs
  /// first, vertex puts resolve at the barrier), so vertex-side reads hit
  /// this cache instead of the engine's name-keyed map.
  std::vector<Value> GlobalCache;
  bool Finished = false;
  std::optional<Value> ReturnVal;
  /// Snapshot of every global at the moment the state machine reached END.
  std::unordered_map<std::string, Value> FinalGlobals;
};

/// Convenience: run \p Prog on \p G with \p Args and \p Cfg; returns the
/// run statistics and exposes the executor for result inspection.
pregel::RunStats runProgram(const pir::PregelProgram &Prog, const Graph &G,
                            ExecArgs Args, pregel::Config Cfg,
                            std::unique_ptr<IRExecutor> *OutExec = nullptr);

} // namespace gm::exec

#endif // GM_EXEC_IREXECUTOR_H
