//===- pregelir/PregelIR.h - Interpretable Pregel program IR ----------------===//
///
/// \file
/// The compiler's output: a state-machine representation of a GPS/Pregel
/// program. It is a 1:1 materialization of the Java a GPS backend would
/// emit — master/vertex code per state, message type schemas, global
/// objects — but kept interpretable so the same artifact can be executed on
/// the bundled BSP runtime (for the performance experiments) and printed as
/// GPS-style Java (for the lines-of-code experiment and inspection).
///
/// Execution timing model (matches GPS; see DESIGN.md):
///  - superstep i: the master runs the *previous* state's transition code
///    (which can see global reductions from superstep i-1), picks the next
///    state, then that state's vertex code runs.
///  - messages sent in state S are consumed by OnMessage handlers of the
///    state that runs in the following superstep.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGELIR_PREGELIR_H
#define GM_PREGELIR_PREGELIR_H

#include "frontend/AST.h" // BinaryOpKind / UnaryOpKind
#include "pregel/MessageLayout.h"
#include "support/Value.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace gm::pir {

/// Target id meaning "terminate the program" in transitions and gotos.
constexpr int EndState = -1;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class PExprKind {
  Const,        ///< literal Value
  GlobalRead,   ///< global object [Index]
  PropRead,     ///< own node property [Index] (vertex context only)
  MsgField,     ///< current message payload slot [Index] (inside OnMessage)
  EdgePropRead, ///< edge property [Index] of the edge being sent along
  VertexId,     ///< own vertex id (vertex context only)
  OutDegree,    ///< own out-degree (vertex context only)
  InDegree,     ///< own in-degree (vertex context only)
  NumNodes,
  NumEdges,
  RandomNode,   ///< uniformly random node id
  Binary,
  Unary,
  Ternary,
  Cast ///< numeric conversion to Ty
};

/// One expression node. A single tagged struct keeps the interpreter and
/// the Java emitter simple.
struct PExpr {
  PExprKind K = PExprKind::Const;
  ValueKind Ty = ValueKind::Undef; ///< static result kind
  Value ConstVal;                  ///< Const
  int Index = -1;                  ///< Global/Prop/MsgField/EdgeProp index
  BinaryOpKind BinOp = BinaryOpKind::Add;
  UnaryOpKind UnOp = UnaryOpKind::Neg;
  PExpr *A = nullptr;
  PExpr *B = nullptr;
  PExpr *C = nullptr;
};

//===----------------------------------------------------------------------===//
// Vertex statements
//===----------------------------------------------------------------------===//

enum class VStmtKind {
  Assign,        ///< own prop [Index] (Reduce) = Value
  GlobalPut,     ///< Global.put(Globals[Index], Value) with its reduction
  If,            ///< if (Cond) Then else Else
  SendToOutNbrs, ///< send {Payload} tagged [Index] along every out-edge
  SendToInNbrs,  ///< same along in-edges (requires the in-nbr preamble)
  SendToNode,    ///< send {Payload} tagged [Index] to vertex id Value
  OnMessage,     ///< for each inbox message of type [Index]: run Then
  ForEachOutEdge ///< run Then once per out-edge with edge props in scope
                 ///< (local iteration: the source vertex owns its edges, so
                 ///< no communication is involved — an extension beyond the
                 ///< paper's patterns)
};

struct VStmt {
  VStmtKind K = VStmtKind::Assign;
  int Index = -1;
  ReduceKind Reduce = ReduceKind::None;
  PExpr *Cond = nullptr;
  PExpr *Value = nullptr;
  std::vector<PExpr *> Payload;
  std::vector<VStmt *> Then;
  std::vector<VStmt *> Else;
};

//===----------------------------------------------------------------------===//
// Master statements and transitions
//===----------------------------------------------------------------------===//

enum class MStmtKind {
  Set, ///< Globals[Index] = Value (master-side immediate write)
  If,  ///< if (Cond) Then else Else
  Goto ///< override the transition target with [Index] (EndState = halt)
};

struct MStmt {
  MStmtKind K = MStmtKind::Set;
  int Index = -1;
  PExpr *Cond = nullptr;
  PExpr *Value = nullptr;
  std::vector<MStmt *> Then;
  std::vector<MStmt *> Else;
};


//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

struct PropDef {
  std::string Name;
  ValueKind Ty = ValueKind::Int;
  /// True for props backing a procedure parameter (user-visible output);
  /// false for compiler-introduced temporaries. Only non-Param props are
  /// candidates for dead-slot elimination: a parameter prop is observable
  /// after the run even if the program itself never reads it.
  bool Param = false;
};

struct GlobalDef {
  std::string Name;
  ValueKind Ty = ValueKind::Int;
  /// Reduction applied to vertex-side puts (None = master-only variable).
  ReduceKind VertexReduce = ReduceKind::None;
  Value Init;
  /// True when the global backs a scalar procedure parameter: the runtime
  /// seeds it from the invocation arguments, so its value is opaque to
  /// constant propagation.
  bool Param = false;
};

struct MsgFieldDef {
  std::string Name;
  ValueKind Ty = ValueKind::Int;
};

struct MsgTypeDef {
  std::string Name;
  std::vector<MsgFieldDef> Fields;
};

struct PState {
  int Id = 0;
  std::string Name;
  std::vector<VStmt *> VertexCode; ///< empty = master-only superstep
  /// The transition program: master code run in the superstep *after* this
  /// state's vertex phase (it therefore sees this state's global
  /// reductions). It performs reduction folds and sequential Green-Marl
  /// code, and must reach an MGoto on every control path; the first MGoto
  /// executed selects the next state (EndState terminates the program).
  /// This is exactly the shape of a hand-written GPS master.compute case.
  std::vector<MStmt *> TransCode;
};

/// A complete compiled Pregel program (arena-owned nodes).
class PregelProgram {
public:
  std::string Name;
  std::vector<PropDef> NodeProps;
  std::vector<PropDef> EdgeProps;
  std::vector<GlobalDef> Globals;
  std::vector<MsgTypeDef> MsgTypes;
  std::deque<PState> States; ///< States[0] is the entry (no vertex phase); deque keeps element addresses stable while building
  bool UsesInNbrs = false;
  /// Name of the global holding the procedure's return value ("" = void).
  std::string ReturnGlobal;

  PExpr *newExpr() {
    Exprs.push_back(std::make_unique<PExpr>());
    return Exprs.back().get();
  }
  VStmt *newVStmt(VStmtKind K) {
    VStmts.push_back(std::make_unique<VStmt>());
    VStmts.back()->K = K;
    return VStmts.back().get();
  }
  MStmt *newMStmt(MStmtKind K) {
    MStmts.push_back(std::make_unique<MStmt>());
    MStmts.back()->K = K;
    return MStmts.back().get();
  }

  /// Appends a new state and returns its id. (Returns an id rather than a
  /// reference: States may reallocate on the next newState call.)
  int newState(const std::string &Name) {
    PState S;
    S.Id = static_cast<int>(States.size());
    S.Name = Name;
    States.push_back(std::move(S));
    return States.back().Id;
  }
  PState &state(int Id) {
    assert(Id >= 0 && Id < static_cast<int>(States.size()));
    return States[Id];
  }

  int addNodeProp(const std::string &Name, ValueKind Ty) {
    NodeProps.push_back({Name, Ty});
    return static_cast<int>(NodeProps.size()) - 1;
  }
  int addEdgeProp(const std::string &Name, ValueKind Ty) {
    EdgeProps.push_back({Name, Ty});
    return static_cast<int>(EdgeProps.size()) - 1;
  }
  int addGlobal(const std::string &Name, ValueKind Ty, ReduceKind Reduce,
                Value Init) {
    Globals.push_back({Name, Ty, Reduce, Init});
    return static_cast<int>(Globals.size()) - 1;
  }
  int addMsgType(const std::string &Name) {
    MsgTypes.push_back({Name, {}});
    return static_cast<int>(MsgTypes.size()) - 1;
  }

  int findGlobal(const std::string &Name) const {
    for (size_t I = 0; I < Globals.size(); ++I)
      if (Globals[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  /// Expression factory helpers.
  PExpr *constExpr(Value V);
  PExpr *globalRead(int Index);
  PExpr *propRead(int Index);
  PExpr *binary(BinaryOpKind Op, PExpr *A, PExpr *B, ValueKind Ty);

  /// Master-statement helpers.
  MStmt *makeGoto(int Target) {
    MStmt *S = newMStmt(MStmtKind::Goto);
    S->Index = Target;
    return S;
  }
  /// if (Cond) goto TrueTarget; else goto FalseTarget;
  MStmt *makeCondGoto(PExpr *Cond, int TrueTarget, int FalseTarget) {
    MStmt *S = newMStmt(MStmtKind::If);
    S->Cond = Cond;
    S->Then.push_back(makeGoto(TrueTarget));
    S->Else.push_back(makeGoto(FalseTarget));
    return S;
  }

  /// Total number of supersteps-worth of states for a quick sanity metric.
  size_t numVertexStates() const {
    size_t N = 0;
    for (const PState &S : States)
      if (!S.VertexCode.empty())
        ++N;
    return N;
  }

private:
  std::vector<std::unique_ptr<PExpr>> Exprs;
  std::vector<std::unique_ptr<VStmt>> VStmts;
  std::vector<std::unique_ptr<MStmt>> MStmts;
};

/// Renders the program as readable text (tests and --dump-ir).
std::string printProgram(const PregelProgram &P);

/// Structural validity check; returns the first problem found or "".
std::string verifyProgram(const PregelProgram &P);

/// The wire-tag convention shared by the executor and the Java backend: IR
/// message type i travels as tag i + MsgTagOffset; tag SetupMsgTag is
/// reserved for the in-neighbor setup broadcast of UsesInNbrs programs.
constexpr int32_t MsgTagOffset = 1;
constexpr int32_t SetupMsgTag = 0;

/// Derives the program's packed wire schema from its message-type table:
/// one MsgTypeLayout per MsgTypes entry (at tag index + MsgTagOffset), plus
/// the single-Int setup type at SetupMsgTag when the program reads
/// in-neighbors. Every translated program has statically known message
/// shapes, so the result is never empty for a program that sends at all.
pregel::MessageLayout deriveMessageLayout(const PregelProgram &P);

} // namespace gm::pir

#endif // GM_PREGELIR_PREGELIR_H
