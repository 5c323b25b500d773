//===- pregelir/CppCodegen.cpp ----------------------------------------------------===//
//
// PregelIR -> C++ translation. The emitted unit subclasses
// exec::CompiledProgram and mirrors exec::IRExecutor statement by
// statement: the same arithmetic widening rules (evalBinary), the same
// reduce identities (applyReduce), the same message tags, send orders,
// setup supersteps, phase labels and final-global snapshots. Where the
// interpreter decides on *runtime* value kinds, the emitter decides on the
// *static* types the strict verifier guarantees coincide with them — that
// is what makes straight-line typed code bit-identical to the boxed walk.
//
//===----------------------------------------------------------------------===//

#include "pregelir/CppCodegen.h"

#include "pregelir/CodegenEmitter.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

using namespace gm;
using namespace gm::pir;

namespace {

/// Shortest C++ literal that parses back to exactly \p V (tries increasing
/// precision until strtod round-trips, so 0.85 stays "0.85").
std::string doubleLiteral(double V) {
  if (V == std::numeric_limits<double>::infinity())
    return "std::numeric_limits<double>::infinity()";
  if (V == -std::numeric_limits<double>::infinity())
    return "(-std::numeric_limits<double>::infinity())";
  if (V != V)
    return "std::numeric_limits<double>::quiet_NaN()";
  char Buf[40];
  for (int Prec = 1; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  std::string S(Buf);
  if (S.find_first_of(".eE") == std::string::npos)
    S += ".0";
  return S;
}

std::string intLiteral(int64_t V) {
  if (V == std::numeric_limits<int64_t>::max())
    return "std::numeric_limits<int64_t>::max()"; // Green-Marl's +INF
  if (V == std::numeric_limits<int64_t>::min())
    return "std::numeric_limits<int64_t>::min()";
  return "INT64_C(" + std::to_string(V) + ")";
}

/// Escapes a name for use inside an emitted C++ string literal.
std::string escapeStr(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

const char *reduceKindSpelling(ReduceKind K) {
  switch (K) {
  case ReduceKind::None:
    return "ReduceKind::None";
  case ReduceKind::Sum:
    return "ReduceKind::Sum";
  case ReduceKind::Prod:
    return "ReduceKind::Prod";
  case ReduceKind::Min:
    return "ReduceKind::Min";
  case ReduceKind::Max:
    return "ReduceKind::Max";
  case ReduceKind::And:
    return "ReduceKind::And";
  case ReduceKind::Or:
    return "ReduceKind::Or";
  case ReduceKind::Count:
    return "ReduceKind::Count";
  }
  gm_unreachable("invalid reduce kind");
}

const char *valueKindSpelling(ValueKind K) {
  switch (K) {
  case ValueKind::Bool:
    return "ValueKind::Bool";
  case ValueKind::Int:
    return "ValueKind::Int";
  case ValueKind::Double:
    return "ValueKind::Double";
  case ValueKind::Undef:
    return "ValueKind::Undef";
  }
  gm_unreachable("invalid value kind");
}

std::string valueLiteral(const Value &V) {
  switch (V.kind()) {
  case ValueKind::Undef:
    return "Value()";
  case ValueKind::Bool:
    return V.getBool() ? "Value::makeBool(true)" : "Value::makeBool(false)";
  case ValueKind::Int:
    return "Value::makeInt(" + intLiteral(V.getInt()) + ")";
  case ValueKind::Double:
    return "Value::makeDouble(" + doubleLiteral(V.getDouble()) + ")";
  }
  gm_unreachable("invalid value kind");
}

bool usesEdgeProp(const PExpr *E) {
  if (!E)
    return false;
  if (E->K == PExprKind::EdgePropRead)
    return true;
  return usesEdgeProp(E->A) || usesEdgeProp(E->B) || usesEdgeProp(E->C);
}

bool payloadUsesEdgeProps(const std::vector<PExpr *> &Payload) {
  for (const PExpr *E : Payload)
    if (usesEdgeProp(E))
      return true;
  return false;
}

class CppEmitter : CodegenEmitter {
public:
  explicit CppEmitter(const PregelProgram &P) : P(P) {}

  std::string run() {
    header();
    line("namespace {");
    line();
    line("using namespace gm;");
    line();
    classDef();
    line();
    line("} // namespace");
    line();
    entryPoints();
    return Supported ? str() : std::string();
  }

private:
  /// Marks the program as outside the native backend's subset; emitCpp then
  /// returns "" and callers fall back to the interpreter.
  void fail(const std::string &Reason) {
    Supported = false;
    if (FailReason.empty())
      FailReason = Reason;
  }

  std::string newVar(const char *Base) {
    return Base + std::to_string(VarCounter++);
  }

  /// Emits an access label (public:/private:) at class indentation.
  void label(const std::string &L) {
    --Indent;
    line(L);
    ++Indent;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//
  //
  // expr() renders E at its own static kind (Int -> int64_t, Double ->
  // double, Bool -> bool); exprAsInt/Double/Bool insert the same
  // conversions Value::asInt/asDouble/asBool would apply at runtime.

  std::string expr(const PExpr *E) {
    if (!E)
      return "0";
    switch (E->K) {
    case PExprKind::Const: {
      const Value &V = E->ConstVal;
      switch (V.kind()) {
      case ValueKind::Bool:
        return V.getBool() ? "true" : "false";
      case ValueKind::Int:
        return intLiteral(V.getInt());
      case ValueKind::Double:
        return doubleLiteral(V.getDouble());
      case ValueKind::Undef:
        return "0";
      }
      gm_unreachable("invalid const");
    }
    case PExprKind::GlobalRead: {
      const GlobalDef &Gl = P.Globals[E->Index];
      if (InVertexCode)
        return "GC_" + sanitize(Gl.Name);
      const char *Conv = Gl.Ty == ValueKind::Bool     ? "globalAsBool"
                         : Gl.Ty == ValueKind::Double ? "globalAsDouble"
                                                      : "globalAsInt";
      return std::string("exec::") + Conv + "(Master.getGlobal(\"" +
             escapeStr(Gl.Name) + "\"))";
    }
    case PExprKind::PropRead: {
      if (!InVertexCode) {
        fail("property read outside vertex context");
        return "0";
      }
      const PropDef &D = P.NodeProps[E->Index];
      std::string Ref = "NP_" + sanitize(D.Name) + "[Ctx.id()]";
      return D.Ty == ValueKind::Bool ? "(" + Ref + " != 0)" : Ref;
    }
    case PExprKind::MsgField: {
      if (MsgStack.empty()) {
        fail("message field outside on_message");
        return "0";
      }
      const MsgTypeDef &M = *MsgStack.back().second;
      const MsgFieldDef &F = M.Fields[E->Index];
      const char *Get = F.Ty == ValueKind::Bool     ? "getBool"
                        : F.Ty == ValueKind::Double ? "getDouble"
                                                    : "getInt";
      return MsgStack.back().first + "." + Get + "(" +
             std::to_string(E->Index) + ")";
    }
    case PExprKind::EdgePropRead: {
      if (EdgeStack.empty()) {
        fail("edge property outside per-edge context");
        return "0";
      }
      const PropDef &D = P.EdgeProps[E->Index];
      std::string Ref = "EP_" + sanitize(D.Name) + "[" + EdgeStack.back() + "]";
      return D.Ty == ValueKind::Bool ? "(" + Ref + " != 0)" : Ref;
    }
    case PExprKind::VertexId:
      if (!InVertexCode) {
        fail("vertex id outside vertex context");
        return "0";
      }
      return "(int64_t)Ctx.id()";
    case PExprKind::OutDegree:
      if (!InVertexCode) {
        fail("degree outside vertex context");
        return "0";
      }
      return "(int64_t)G.outDegree(Ctx.id())";
    case PExprKind::InDegree:
      if (!InVertexCode) {
        fail("degree outside vertex context");
        return "0";
      }
      return "(int64_t)G.inDegree(Ctx.id())";
    case PExprKind::NumNodes:
      return "(int64_t)G.numNodes()";
    case PExprKind::NumEdges:
      return "(int64_t)G.numEdges()";
    case PExprKind::RandomNode:
      // Same deterministic draws as the interpreter: the master uses the
      // seeded engine RNG, vertices the shared (id, superstep) hash.
      if (InVertexCode)
        return "(int64_t)exec::vertexRandomNode(Ctx.id(), Ctx.superstep(), "
               "G.numNodes())";
      return "(int64_t)Master.pickRandomNode()";
    case PExprKind::Binary:
      return binary(E);
    case PExprKind::Unary:
      if (E->UnOp == UnaryOpKind::Not)
        return "(!" + exprAsBool(E->A) + ")";
      // Neg: result kind equals the operand's kind (evalBinary's unary rule).
      if (E->A && E->A->Ty == ValueKind::Double)
        return "(-" + expr(E->A) + ")";
      return "(-" + exprAsInt(E->A) + ")";
    case PExprKind::Ternary:
      if (!E->B || !E->C || E->B->Ty != E->C->Ty ||
          E->B->Ty == ValueKind::Undef) {
        fail("ternary branches must agree on a concrete type");
        return "0";
      }
      return "(" + exprAsBool(E->A) + " ? " + expr(E->B) + " : " +
             expr(E->C) + ")";
    case PExprKind::Cast:
      switch (E->Ty) {
      case ValueKind::Int:
        return exprAsInt(E->A);
      case ValueKind::Double:
        return exprAsDouble(E->A);
      case ValueKind::Bool:
        return exprAsBool(E->A);
      case ValueKind::Undef:
        break;
      }
      fail("cast to undef");
      return "0";
    }
    gm_unreachable("invalid expression kind");
  }

  std::string binary(const PExpr *E) {
    const char *Sym = nullptr;
    switch (E->BinOp) {
    case BinaryOpKind::And:
      return "(" + exprAsBool(E->A) + " && " + exprAsBool(E->B) + ")";
    case BinaryOpKind::Or:
      return "(" + exprAsBool(E->A) + " || " + exprAsBool(E->B) + ")";
    case BinaryOpKind::Add:
      Sym = "+";
      break;
    case BinaryOpKind::Sub:
      Sym = "-";
      break;
    case BinaryOpKind::Mul:
      Sym = "*";
      break;
    case BinaryOpKind::Div:
      // Int/Int with a Double annotation is the float-division idiom; only
      // a fully Int-typed division runs the checked integer path.
      if (E->Ty == ValueKind::Int)
        return "exec::intDiv(" + exprAsInt(E->A) + ", " + exprAsInt(E->B) +
               ")";
      return "(" + exprAsDouble(E->A) + " / " + exprAsDouble(E->B) + ")";
    case BinaryOpKind::Mod:
      return "exec::intMod(" + exprAsInt(E->A) + ", " + exprAsInt(E->B) + ")";
    case BinaryOpKind::Eq:
    case BinaryOpKind::Ne:
    case BinaryOpKind::Lt:
    case BinaryOpKind::Le:
    case BinaryOpKind::Gt:
    case BinaryOpKind::Ge: {
      const char *Cmp = E->BinOp == BinaryOpKind::Eq   ? " == "
                        : E->BinOp == BinaryOpKind::Ne ? " != "
                        : E->BinOp == BinaryOpKind::Lt ? " < "
                        : E->BinOp == BinaryOpKind::Le ? " <= "
                        : E->BinOp == BinaryOpKind::Gt ? " > "
                                                       : " >= ";
      ValueKind AT = E->A ? E->A->Ty : ValueKind::Undef;
      ValueKind BT = E->B ? E->B->Ty : ValueKind::Undef;
      // evalBinary's comparison widening, decided on static kinds.
      if (AT == ValueKind::Bool || BT == ValueKind::Bool)
        return "(" + exprAsBool(E->A) + Cmp + exprAsBool(E->B) + ")";
      if (AT == ValueKind::Double || BT == ValueKind::Double)
        return "(" + exprAsDouble(E->A) + Cmp + exprAsDouble(E->B) + ")";
      return "(" + exprAsInt(E->A) + Cmp + exprAsInt(E->B) + ")";
    }
    }
    // Add/Sub/Mul: int64 iff the expression is annotated Int (the verifier
    // guarantees both operands are then Int), else IEEE double.
    if (E->Ty == ValueKind::Int)
      return "(" + exprAsInt(E->A) + " " + Sym + " " + exprAsInt(E->B) + ")";
    if (E->Ty == ValueKind::Double)
      return "(" + exprAsDouble(E->A) + " " + Sym + " " + exprAsDouble(E->B) +
             ")";
    fail("untyped arithmetic");
    return "0";
  }

  std::string exprAsInt(const PExpr *E) {
    if (!E)
      return "0";
    if (E->Ty == ValueKind::Double)
      return "(int64_t)" + expr(E);
    if (E->Ty == ValueKind::Bool)
      return "(" + expr(E) + " ? (int64_t)1 : (int64_t)0)";
    return expr(E);
  }

  std::string exprAsDouble(const PExpr *E) {
    if (!E)
      return "0.0";
    if (E->Ty == ValueKind::Double)
      return expr(E);
    if (E->Ty == ValueKind::Bool)
      return "(" + expr(E) + " ? 1.0 : 0.0)";
    return "(double)" + expr(E);
  }

  std::string exprAsBool(const PExpr *E) {
    if (!E || E->Ty != ValueKind::Bool) {
      fail("non-bool condition");
      return "false";
    }
    return expr(E);
  }

  /// Value-boxing expression at E's static kind, for the few places that
  /// still cross a Value interface (message payloads, global puts).
  std::string valueFactoryExpr(const PExpr *E) {
    ValueKind K = E ? E->Ty : ValueKind::Undef;
    if (K == ValueKind::Undef) {
      fail("untyped value expression");
      K = ValueKind::Int;
    }
    return std::string(cppValueFactory(K)) + "(" + expr(E) + ")";
  }

  //===--------------------------------------------------------------------===//
  // Vertex statements
  //===--------------------------------------------------------------------===//

  void emitAssign(const VStmt *S) {
    const PropDef &D = P.NodeProps[S->Index];
    std::string T = "NP_" + sanitize(D.Name) + "[Ctx.id()]";
    const PExpr *V = S->Value;
    if (S->Reduce == ReduceKind::None) {
      // Column::set: convert to the column's kind.
      switch (D.Ty) {
      case ValueKind::Bool:
        line(T + " = " + exprAsBool(V) + " ? 1 : 0;");
        return;
      case ValueKind::Double:
        line(T + " = " + exprAsDouble(V) + ";");
        return;
      default:
        line(T + " = " + exprAsInt(V) + ";");
        return;
      }
    }
    ValueKind VT = V ? V->Ty : ValueKind::Undef;
    if (S->Reduce == ReduceKind::And || S->Reduce == ReduceKind::Or) {
      if (D.Ty != ValueKind::Bool || VT != ValueKind::Bool) {
        fail("boolean reduce on non-bool operands");
        return;
      }
      line(T + " = ((" + T + " != 0) " +
           (S->Reduce == ReduceKind::And ? "&&" : "||") + " " + exprAsBool(V) +
           ") ? 1 : 0;");
      return;
    }
    // Numeric reduces, applyReduce's widening rule: compute in double when
    // either side is Double, store back at the column's kind.
    if (D.Ty == ValueKind::Bool || D.Ty == ValueKind::Undef ||
        (VT != ValueKind::Int && VT != ValueKind::Double)) {
      fail("numeric reduce on unsupported kinds");
      return;
    }
    bool AsDouble = D.Ty == ValueKind::Double || VT == ValueKind::Double;
    std::string Cur = (AsDouble && D.Ty == ValueKind::Int) ? "(double)" + T : T;
    std::string Op = AsDouble ? exprAsDouble(V) : exprAsInt(V);
    std::string Combined;
    switch (S->Reduce) {
    case ReduceKind::Sum:
    case ReduceKind::Count:
      Combined = Cur + " + " + Op;
      break;
    case ReduceKind::Prod:
      Combined = Cur + " * " + Op;
      break;
    case ReduceKind::Min:
      Combined = "std::min(" + Cur + ", " + Op + ")";
      break;
    case ReduceKind::Max:
      Combined = "std::max(" + Cur + ", " + Op + ")";
      break;
    default:
      gm_unreachable("handled above");
    }
    if (AsDouble && D.Ty == ValueKind::Int)
      line(T + " = (int64_t)(" + Combined + ");");
    else
      line(T + " = " + Combined + ";");
  }

  void buildMessage(const std::string &Var, int32_t Tag,
                    const std::vector<PExpr *> &Payload) {
    line("pregel::Message " + Var + ";");
    line(Var + ".Type = " + std::to_string(Tag) + ";");
    for (const PExpr *E : Payload)
      line(Var + ".push(" + valueFactoryExpr(E) + ");");
  }

  void vstmt(const VStmt *S) {
    switch (S->K) {
    case VStmtKind::Assign:
      emitAssign(S);
      return;
    case VStmtKind::GlobalPut:
      line("Ctx.putGlobal(\"" + escapeStr(P.Globals[S->Index].Name) + "\", " +
           valueFactoryExpr(S->Value) + ");");
      return;
    case VStmtKind::If: {
      {
        Scope I(*this, "if (" + exprAsBool(S->Cond) + ")");
        for (const VStmt *C : S->Then)
          vstmt(C);
      }
      if (!S->Else.empty()) {
        Scope E(*this, "else");
        for (const VStmt *C : S->Else)
          vstmt(C);
      }
      return;
    }
    case VStmtKind::SendToOutNbrs: {
      int32_t Tag = S->Index + MsgTagOffset;
      if (!payloadUsesEdgeProps(S->Payload)) {
        Scope B(*this, "");
        std::string Var = newVar("M");
        buildMessage(Var, Tag, S->Payload);
        line("Ctx.sendToAllOutNeighbors(" + Var + ");");
        return;
      }
      // Per-edge payload: edge properties differ along each edge, so the
      // message is rebuilt per neighbor in outNeighbors order, edge ids
      // advancing in lockstep (IRExecutor's iteration order).
      Scope B(*this, "");
      std::string EVar = newVar("E");
      std::string NVar = newVar("Nbr");
      line("EdgeId " + EVar + " = G.outEdgeBegin(Ctx.id());");
      Scope L(*this, "for (NodeId " + NVar + " : G.outNeighbors(Ctx.id()))");
      EdgeStack.push_back(EVar);
      std::string Var = newVar("M");
      buildMessage(Var, Tag, S->Payload);
      EdgeStack.pop_back();
      line("Ctx.sendTo(" + NVar + ", " + Var + ");");
      line("++" + EVar + ";");
      return;
    }
    case VStmtKind::SendToInNbrs: {
      Scope B(*this, "");
      std::string Var = newVar("M");
      buildMessage(Var, S->Index + MsgTagOffset, S->Payload);
      std::string SVar = newVar("Src");
      Scope L(*this, "for (NodeId " + SVar + " : G.inNeighbors(Ctx.id()))");
      line("Ctx.sendTo(" + SVar + ", " + Var + ");");
      return;
    }
    case VStmtKind::SendToNode: {
      Scope B(*this, "");
      std::string TVar = newVar("Target");
      // Target first, payload only for real targets (NIL sends are no-ops).
      line("const int64_t " + TVar + " = " + exprAsInt(S->Value) + ";");
      Scope Guard(*this, "if (" + TVar + " >= 0)");
      std::string Var = newVar("M");
      buildMessage(Var, S->Index + MsgTagOffset, S->Payload);
      line("Ctx.sendTo((NodeId)" + TVar + ", " + Var + ");");
      return;
    }
    case VStmtKind::OnMessage: {
      const MsgTypeDef &M = P.MsgTypes[S->Index];
      std::string Var = newVar("M");
      Scope L(*this, "for (pregel::MsgRef " + Var + " : Ctx.messages())");
      {
        Scope Skip(*this, "if (" + Var + ".type() != " +
                              std::to_string(S->Index + MsgTagOffset) + ")");
        line("continue;");
      }
      MsgStack.emplace_back(Var, &M);
      for (const VStmt *C : S->Then)
        vstmt(C);
      MsgStack.pop_back();
      return;
    }
    case VStmtKind::ForEachOutEdge: {
      std::string EVar = newVar("E");
      Scope L(*this, "for (EdgeId " + EVar + " = G.outEdgeBegin(Ctx.id()), " +
                         EVar + "End = G.outEdgeEnd(Ctx.id()); " + EVar +
                         " != " + EVar + "End; ++" + EVar + ")");
      EdgeStack.push_back(EVar);
      for (const VStmt *C : S->Then)
        vstmt(C);
      EdgeStack.pop_back();
      return;
    }
    }
    gm_unreachable("invalid vertex statement");
  }

  //===--------------------------------------------------------------------===//
  // Master statements
  //===--------------------------------------------------------------------===//

  void mstmt(const MStmt *S) {
    switch (S->K) {
    case MStmtKind::Set:
      line("Master.setGlobal(\"" + escapeStr(P.Globals[S->Index].Name) +
           "\", " + valueFactoryExpr(S->Value) + ");");
      return;
    case MStmtKind::If: {
      {
        Scope I(*this, "if (" + exprAsBool(S->Cond) + ")");
        for (const MStmt *C : S->Then)
          mstmt(C);
      }
      if (!S->Else.empty()) {
        Scope E(*this, "else");
        for (const MStmt *C : S->Else)
          mstmt(C);
      }
      return;
    }
    case MStmtKind::Goto:
      // Returning implements the interpreter's "code after a goto is dead"
      // rule. EndState (-1) flows into masterCompute's finish block.
      line("return " + std::to_string(S->Index) + ";");
      return;
    }
    gm_unreachable("invalid master statement");
  }

  //===--------------------------------------------------------------------===//
  // Structure
  //===--------------------------------------------------------------------===//

  void header() {
    line("//===-- Native VertexProgram for '" + P.Name +
         "' -------------------*- C++ -*-===//");
    line("//");
    line("// Generated by the PregelIR C++ backend (gmpc --emit-cpp). "
         "DO NOT EDIT:");
    line("// regenerate with  gmpc <source>.gm --emit-cpp <this file>  "
         "(the tier-1");
    line("// codegen_golden_check test compares checked-in files against "
         "fresh output).");
    line("//");
    line("// Fingerprint: " + programFingerprint(P));
    line("//");
    line("//===-------------------------------------------------------------"
         "---------===//");
    line();
    line("#include \"exec/CompiledProgram.h\"");
    line();
    line("#include <algorithm>");
    line("#include <cassert>");
    line("#include <cstdint>");
    line("#include <limits>");
    line("#include <utility>");
    line();
  }

  void classDef() {
    line("/// Straight-line native program for '" + P.Name +
         "' (see docs/codegen.md).");
    Scope Cls(*this, "class Program final : public exec::CompiledProgram",
              "};");
    label("public:");
    line("Program(const Graph &G, exec::ExecArgs Args)");
    line("    : G(G), Args(std::move(Args)) {}");
    line();
    line("static constexpr const char *Fingerprint = \"" +
         programFingerprint(P) + "\";");
    line();
    line("const char *fingerprint() const override { return Fingerprint; }");
    line();
    messageLayoutFn();
    line();
    initFn();
    line();
    computeFn();
    for (size_t I = 0; I < P.States.size(); ++I) {
      if (P.States[I].VertexCode.empty())
        continue;
      line();
      stateFn(I);
    }
    line();
    masterComputeFn();
    for (size_t I = 0; I < P.States.size(); ++I) {
      line();
      transFn(I);
    }
    line();
    refreshGlobalsFn();
    line();
    nodeValueFn();
    line();
    label("private:");
    line("const Graph &G;");
    line("exec::ExecArgs Args;");
    for (const PropDef &D : P.NodeProps)
      line("std::vector<" + std::string(cppColumnElem(D.Ty)) + "> NP_" +
           sanitize(D.Name) + "; ///< node property '" + D.Name + "'");
    for (const PropDef &D : P.EdgeProps)
      line("std::vector<" + std::string(cppColumnElem(D.Ty)) + "> EP_" +
           sanitize(D.Name) + "; ///< edge property '" + D.Name + "'");
    for (const GlobalDef &Gl : P.Globals) {
      const char *Zero = Gl.Ty == ValueKind::Bool     ? "false"
                         : Gl.Ty == ValueKind::Double ? "0.0"
                                                      : "0";
      line(std::string(cppTypeName(Gl.Ty)) + " GC_" + sanitize(Gl.Name) +
           " = " + Zero + "; ///< superstep cache of global '" + Gl.Name +
           "'");
    }
  }

  void messageLayoutFn() {
    line("/// pir::deriveMessageLayout of the source IR, baked in.");
    Scope F(*this, "pregel::MessageLayout messageLayout() const override");
    line("pregel::MessageLayout L;");
    if (P.UsesInNbrs)
      line("L.addType(0, {ValueKind::Int}); // in-neighbor setup broadcast");
    for (size_t I = 0; I < P.MsgTypes.size(); ++I) {
      std::string Slots;
      for (const MsgFieldDef &Fd : P.MsgTypes[I].Fields) {
        if (Fd.Ty == ValueKind::Undef)
          fail("untyped message field");
        if (!Slots.empty())
          Slots += ", ";
        Slots += valueKindSpelling(Fd.Ty);
      }
      line("L.addType(" + std::to_string(I + 1) + ", {" + Slots + "}); // " +
           P.MsgTypes[I].Name);
    }
    line("return L;");
  }

  void initFn() {
    Scope F(*this, "void init(const Graph &G2, pregel::MasterContext &Master) "
                   "override");
    line("assert(&G2 == &G && \"program bound to a different graph\");");
    line("(void)G2;");
    if (P.Globals.empty())
      line("(void)Master;");
    for (const PropDef &D : P.NodeProps) {
      const char *Zero = D.Ty == ValueKind::Double ? "0.0" : "0";
      line("NP_" + sanitize(D.Name) + ".assign(G.numNodes(), " + Zero + ");");
      line("exec::loadNodeColumn(Args, \"" + escapeStr(D.Name) + "\", NP_" +
           sanitize(D.Name) + ");");
    }
    for (const PropDef &D : P.EdgeProps)
      line("exec::loadEdgeColumn(Args, \"" + escapeStr(D.Name) +
           "\", G.numEdges(), EP_" + sanitize(D.Name) + ");");
    for (const GlobalDef &Gl : P.Globals)
      line("exec::declareGlobalFromArgs(Master, Args, \"" +
           escapeStr(Gl.Name) + "\", " + reduceKindSpelling(Gl.VertexReduce) +
           ", " + valueLiteral(Gl.Init) + ");");
    line("CurState = 0;");
    line(std::string("SetupPhase = ") + (P.UsesInNbrs ? "0" : "2") + ";");
    line("Finished = false;");
    line("ReturnVal.reset();");
  }

  void computeFn() {
    Scope F(*this, "void compute(pregel::VertexContext &Ctx) override");
    if (P.UsesInNbrs) {
      {
        Scope S0(*this, "if (SetupPhase == 0)");
        line("// In-neighbor setup, step 1: broadcast own id along "
             "out-edges.");
        line("pregel::Message M;");
        line("M.Type = 0; // setup tag");
        line("M.push(Value::makeInt(Ctx.id()));");
        line("Ctx.sendToAllOutNeighbors(M);");
        line("return;");
      }
      {
        Scope S1(*this, "if (SetupPhase == 1)");
        line("return; // setup step 2: in-neighbor indexes already exist");
      }
    }
    bool AnyCode = false;
    for (const PState &S : P.States)
      AnyCode |= !S.VertexCode.empty();
    if (!AnyCode) {
      line("(void)Ctx;");
      return;
    }
    Scope Sw(*this, "switch (CurState)");
    for (size_t I = 0; I < P.States.size(); ++I) {
      if (P.States[I].VertexCode.empty())
        continue;
      line("case " + std::to_string(I) + ":");
      line("  state" + std::to_string(I) + "(Ctx);");
      line("  return;");
    }
    line("default:");
    line("  return; // states without vertex code");
  }

  void stateFn(size_t I) {
    const PState &S = P.States[I];
    line("/// Vertex phase of state s" + std::to_string(I) + " ('" + S.Name +
         "').");
    Scope F(*this, "void state" + std::to_string(I) +
                       "(pregel::VertexContext &Ctx)");
    line("(void)Ctx;");
    InVertexCode = true;
    for (const VStmt *V : S.VertexCode)
      vstmt(V);
    InVertexCode = false;
  }

  void masterComputeFn() {
    Scope F(*this,
            "void masterCompute(pregel::MasterContext &Master) override");
    if (P.UsesInNbrs) {
      line("// In-neighbor setup preamble: supersteps 0/1 broadcast and");
      line("// collect ids; the program's own state machine starts at 2.");
      {
        Scope S0(*this, "if (Master.superstep() == 0)");
        line("SetupPhase = 0;");
        line("Master.setPhaseLabel(\"in-nbr-setup-0\");");
        line("refreshGlobals(Master);");
        line("return;");
      }
      {
        Scope S1(*this, "if (Master.superstep() == 1)");
        line("SetupPhase = 1;");
        line("Master.setPhaseLabel(\"in-nbr-setup-1\");");
        line("refreshGlobals(Master);");
        line("return;");
      }
      line("SetupPhase = 2;");
    }
    line("int Target = -2;");
    {
      Scope Sw(*this, "switch (CurState)");
      for (size_t I = 0; I < P.States.size(); ++I) {
        line("case " + std::to_string(I) + ":");
        line("  Target = trans" + std::to_string(I) + "(Master);");
        line("  break;");
      }
      line("default:");
      line("  assert(false && \"invalid state\");");
      line("  break;");
    }
    {
      Scope Fin(*this, "if (Target == -1)"); // pir::EndState
      line("Finished = true;");
      if (!P.ReturnGlobal.empty())
        line("ReturnVal = Master.getGlobal(\"" + escapeStr(P.ReturnGlobal) +
             "\");");
      for (const GlobalDef &Gl : P.Globals)
        line("FinalGlobals[\"" + escapeStr(Gl.Name) +
             "\"] = Master.getGlobal(\"" + escapeStr(Gl.Name) + "\");");
      line("Master.haltAll();");
      line("refreshGlobals(Master);");
      line("return;");
    }
    line("CurState = Target;");
    line("// Trace annotation: the state whose vertex phase runs next.");
    {
      Scope Sw(*this, "switch (CurState)");
      for (size_t I = 0; I < P.States.size(); ++I) {
        line("case " + std::to_string(I) + ":");
        line("  Master.setPhaseLabel(\"s" + std::to_string(I) + ":" +
             escapeStr(P.States[I].Name) + "\");");
        line("  break;");
      }
      line("default:");
      line("  break;");
    }
    line("refreshGlobals(Master);");
  }

  void transFn(size_t I) {
    const PState &S = P.States[I];
    line("/// State transition of s" + std::to_string(I) + " ('" + S.Name +
         "'); returns the next state id, -1 for END.");
    Scope F(*this, "int trans" + std::to_string(I) +
                       "(pregel::MasterContext &Master)");
    line("(void)Master;");
    for (const MStmt *M : S.TransCode)
      mstmt(M);
    line("assert(false && \"transition did not reach a goto\");");
    line("return -1;");
  }

  void refreshGlobalsFn() {
    line("/// Re-caches every global for the next vertex phase; called at");
    line("/// each masterCompute exit exactly like the interpreter's "
         "snapshot.");
    Scope F(*this, "void refreshGlobals(pregel::MasterContext &Master)");
    if (P.Globals.empty()) {
      line("(void)Master;");
      return;
    }
    for (const GlobalDef &Gl : P.Globals) {
      const char *Conv = Gl.Ty == ValueKind::Bool     ? "globalAsBool"
                         : Gl.Ty == ValueKind::Double ? "globalAsDouble"
                                                      : "globalAsInt";
      line("GC_" + sanitize(Gl.Name) + " = exec::" + Conv +
           "(Master.getGlobal(\"" + escapeStr(Gl.Name) + "\"));");
    }
  }

  void nodeValueFn() {
    Scope F(*this, "Value nodeValue(const std::string &Prop, NodeId N) const "
                   "override");
    if (P.NodeProps.empty())
      line("(void)N;");
    for (const PropDef &D : P.NodeProps) {
      std::string Ref = "NP_" + sanitize(D.Name) + "[N]";
      std::string Boxed =
          D.Ty == ValueKind::Bool     ? "Value::makeBool(" + Ref + " != 0)"
          : D.Ty == ValueKind::Double ? "Value::makeDouble(" + Ref + ")"
                                      : "Value::makeInt(" + Ref + ")";
      Scope If(*this, "if (Prop == \"" + escapeStr(D.Name) + "\")");
      line("return " + Boxed + ";");
    }
    line("assert(false && \"unknown node property\");");
    line("return Value();");
  }

  void entryPoints() {
    std::string Sym = sanitize(P.Name);
    line("extern \"C\" gm::exec::CompiledProgram *");
    line("gm_compiled_create_" + Sym +
         "(const gm::Graph *G, gm::exec::ExecArgs *Args) {");
    line("  return new Program(*G, std::move(*Args));");
    line("}");
    line();
    line("extern \"C\" const char *gm_compiled_fingerprint_" + Sym + "() {");
    line("  return Program::Fingerprint;");
    line("}");
    line();
    line("#ifdef GM_COMPILED_SHARED_OBJECT");
    line("// Fixed-name entry points for the dlopen loader "
         "(exec::NativeModule).");
    line("// They construct the internal-linkage Program class directly: "
         "routing");
    line("// through the named symbol above would let ELF interposition "
         "resolve it");
    line("// against a same-named registry program in the host binary.");
    line("extern \"C\" gm::exec::CompiledProgram *");
    line("gm_compiled_create(const gm::Graph *G, gm::exec::ExecArgs *Args) {");
    line("  return new Program(*G, std::move(*Args));");
    line("}");
    line();
    line("extern \"C\" const char *gm_compiled_fingerprint() {");
    line("  return Program::Fingerprint;");
    line("}");
    line("#endif // GM_COMPILED_SHARED_OBJECT");
  }

  const PregelProgram &P;
  bool Supported = true;
  std::string FailReason;
  bool InVertexCode = false;
  unsigned VarCounter = 0;
  std::vector<std::pair<std::string, const MsgTypeDef *>> MsgStack;
  std::vector<std::string> EdgeStack;
};

} // namespace

std::string pir::emitCpp(const PregelProgram &P) {
  return CppEmitter(P).run();
}

std::string pir::programFingerprint(const PregelProgram &P) {
  // 64-bit FNV-1a over the deterministic IR rendering.
  std::string S = printProgram(P);
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "gm0-%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string pir::compiledFactorySymbol(const PregelProgram &P) {
  return "gm_compiled_create_" + CodegenEmitter::sanitize(P.Name);
}
