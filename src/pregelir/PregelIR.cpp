//===- pregelir/PregelIR.cpp ------------------------------------------------===//

#include "pregelir/PregelIR.h"

#include "pregel/Message.h"

#include <functional>
#include <sstream>

using namespace gm;
using namespace gm::pir;

PExpr *PregelProgram::constExpr(Value V) {
  PExpr *E = newExpr();
  E->K = PExprKind::Const;
  E->ConstVal = V;
  E->Ty = V.kind();
  return E;
}

PExpr *PregelProgram::globalRead(int Index) {
  assert(Index >= 0 && Index < static_cast<int>(Globals.size()));
  PExpr *E = newExpr();
  E->K = PExprKind::GlobalRead;
  E->Index = Index;
  E->Ty = Globals[Index].Ty;
  return E;
}

PExpr *PregelProgram::propRead(int Index) {
  assert(Index >= 0 && Index < static_cast<int>(NodeProps.size()));
  PExpr *E = newExpr();
  E->K = PExprKind::PropRead;
  E->Index = Index;
  E->Ty = NodeProps[Index].Ty;
  return E;
}

PExpr *PregelProgram::binary(BinaryOpKind Op, PExpr *A, PExpr *B,
                             ValueKind Ty) {
  PExpr *E = newExpr();
  E->K = PExprKind::Binary;
  E->BinOp = Op;
  E->A = A;
  E->B = B;
  E->Ty = Ty;
  return E;
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

namespace {

class IRPrinter {
public:
  explicit IRPrinter(const PregelProgram &P) : P(P) {}

  std::string run() {
    OS << "pregel_program " << P.Name << " {\n";
    if (P.UsesInNbrs)
      OS << "  uses_in_nbrs\n";
    if (!P.ReturnGlobal.empty())
      OS << "  returns " << P.ReturnGlobal << "\n";
    for (const PropDef &D : P.NodeProps)
      OS << "  nprop " << valueKindName(D.Ty) << " " << D.Name << "\n";
    for (const PropDef &D : P.EdgeProps)
      OS << "  eprop " << valueKindName(D.Ty) << " " << D.Name << "\n";
    for (const GlobalDef &G : P.Globals) {
      OS << "  global " << valueKindName(G.Ty) << " " << G.Name;
      if (G.VertexReduce != ReduceKind::None)
        OS << " reduce=" << reduceKindName(G.VertexReduce);
      OS << " init=" << G.Init.toString() << "\n";
    }
    for (const MsgTypeDef &M : P.MsgTypes) {
      OS << "  msg " << M.Name << "(";
      for (size_t I = 0; I < M.Fields.size(); ++I) {
        if (I)
          OS << ", ";
        OS << valueKindName(M.Fields[I].Ty) << " " << M.Fields[I].Name;
      }
      OS << ")\n";
    }
    for (const PState &S : P.States)
      printState(S);
    OS << "}\n";
    return OS.str();
  }

private:
  void printState(const PState &S) {
    OS << "  state " << S.Id << " \"" << S.Name << "\" {\n";
    if (!S.VertexCode.empty()) {
      OS << "    vertex {\n";
      for (const VStmt *V : S.VertexCode)
        printVStmt(V, 6);
      OS << "    }\n";
    }
    if (!S.TransCode.empty()) {
      OS << "    master {\n";
      for (const MStmt *M : S.TransCode)
        printMStmt(M, 6);
      OS << "    }\n";
    }
    OS << "  }\n";
  }

  std::string expr(const PExpr *E) {
    if (!E)
      return "<null>";
    switch (E->K) {
    case PExprKind::Const:
      return E->ConstVal.toString();
    case PExprKind::GlobalRead:
      return "$" + P.Globals[E->Index].Name;
    case PExprKind::PropRead:
      return "this." + P.NodeProps[E->Index].Name;
    case PExprKind::MsgField:
      return "msg." + std::to_string(E->Index);
    case PExprKind::EdgePropRead:
      return "edge." + P.EdgeProps[E->Index].Name;
    case PExprKind::VertexId:
      return "this.id";
    case PExprKind::OutDegree:
      return "this.outDegree";
    case PExprKind::InDegree:
      return "this.inDegree";
    case PExprKind::NumNodes:
      return "numNodes";
    case PExprKind::NumEdges:
      return "numEdges";
    case PExprKind::RandomNode:
      return "randomNode()";
    case PExprKind::Binary:
      return "(" + expr(E->A) + " " + binaryOpSpelling(E->BinOp) + " " +
             expr(E->B) + ")";
    case PExprKind::Unary:
      return std::string(E->UnOp == UnaryOpKind::Neg ? "-" : "!") +
             expr(E->A);
    case PExprKind::Ternary:
      return "(" + expr(E->A) + " ? " + expr(E->B) + " : " + expr(E->C) + ")";
    case PExprKind::Cast:
      return std::string("(") + valueKindName(E->Ty) + ")" + expr(E->A);
    }
    gm_unreachable("invalid expr kind");
  }

  void printVStmt(const VStmt *V, unsigned Indent) {
    std::string Pad(Indent, ' ');
    switch (V->K) {
    case VStmtKind::Assign:
      OS << Pad << "this." << P.NodeProps[V->Index].Name << " "
         << (V->Reduce == ReduceKind::None
                 ? "="
                 : std::string(reduceKindName(V->Reduce)) + "=")
         << " " << expr(V->Value) << "\n";
      return;
    case VStmtKind::GlobalPut:
      OS << Pad << "put $" << P.Globals[V->Index].Name << " "
         << expr(V->Value) << "\n";
      return;
    case VStmtKind::If:
      OS << Pad << "if " << expr(V->Cond) << " {\n";
      for (const VStmt *S : V->Then)
        printVStmt(S, Indent + 2);
      if (!V->Else.empty()) {
        OS << Pad << "} else {\n";
        for (const VStmt *S : V->Else)
          printVStmt(S, Indent + 2);
      }
      OS << Pad << "}\n";
      return;
    case VStmtKind::SendToOutNbrs:
    case VStmtKind::SendToInNbrs: {
      OS << Pad
         << (V->K == VStmtKind::SendToOutNbrs ? "send_out " : "send_in ")
         << P.MsgTypes[V->Index].Name << "(";
      for (size_t I = 0; I < V->Payload.size(); ++I) {
        if (I)
          OS << ", ";
        OS << expr(V->Payload[I]);
      }
      OS << ")\n";
      return;
    }
    case VStmtKind::SendToNode: {
      OS << Pad << "send_to " << expr(V->Value) << " "
         << P.MsgTypes[V->Index].Name << "(";
      for (size_t I = 0; I < V->Payload.size(); ++I) {
        if (I)
          OS << ", ";
        OS << expr(V->Payload[I]);
      }
      OS << ")\n";
      return;
    }
    case VStmtKind::OnMessage:
      OS << Pad << "on_message " << P.MsgTypes[V->Index].Name << " {\n";
      for (const VStmt *S : V->Then)
        printVStmt(S, Indent + 2);
      OS << Pad << "}\n";
      return;
    case VStmtKind::ForEachOutEdge:
      OS << Pad << "for_each_out_edge {\n";
      for (const VStmt *S : V->Then)
        printVStmt(S, Indent + 2);
      OS << Pad << "}\n";
      return;
    }
    gm_unreachable("invalid vstmt kind");
  }

  void printMStmt(const MStmt *M, unsigned Indent) {
    std::string Pad(Indent, ' ');
    switch (M->K) {
    case MStmtKind::Set:
      OS << Pad << "$" << P.Globals[M->Index].Name << " = " << expr(M->Value)
         << "\n";
      return;
    case MStmtKind::If:
      OS << Pad << "if " << expr(M->Cond) << " {\n";
      for (const MStmt *S : M->Then)
        printMStmt(S, Indent + 2);
      if (!M->Else.empty()) {
        OS << Pad << "} else {\n";
        for (const MStmt *S : M->Else)
          printMStmt(S, Indent + 2);
      }
      OS << Pad << "}\n";
      return;
    case MStmtKind::Goto:
      OS << Pad << "goto "
         << (M->Index == EndState ? std::string("END")
                                  : std::to_string(M->Index))
         << "\n";
      return;
    }
    gm_unreachable("invalid mstmt kind");
  }

  const PregelProgram &P;
  std::ostringstream OS;
};

} // namespace

std::string pir::printProgram(const PregelProgram &P) {
  return IRPrinter(P).run();
}

// pir::verifyProgram is defined in analysis/PIRVerifier.cpp (backed by the
// strict verifier) so this library does not depend on gm_analysis.

pregel::MessageLayout pir::deriveMessageLayout(const PregelProgram &P) {
  pregel::MessageLayout L;
  if (P.UsesInNbrs)
    L.addType(SetupMsgTag, {ValueKind::Int}); // sender id broadcast
  for (size_t I = 0; I < P.MsgTypes.size(); ++I) {
    std::vector<ValueKind> Slots;
    Slots.reserve(P.MsgTypes[I].Fields.size());
    for (const MsgFieldDef &F : P.MsgTypes[I].Fields)
      Slots.push_back(F.Ty);
    L.addType(static_cast<int32_t>(I) + MsgTagOffset, std::move(Slots));
  }
  return L;
}
