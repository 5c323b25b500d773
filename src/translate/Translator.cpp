//===- translate/Translator.cpp ------------------------------------------------===//

#include "translate/Translator.h"

#include "analysis/ReadWriteSets.h"
#include "frontend/ASTVisitor.h"

#include "pregel/Message.h"

#include <functional>
#include <limits>

using namespace gm;
using namespace gm::pir;

void Translator::error(SourceLocation Loc, const std::string &Msg) {
  Diags.error(Loc, "translation: " + Msg);
  Failed = true;
}

//===----------------------------------------------------------------------===//
// Bookkeeping
//===----------------------------------------------------------------------===//

std::string Translator::uniqueName(const std::string &Base,
                                   std::set<std::string> &Used) {
  std::string Name = Base;
  int Suffix = 2;
  while (!Used.insert(Name).second)
    Name = Base + "_" + std::to_string(Suffix++);
  return Name;
}

int Translator::globalFor(VarDecl *V) {
  auto It = GlobalIdx.find(V);
  if (It != GlobalIdx.end())
    return It->second;
  ValueKind Ty = V->type()->valueKind();
  int Idx = P->addGlobal(uniqueName(V->name(), UsedGlobalNames), Ty,
                         ReduceKind::None, Value());
  GlobalIdx[V] = Idx;
  return Idx;
}

int Translator::redGlobalFor(VarDecl *V, ReduceKind RK, ValueKind Ty) {
  auto Key = std::make_pair(V, RK);
  auto It = RedIdx.find(Key);
  if (It != RedIdx.end())
    return It->second;
  std::string Name = uniqueName(
      "_" + V->name() + "_" + reduceKindName(RK), UsedGlobalNames);
  int Idx = P->addGlobal(Name, Ty, RK, reduceIdentity(RK, Ty));
  RedIdx[Key] = Idx;
  return Idx;
}

int Translator::propFor(VarDecl *V) {
  auto It = PropIdx.find(V);
  if (It != PropIdx.end())
    return It->second;
  assert(V->type()->isNodeProp() && "not a node property");
  int Idx = P->addNodeProp(uniqueName(V->name(), UsedPropNames),
                           V->type()->element()->valueKind());
  PropIdx[V] = Idx;
  return Idx;
}

int Translator::edgePropFor(VarDecl *V) {
  auto It = EdgePropIdx.find(V);
  if (It != EdgePropIdx.end())
    return It->second;
  assert(V->type()->isEdgeProp() && "not an edge property");
  int Idx = P->addEdgeProp(V->name(), V->type()->element()->valueKind());
  EdgePropIdx[V] = Idx;
  return Idx;
}

int Translator::localPropFor(VarDecl *V, LoopCtx &LC) {
  auto It = LC.Locals.find(V);
  if (It != LC.Locals.end())
    return It->second;
  int Idx = P->addNodeProp(uniqueName("_local_" + V->name(), UsedPropNames),
                           V->type()->valueKind());
  LC.Locals[V] = Idx;
  return Idx;
}

void Translator::appendMaster(MStmt *S) {
  for (std::vector<MStmt *> *List : Pending)
    List->push_back(S);
}

void Translator::materializeState(int StateId) {
  appendMaster(P->makeGoto(StateId));
  Pending.clear();
}

Value Translator::reduceIdentity(ReduceKind RK, ValueKind Ty) {
  switch (RK) {
  case ReduceKind::Sum:
  case ReduceKind::Count:
    return Ty == ValueKind::Double ? Value::makeDouble(0.0)
                                   : Value::makeInt(0);
  case ReduceKind::Prod:
    return Ty == ValueKind::Double ? Value::makeDouble(1.0)
                                   : Value::makeInt(1);
  case ReduceKind::Min:
    return Value::makeInf(Ty);
  case ReduceKind::Max:
    return Ty == ValueKind::Double
               ? Value::makeDouble(-std::numeric_limits<double>::infinity())
               : Value::makeInt(std::numeric_limits<int64_t>::min());
  case ReduceKind::And:
    return Value::makeBool(true);
  case ReduceKind::Or:
    return Value::makeBool(false);
  case ReduceKind::None:
    break;
  }
  gm_unreachable("no identity for this reduce kind");
}

PExpr *Translator::foldExpr(ReduceKind RK, PExpr *X, PExpr *Y, ValueKind Ty) {
  switch (RK) {
  case ReduceKind::Sum:
  case ReduceKind::Count:
    return P->binary(BinaryOpKind::Add, X, Y, Ty);
  case ReduceKind::Prod:
    return P->binary(BinaryOpKind::Mul, X, Y, Ty);
  case ReduceKind::And:
    return P->binary(BinaryOpKind::And, X, Y, ValueKind::Bool);
  case ReduceKind::Or:
    return P->binary(BinaryOpKind::Or, X, Y, ValueKind::Bool);
  case ReduceKind::Min:
  case ReduceKind::Max: {
    PExpr *Cmp = P->binary(
        RK == ReduceKind::Min ? BinaryOpKind::Lt : BinaryOpKind::Gt, X, Y,
        ValueKind::Bool);
    PExpr *Sel = P->newExpr();
    Sel->K = PExprKind::Ternary;
    Sel->Ty = Ty;
    Sel->A = Cmp;
    Sel->B = X;
    Sel->C = Y;
    return Sel;
  }
  case ReduceKind::None:
    break;
  }
  gm_unreachable("no fold for this reduce kind");
}

void Translator::appendFolds(int StateId,
                             const std::vector<LoopCtx::Fold> &Folds) {
  std::set<std::pair<int, int>> Seen;
  for (const LoopCtx::Fold &F : Folds) {
    if (!Seen.insert({F.Target, F.Red}).second)
      continue;
    ValueKind Ty = P->Globals[F.Target].Ty;
    // target = target (op) red ; red = identity
    MStmt *Fold = P->newMStmt(MStmtKind::Set);
    Fold->Index = F.Target;
    Fold->Value =
        foldExpr(F.RK, P->globalRead(F.Target), P->globalRead(F.Red), Ty);
    MStmt *Reset = P->newMStmt(MStmtKind::Set);
    Reset->Index = F.Red;
    Reset->Value = P->constExpr(reduceIdentity(F.RK, P->Globals[F.Red].Ty));
    P->state(StateId).TransCode.push_back(Fold);
    P->state(StateId).TransCode.push_back(Reset);
  }
}

//===----------------------------------------------------------------------===//
// Expressions: master context
//===----------------------------------------------------------------------===//

PExpr *Translator::masterExpr(Expr *E) {
  if (!E || Failed)
    return P->constExpr(Value::makeInt(0));
  ValueKind Ty = E->type() ? E->type()->valueKind() : ValueKind::Int;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return P->constExpr(Ty == ValueKind::Double
                            ? Value::makeDouble(static_cast<double>(
                                  cast<IntLiteralExpr>(E)->value()))
                            : Value::makeInt(cast<IntLiteralExpr>(E)->value()));
  case Expr::Kind::FloatLiteral:
    return P->constExpr(Value::makeDouble(cast<FloatLiteralExpr>(E)->value()));
  case Expr::Kind::BoolLiteral:
    return P->constExpr(Value::makeBool(cast<BoolLiteralExpr>(E)->value()));
  case Expr::Kind::InfLiteral:
    return P->constExpr(Value::makeInf(Ty));
  case Expr::Kind::NilLiteral:
    return P->constExpr(Value::makeInt(-1));
  case Expr::Kind::VarRef:
    return P->globalRead(globalFor(cast<VarRefExpr>(E)->decl()));
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return P->binary(B->op(), masterExpr(B->lhs()), masterExpr(B->rhs()), Ty);
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Unary;
    R->UnOp = U->op();
    R->A = masterExpr(U->operand());
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Ternary;
    R->A = masterExpr(T->cond());
    R->B = masterExpr(T->thenExpr());
    R->C = masterExpr(T->elseExpr());
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Cast: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::Cast;
    R->A = masterExpr(cast<CastExpr>(E)->operand());
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::BuiltinCall: {
    auto *C = cast<BuiltinCallExpr>(E);
    PExpr *R = P->newExpr();
    R->Ty = ValueKind::Int;
    switch (C->builtin()) {
    case BuiltinKind::NumNodes:
      R->K = PExprKind::NumNodes;
      return R;
    case BuiltinKind::NumEdges:
      R->K = PExprKind::NumEdges;
      return R;
    case BuiltinKind::PickRandom:
      R->K = PExprKind::RandomNode;
      return R;
    default:
      error(E->location(), "node builtin in sequential phase");
      return P->constExpr(Value::makeInt(0));
    }
  }
  case Expr::Kind::PropAccess:
  case Expr::Kind::Reduction:
    error(E->location(), "non-sequential expression in sequential phase");
    return P->constExpr(Value::makeInt(0));
  }
  gm_unreachable("invalid expression kind");
}

//===----------------------------------------------------------------------===//
// Expressions: vertex context
//===----------------------------------------------------------------------===//

PExpr *Translator::vertexExpr(Expr *E, LoopCtx &LC) {
  if (!E || Failed)
    return P->constExpr(Value::makeInt(0));
  ValueKind Ty = E->type() ? E->type()->valueKind() : ValueKind::Int;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::FloatLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::InfLiteral:
  case Expr::Kind::NilLiteral:
    return masterExpr(E); // literals translate identically
  case Expr::Kind::VarRef: {
    VarDecl *V = cast<VarRefExpr>(E)->decl();
    if (V == LC.Outer) {
      PExpr *R = P->newExpr();
      R->K = PExprKind::VertexId;
      R->Ty = ValueKind::Int;
      return R;
    }
    auto It = LC.Locals.find(V);
    if (It != LC.Locals.end())
      return P->propRead(It->second);
    return P->globalRead(globalFor(V));
  }
  case Expr::Kind::PropAccess: {
    auto *PA = cast<PropAccessExpr>(E);
    if (PA->baseVar() != LC.Outer) {
      error(E->location(), "remote property read at vertex scope");
      return P->constExpr(Value::makeInt(0));
    }
    return P->propRead(propFor(PA->prop()));
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return P->binary(B->op(), vertexExpr(B->lhs(), LC),
                     vertexExpr(B->rhs(), LC), Ty);
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Unary;
    R->UnOp = U->op();
    R->A = vertexExpr(U->operand(), LC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Ternary;
    R->A = vertexExpr(T->cond(), LC);
    R->B = vertexExpr(T->thenExpr(), LC);
    R->C = vertexExpr(T->elseExpr(), LC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Cast: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::Cast;
    R->A = vertexExpr(cast<CastExpr>(E)->operand(), LC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::BuiltinCall: {
    auto *C = cast<BuiltinCallExpr>(E);
    PExpr *R = P->newExpr();
    R->Ty = ValueKind::Int;
    switch (C->builtin()) {
    case BuiltinKind::NumNodes:
      R->K = PExprKind::NumNodes;
      return R;
    case BuiltinKind::NumEdges:
      R->K = PExprKind::NumEdges;
      return R;
    case BuiltinKind::PickRandom:
      R->K = PExprKind::RandomNode;
      return R;
    case BuiltinKind::Degree:
    case BuiltinKind::OutDegree:
      R->K = PExprKind::OutDegree;
      return R;
    case BuiltinKind::InDegree:
      R->K = PExprKind::InDegree;
      return R;
    case BuiltinKind::ToEdge:
      error(E->location(), "bare ToEdge at vertex scope");
      return P->constExpr(Value::makeInt(0));
    }
    gm_unreachable("invalid builtin");
  }
  case Expr::Kind::Reduction:
    error(E->location(), "reduction must be lowered before translation");
    return P->constExpr(Value::makeInt(0));
  }
  gm_unreachable("invalid expression kind");
}

//===----------------------------------------------------------------------===//
// Payload inference (§3.1: dataflow over the nested loop)
//===----------------------------------------------------------------------===//

/// If \p E is an edge-property access bound to iterator \p Inner, returns
/// the accessed property; null otherwise. Recognizes both `e.len` with
/// `Edge e = t.ToEdge();` and direct `t.ToEdge().len`.
static VarDecl *asEdgePropAccess(
    const Expr *E, VarDecl *Inner,
    const std::unordered_map<VarDecl *, VarDecl *> &EdgeBindings) {
  const auto *PA = dyn_cast<PropAccessExpr>(E);
  if (!PA || !PA->prop()->type()->isEdgeProp())
    return nullptr;
  if (VarDecl *Base = PA->baseVar()) {
    auto It = EdgeBindings.find(Base);
    if (It != EdgeBindings.end() && It->second == Inner)
      return PA->prop();
    return nullptr;
  }
  if (const auto *Call = dyn_cast<BuiltinCallExpr>(PA->base()))
    if (Call->builtin() == BuiltinKind::ToEdge)
      if (const auto *Ref = dyn_cast<VarRefExpr>(Call->base()))
        if (Ref->decl() == Inner)
          return PA->prop();
  return nullptr;
}

bool Translator::needsPayload(Expr *E, LoopCtx &LC, VarDecl *Inner) {
  if (!E)
    return false;
  if (asEdgePropAccess(E, Inner, EdgeBindings))
    return true;
  switch (E->kind()) {
  case Expr::Kind::PropAccess:
    return cast<PropAccessExpr>(E)->baseVar() == LC.Outer;
  case Expr::Kind::VarRef: {
    VarDecl *V = cast<VarRefExpr>(E)->decl();
    return V == LC.Outer || LC.Locals.count(V) != 0;
  }
  case Expr::Kind::BuiltinCall: {
    auto *Ref = dyn_cast<VarRefExpr>(cast<BuiltinCallExpr>(E)->base());
    return Ref && Ref->decl() == LC.Outer;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return needsPayload(B->lhs(), LC, Inner) ||
           needsPayload(B->rhs(), LC, Inner);
  }
  case Expr::Kind::Unary:
    return needsPayload(cast<UnaryExpr>(E)->operand(), LC, Inner);
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    return needsPayload(T->cond(), LC, Inner) ||
           needsPayload(T->thenExpr(), LC, Inner) ||
           needsPayload(T->elseExpr(), LC, Inner);
  }
  case Expr::Kind::Cast:
    return needsPayload(cast<CastExpr>(E)->operand(), LC, Inner);
  default:
    return false;
  }
}

bool Translator::classifyPayload(Expr *E, LoopCtx &LC, VarDecl *Inner,
                                 PayloadKey &Key) {
  if (!E || referencesInner(E, Inner) || !needsPayload(E, LC, Inner))
    return false;
  if (VarDecl *EdgeProp = asEdgePropAccess(E, Inner, EdgeBindings)) {
    Key = {PayloadKey::Kind::EdgeProp, EdgeProp, BuiltinKind::Degree, nullptr};
    logFeature(feature::EdgeProperty);
    return true;
  }
  switch (E->kind()) {
  case Expr::Kind::PropAccess:
    Key = {PayloadKey::Kind::OuterProp, cast<PropAccessExpr>(E)->prop(),
           BuiltinKind::Degree, nullptr};
    return true;
  case Expr::Kind::VarRef: {
    VarDecl *V = cast<VarRefExpr>(E)->decl();
    if (V == LC.Outer)
      Key = {PayloadKey::Kind::OuterId, nullptr, BuiltinKind::Degree, nullptr};
    else
      Key = {PayloadKey::Kind::LocalScalar, V, BuiltinKind::Degree, nullptr};
    return true;
  }
  case Expr::Kind::BuiltinCall:
    Key = {PayloadKey::Kind::OuterBuiltin, nullptr,
           cast<BuiltinCallExpr>(E)->builtin(), nullptr};
    return true;
  default:
    // A composite sender-computable expression travels precomputed.
    Key = {PayloadKey::Kind::Subexpr, nullptr, BuiltinKind::Degree, E};
    // Edge-property feature may hide inside the subexpression.
    if (containsEdgeProp(E, Inner))
      logFeature(feature::EdgeProperty);
    return true;
  }
}

bool Translator::containsEdgeProp(Expr *E, VarDecl *Inner) {
  if (!E)
    return false;
  if (asEdgePropAccess(E, Inner, EdgeBindings))
    return true;
  switch (E->kind()) {
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return containsEdgeProp(B->lhs(), Inner) ||
           containsEdgeProp(B->rhs(), Inner);
  }
  case Expr::Kind::Unary:
    return containsEdgeProp(cast<UnaryExpr>(E)->operand(), Inner);
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    return containsEdgeProp(T->cond(), Inner) ||
           containsEdgeProp(T->thenExpr(), Inner) ||
           containsEdgeProp(T->elseExpr(), Inner);
  }
  case Expr::Kind::Cast:
    return containsEdgeProp(cast<CastExpr>(E)->operand(), Inner);
  default:
    return false;
  }
}

void Translator::collectPayload(Expr *E, LoopCtx &LC, VarDecl *Inner,
                                std::set<PayloadKey> &Out) {
  if (!E)
    return;
  PayloadKey Key;
  if (classifyPayload(E, LC, Inner, Key)) {
    Out.insert(Key);
    return;
  }
  switch (E->kind()) {
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    collectPayload(B->lhs(), LC, Inner, Out);
    collectPayload(B->rhs(), LC, Inner, Out);
    return;
  }
  case Expr::Kind::Unary:
    collectPayload(cast<UnaryExpr>(E)->operand(), LC, Inner, Out);
    return;
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    collectPayload(T->cond(), LC, Inner, Out);
    collectPayload(T->thenExpr(), LC, Inner, Out);
    collectPayload(T->elseExpr(), LC, Inner, Out);
    return;
  }
  case Expr::Kind::Cast:
    collectPayload(cast<CastExpr>(E)->operand(), LC, Inner, Out);
    return;
  default:
    return;
  }
}

bool Translator::referencesInner(Expr *E, VarDecl *Inner) {
  if (!E)
    return false;
  // Edge properties are sender-side data (the source vertex owns its
  // out-edges), even though their access path mentions the inner iterator.
  if (asEdgePropAccess(E, Inner, EdgeBindings))
    return false;
  switch (E->kind()) {
  case Expr::Kind::VarRef:
    return cast<VarRefExpr>(E)->decl() == Inner;
  case Expr::Kind::PropAccess:
    return cast<PropAccessExpr>(E)->baseVar() == Inner;
  case Expr::Kind::BuiltinCall: {
    auto *Ref = dyn_cast<VarRefExpr>(cast<BuiltinCallExpr>(E)->base());
    return Ref && Ref->decl() == Inner;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return referencesInner(B->lhs(), Inner) || referencesInner(B->rhs(), Inner);
  }
  case Expr::Kind::Unary:
    return referencesInner(cast<UnaryExpr>(E)->operand(), Inner);
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    return referencesInner(T->cond(), Inner) ||
           referencesInner(T->thenExpr(), Inner) ||
           referencesInner(T->elseExpr(), Inner);
  }
  case Expr::Kind::Cast:
    return referencesInner(cast<CastExpr>(E)->operand(), Inner);
  default:
    return false;
  }
}

PExpr *Translator::payloadSenderExpr(const PayloadKey &Key, LoopCtx &LC) {
  switch (Key.K) {
  case PayloadKey::Kind::OuterProp:
    return P->propRead(propFor(Key.V));
  case PayloadKey::Kind::LocalScalar:
    return P->propRead(localPropFor(Key.V, LC));
  case PayloadKey::Kind::OuterId: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::VertexId;
    R->Ty = ValueKind::Int;
    return R;
  }
  case PayloadKey::Kind::OuterBuiltin: {
    PExpr *R = P->newExpr();
    R->K = Key.BK == BuiltinKind::InDegree ? PExprKind::InDegree
                                           : PExprKind::OutDegree;
    R->Ty = ValueKind::Int;
    return R;
  }
  case PayloadKey::Kind::EdgeProp: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::EdgePropRead;
    R->Index = edgePropFor(Key.V);
    R->Ty = Key.V->type()->element()->valueKind();
    return R;
  }
  case PayloadKey::Kind::Subexpr:
    // Evaluated at the sender; edge properties inside stay per-edge reads.
    return senderSubexpr(Key.E, LC);
  }
  gm_unreachable("invalid payload key");
}

/// Like vertexExpr but additionally resolves edge-property reads (legal in
/// a per-edge send payload).
pir::PExpr *Translator::senderSubexpr(Expr *E, LoopCtx &LC) {
  if (!E || Failed)
    return P->constExpr(Value::makeInt(0));
  // Edge property bound to any iterator: resolved as a per-edge read.
  if (auto *PA = dyn_cast<PropAccessExpr>(E)) {
    if (PA->prop()->type()->isEdgeProp()) {
      PExpr *R = P->newExpr();
      R->K = PExprKind::EdgePropRead;
      R->Index = edgePropFor(PA->prop());
      R->Ty = PA->prop()->type()->element()->valueKind();
      return R;
    }
  }
  ValueKind Ty = E->type() ? E->type()->valueKind() : ValueKind::Int;
  switch (E->kind()) {
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return P->binary(B->op(), senderSubexpr(B->lhs(), LC),
                     senderSubexpr(B->rhs(), LC), Ty);
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Unary;
    R->UnOp = U->op();
    R->A = senderSubexpr(U->operand(), LC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Ternary;
    R->A = senderSubexpr(T->cond(), LC);
    R->B = senderSubexpr(T->thenExpr(), LC);
    R->C = senderSubexpr(T->elseExpr(), LC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Cast: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::Cast;
    R->A = senderSubexpr(cast<CastExpr>(E)->operand(), LC);
    R->Ty = Ty;
    return R;
  }
  default:
    return vertexExpr(E, LC);
  }
}

//===----------------------------------------------------------------------===//
// Expressions: receiver context
//===----------------------------------------------------------------------===//

PExpr *Translator::receiverExpr(Expr *E, MsgCtx &MC) {
  if (!E || Failed)
    return P->constExpr(Value::makeInt(0));
  LoopCtx &LC = *MC.LC;
  ValueKind Ty = E->type() ? E->type()->valueKind() : ValueKind::Int;

  auto MsgField = [&](const PayloadKey &Key, ValueKind FieldTy) -> PExpr * {
    auto It = MC.Slots.find(Key);
    assert(It != MC.Slots.end() && "payload slot not inferred");
    PExpr *R = P->newExpr();
    R->K = PExprKind::MsgField;
    R->Index = It->second;
    R->Ty = FieldTy;
    return R;
  };

  // Whole-expression payload fields (simple accesses and precomputed
  // sender-side subexpressions) are read straight from the message.
  PayloadKey Key;
  if (classifyPayload(E, LC, MC.Inner, Key)) {
    ValueKind FieldTy = Ty;
    switch (Key.K) {
    case PayloadKey::Kind::OuterProp:
      FieldTy = Key.V->type()->element()->valueKind();
      break;
    case PayloadKey::Kind::LocalScalar:
      FieldTy = Key.V->type()->valueKind();
      break;
    case PayloadKey::Kind::EdgeProp:
      FieldTy = Key.V->type()->element()->valueKind();
      break;
    case PayloadKey::Kind::OuterId:
    case PayloadKey::Kind::OuterBuiltin:
      FieldTy = ValueKind::Int;
      break;
    case PayloadKey::Kind::Subexpr:
      FieldTy = Ty;
      break;
    }
    return MsgField(Key, FieldTy);
  }

  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::FloatLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::InfLiteral:
  case Expr::Kind::NilLiteral:
    return masterExpr(E);
  case Expr::Kind::VarRef: {
    VarDecl *V = cast<VarRefExpr>(E)->decl();
    if (V == LC.Outer)
      return MsgField({PayloadKey::Kind::OuterId, nullptr, BuiltinKind::Degree},
                      ValueKind::Int);
    if (V == MC.Inner) {
      PExpr *R = P->newExpr();
      R->K = PExprKind::VertexId;
      R->Ty = ValueKind::Int;
      return R;
    }
    if (LC.Locals.count(V))
      return MsgField({PayloadKey::Kind::LocalScalar, V, BuiltinKind::Degree},
                      V->type()->valueKind());
    return P->globalRead(globalFor(V));
  }
  case Expr::Kind::PropAccess: {
    auto *PA = cast<PropAccessExpr>(E);
    if (PA->baseVar() == MC.Inner)
      return P->propRead(propFor(PA->prop()));
    if (PA->baseVar() == LC.Outer)
      return MsgField({PayloadKey::Kind::OuterProp, PA->prop(),
                       BuiltinKind::Degree},
                      PA->prop()->type()->element()->valueKind());
    error(E->location(), "property of a third vertex in a neighborhood loop");
    return P->constExpr(Value::makeInt(0));
  }
  case Expr::Kind::BuiltinCall: {
    auto *C = cast<BuiltinCallExpr>(E);
    auto *Ref = dyn_cast<VarRefExpr>(C->base());
    if (Ref && Ref->decl() == LC.Outer)
      return MsgField({PayloadKey::Kind::OuterBuiltin, nullptr, C->builtin()},
                      ValueKind::Int);
    if (Ref && Ref->decl() == MC.Inner) {
      PExpr *R = P->newExpr();
      R->K = C->builtin() == BuiltinKind::InDegree ? PExprKind::InDegree
                                                   : PExprKind::OutDegree;
      R->Ty = ValueKind::Int;
      return R;
    }
    if (C->builtin() == BuiltinKind::NumNodes ||
        C->builtin() == BuiltinKind::NumEdges) {
      PExpr *R = P->newExpr();
      R->K = C->builtin() == BuiltinKind::NumNodes ? PExprKind::NumNodes
                                                   : PExprKind::NumEdges;
      R->Ty = ValueKind::Int;
      return R;
    }
    error(E->location(), "unsupported builtin in a neighborhood loop");
    return P->constExpr(Value::makeInt(0));
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    return P->binary(B->op(), receiverExpr(B->lhs(), MC),
                     receiverExpr(B->rhs(), MC), Ty);
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Unary;
    R->UnOp = U->op();
    R->A = receiverExpr(U->operand(), MC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Ternary: {
    auto *T = cast<TernaryExpr>(E);
    PExpr *R = P->newExpr();
    R->K = PExprKind::Ternary;
    R->A = receiverExpr(T->cond(), MC);
    R->B = receiverExpr(T->thenExpr(), MC);
    R->C = receiverExpr(T->elseExpr(), MC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Cast: {
    PExpr *R = P->newExpr();
    R->K = PExprKind::Cast;
    R->A = receiverExpr(cast<CastExpr>(E)->operand(), MC);
    R->Ty = Ty;
    return R;
  }
  case Expr::Kind::Reduction:
    error(E->location(), "reduction must be lowered before translation");
    return P->constExpr(Value::makeInt(0));
  }
  gm_unreachable("invalid expression kind");
}

//===----------------------------------------------------------------------===//
// Vertex statements
//===----------------------------------------------------------------------===//

/// Splits a boolean expression into its top-level conjuncts.
static void splitConjuncts(Expr *E, std::vector<Expr *> &Out) {
  if (auto *B = dyn_cast<BinaryExpr>(E)) {
    if (B->op() == BinaryOpKind::And) {
      splitConjuncts(B->lhs(), Out);
      splitConjuncts(B->rhs(), Out);
      return;
    }
  }
  Out.push_back(E);
}

/// Extension: a nested loop that only touches sender-local data is emitted
/// as an in-place iteration over the vertex's own out-edges — no messages.
void Translator::translateLocalEdgeLoop(ForeachStmt *F, LoopCtx &LC,
                                        std::vector<VStmt *> &Out) {
  logFeature(feature::LocalEdgeIteration);
  std::function<void(Stmt *, std::vector<VStmt *> &)> Emit =
      [&](Stmt *S, std::vector<VStmt *> &Sink) {
        if (!S || Failed)
          return;
        switch (S->kind()) {
        case Stmt::Kind::Block:
          for (Stmt *C : cast<BlockStmt>(S)->statements())
            Emit(C, Sink);
          return;
        case Stmt::Kind::Decl:
          return; // edge binding
        case Stmt::Kind::Assign: {
          auto *A = cast<AssignStmt>(S);
          if (auto *PA = dyn_cast<PropAccessExpr>(A->target())) {
            VStmt *W = P->newVStmt(VStmtKind::Assign);
            W->Index = propFor(PA->prop());
            W->Reduce = A->reduce();
            W->Value = senderSubexpr(A->value(), LC);
            Sink.push_back(W);
            return;
          }
          auto *Ref = cast<VarRefExpr>(A->target());
          VarDecl *V = Ref->decl();
          ValueKind Ty = V->type()->valueKind();
          int Red = redGlobalFor(V, A->reduce(), Ty);
          VStmt *PutStmt = P->newVStmt(VStmtKind::GlobalPut);
          PutStmt->Index = Red;
          PutStmt->Value = senderSubexpr(A->value(), LC);
          Sink.push_back(PutStmt);
          LC.SenderFolds.push_back({globalFor(V), Red, A->reduce()});
          return;
        }
        case Stmt::Kind::If: {
          auto *I = cast<IfStmt>(S);
          VStmt *W = P->newVStmt(VStmtKind::If);
          W->Cond = senderSubexpr(I->cond(), LC);
          Emit(I->thenStmt(), W->Then);
          Emit(I->elseStmt(), W->Else);
          Sink.push_back(W);
          return;
        }
        default:
          error(S->location(), "unsupported statement in a local edge loop");
          return;
        }
      };

  VStmt *Loop = P->newVStmt(VStmtKind::ForEachOutEdge);
  std::vector<VStmt *> Body;
  Emit(F->body(), Body);
  if (F->filter()) {
    VStmt *Guard = P->newVStmt(VStmtKind::If);
    Guard->Cond = senderSubexpr(F->filter(), LC);
    Guard->Then = std::move(Body);
    Body = {Guard};
  }
  Loop->Then = std::move(Body);
  Out.push_back(Loop);
}

void Translator::translateInnerLoop(ForeachStmt *F, LoopCtx &LC,
                                    std::vector<VStmt *> &Out) {
  if (isLocalEdgeLoop(F, LC.Outer, EdgeBindings)) {
    translateLocalEdgeLoop(F, LC, Out);
    return;
  }
  VarDecl *Inner = F->iterator();
  bool OutDirection = F->source().K == IterSource::Kind::OutNbrs;
  if (!OutDirection) {
    assert(F->source().K == IterSource::Kind::InNbrs &&
           "canonical inner loops iterate Nbrs or InNbrs");
    P->UsesInNbrs = true;
    logFeature(feature::IncomingNeighbors);
  }

  // Split the filter into sender-evaluable and receiver-evaluated parts.
  std::vector<Expr *> SenderConds, ReceiverConds;
  if (F->filter()) {
    std::vector<Expr *> Conjuncts;
    splitConjuncts(F->filter(), Conjuncts);
    // Edge-property conjuncts also evaluate at the receiver (guarded sends
    // cannot vary per edge).
    for (Expr *C : Conjuncts)
      (referencesInner(C, Inner) || containsEdgeProp(C, Inner)
           ? ReceiverConds
           : SenderConds)
          .push_back(C);
  }

  // Infer the payload from everything the receiver must evaluate.
  std::set<PayloadKey> Keys;
  for (Expr *C : ReceiverConds)
    collectPayload(C, LC, Inner, Keys);

  // Also scan the loop body (statements) for sender-side values.
  std::function<void(Stmt *)> ScanStmt = [&](Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Block:
      for (Stmt *Child : cast<BlockStmt>(S)->statements())
        ScanStmt(Child);
      return;
    case Stmt::Kind::Assign:
      collectPayload(cast<AssignStmt>(S)->value(), LC, Inner, Keys);
      return;
    case Stmt::Kind::If: {
      auto *I = cast<IfStmt>(S);
      collectPayload(I->cond(), LC, Inner, Keys);
      ScanStmt(I->thenStmt());
      ScanStmt(I->elseStmt());
      return;
    }
    case Stmt::Kind::Decl:
      return; // edge bindings carry no payload themselves
    default:
      error(S->location(), "unsupported statement in a neighborhood loop");
      return;
    }
  };
  ScanStmt(F->body());

  if (Failed)
    return;

  // Message type and slot assignment.
  int Msg = P->addMsgType("m" + std::to_string(P->MsgTypes.size()) + "_" +
                          LC.Outer->name() + "_to_" + Inner->name());
  MsgCtx MC;
  MC.LC = &LC;
  MC.Inner = Inner;
  std::vector<PExpr *> Payload;
  for (const PayloadKey &Key : Keys) {
    int Slot = static_cast<int>(P->MsgTypes[Msg].Fields.size());
    std::string FieldName;
    switch (Key.K) {
    case PayloadKey::Kind::OuterProp:
    case PayloadKey::Kind::LocalScalar:
    case PayloadKey::Kind::EdgeProp:
      FieldName = Key.V->name();
      break;
    case PayloadKey::Kind::OuterId:
      FieldName = "src_id";
      break;
    case PayloadKey::Kind::OuterBuiltin:
      FieldName = "src_degree";
      break;
    case PayloadKey::Kind::Subexpr:
      FieldName = "val" + std::to_string(Slot);
      break;
    }
    PExpr *Sender = payloadSenderExpr(Key, LC);
    if (Sender->Ty == ValueKind::Undef) {
      // Every field must carry a concrete scalar kind: the message class
      // has a fixed wire layout (§4.3) and the runtime packs records off it.
      error(F->location(), "message field '" + FieldName +
                               "' has no concrete scalar type");
      return;
    }
    P->MsgTypes[Msg].Fields.push_back({FieldName, Sender->Ty});
    MC.Slots[Key] = Slot;
    Payload.push_back(Sender);
  }
  if (P->MsgTypes[Msg].Fields.size() > gm::pregel::MaxMessagePayload) {
    error(F->location(), "message payload exceeds " +
                             std::to_string(gm::pregel::MaxMessagePayload) +
                             " fields");
    return;
  }

  // Sender side: (guarded) send.
  VStmt *Send = P->newVStmt(OutDirection ? VStmtKind::SendToOutNbrs
                                         : VStmtKind::SendToInNbrs);
  Send->Index = Msg;
  Send->Payload = std::move(Payload);
  if (SenderConds.empty()) {
    Out.push_back(Send);
  } else {
    PExpr *Guard = nullptr;
    for (Expr *C : SenderConds) {
      PExpr *Part = vertexExpr(C, LC);
      Guard = Guard ? P->binary(BinaryOpKind::And, Guard, Part, ValueKind::Bool)
                    : Part;
    }
    VStmt *IfStmt = P->newVStmt(VStmtKind::If);
    IfStmt->Cond = Guard;
    IfStmt->Then.push_back(Send);
    Out.push_back(IfStmt);
  }

  // Receiver side: translate the inner statements against the message.
  std::vector<VStmt *> Handler;
  std::function<void(Stmt *, std::vector<VStmt *> &)> EmitRecv =
      [&](Stmt *S, std::vector<VStmt *> &Sink) {
        if (!S || Failed)
          return;
        switch (S->kind()) {
        case Stmt::Kind::Block:
          for (Stmt *Child : cast<BlockStmt>(S)->statements())
            EmitRecv(Child, Sink);
          return;
        case Stmt::Kind::Decl:
          return; // edge binding
        case Stmt::Kind::Assign: {
          auto *A = cast<AssignStmt>(S);
          if (auto *PA = dyn_cast<PropAccessExpr>(A->target())) {
            assert(PA->baseVar() == Inner &&
                   "canonical inner writes target the inner iterator");
            VStmt *W = P->newVStmt(VStmtKind::Assign);
            W->Index = propFor(PA->prop());
            W->Reduce = A->reduce();
            W->Value = receiverExpr(A->value(), MC);
            Sink.push_back(W);
            return;
          }
          auto *Ref = cast<VarRefExpr>(A->target());
          VarDecl *V = Ref->decl();
          assert(A->reduce() != ReduceKind::None &&
                 "canonical scalar writes in inner loops reduce");
          ValueKind Ty = V->type()->valueKind();
          int Red = redGlobalFor(V, A->reduce(), Ty);
          VStmt *PutStmt = P->newVStmt(VStmtKind::GlobalPut);
          PutStmt->Index = Red;
          PutStmt->Value = receiverExpr(A->value(), MC);
          Sink.push_back(PutStmt);
          LC.ReceiverFolds.push_back({globalFor(V), Red, A->reduce()});
          return;
        }
        case Stmt::Kind::If: {
          auto *I = cast<IfStmt>(S);
          VStmt *W = P->newVStmt(VStmtKind::If);
          W->Cond = receiverExpr(I->cond(), MC);
          EmitRecv(I->thenStmt(), W->Then);
          EmitRecv(I->elseStmt(), W->Else);
          Sink.push_back(W);
          return;
        }
        default:
          error(S->location(), "unsupported statement in a neighborhood "
                               "loop");
          return;
        }
      };

  std::vector<VStmt *> HandlerBody;
  EmitRecv(F->body(), HandlerBody);
  if (!ReceiverConds.empty()) {
    PExpr *Guard = nullptr;
    for (Expr *C : ReceiverConds) {
      PExpr *Part = receiverExpr(C, MC);
      Guard = Guard ? P->binary(BinaryOpKind::And, Guard, Part, ValueKind::Bool)
                    : Part;
    }
    VStmt *IfStmt = P->newVStmt(VStmtKind::If);
    IfStmt->Cond = Guard;
    IfStmt->Then = std::move(HandlerBody);
    HandlerBody = {IfStmt};
  }
  VStmt *On = P->newVStmt(VStmtKind::OnMessage);
  On->Index = Msg;
  On->Then = std::move(HandlerBody);
  LC.Receives.push_back(On);
}

void Translator::translateRandomWrite(AssignStmt *A, LoopCtx &LC,
                                      std::vector<VStmt *> &Out) {
  logFeature(feature::RandomWriting);
  auto *PA = cast<PropAccessExpr>(A->target());

  int Msg = P->addMsgType("m" + std::to_string(P->MsgTypes.size()) + "_rw_" +
                          PA->prop()->name());
  PExpr *Payload = vertexExpr(A->value(), LC);
  if (Payload->Ty == ValueKind::Undef) {
    error(A->location(), "random-write message field '" +
                             PA->prop()->name() +
                             "' has no concrete scalar type");
    return;
  }
  P->MsgTypes[Msg].Fields.push_back({PA->prop()->name(), Payload->Ty});

  VStmt *Send = P->newVStmt(VStmtKind::SendToNode);
  Send->Index = Msg;
  // The target expression is the node variable itself (a loop-local node
  // property or a broadcast Node scalar).
  auto *Ref = dyn_cast<VarRefExpr>(PA->base());
  assert(Ref && Ref->decl() == PA->baseVar() &&
         "random write base must be a variable");
  Send->Value = vertexExpr(Ref, LC);
  Send->Payload.push_back(Payload);
  Out.push_back(Send);

  VStmt *W = P->newVStmt(VStmtKind::Assign);
  W->Index = propFor(PA->prop());
  W->Reduce = A->reduce();
  {
    PExpr *Field = P->newExpr();
    Field->K = PExprKind::MsgField;
    Field->Index = 0;
    Field->Ty = Payload->Ty;
    W->Value = Field;
  }
  VStmt *On = P->newVStmt(VStmtKind::OnMessage);
  On->Index = Msg;
  On->Then.push_back(W);
  LC.Receives.push_back(On);
}

void Translator::translateVertexStmt(Stmt *S, LoopCtx &LC,
                                     std::vector<VStmt *> &Out) {
  if (!S || Failed)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (Stmt *Child : cast<BlockStmt>(S)->statements())
      translateVertexStmt(Child, LC, Out);
    return;

  case Stmt::Kind::Decl: {
    auto *D = cast<DeclStmt>(S);
    if (D->decl()->type()->isEdge())
      return; // edge binding: no code
    int Prop = localPropFor(D->decl(), LC);
    if (D->init()) {
      VStmt *W = P->newVStmt(VStmtKind::Assign);
      W->Index = Prop;
      W->Value = vertexExpr(D->init(), LC);
      Out.push_back(W);
    }
    return;
  }

  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    if (auto *PA = dyn_cast<PropAccessExpr>(A->target())) {
      if (PA->baseVar() == LC.Outer) {
        VStmt *W = P->newVStmt(VStmtKind::Assign);
        W->Index = propFor(PA->prop());
        W->Reduce = A->reduce();
        W->Value = vertexExpr(A->value(), LC);
        Out.push_back(W);
        return;
      }
      translateRandomWrite(A, LC, Out);
      return;
    }
    auto *Ref = cast<VarRefExpr>(A->target());
    VarDecl *V = Ref->decl();
    if (LC.Locals.count(V)) {
      // Loop-locals (including Node locals) live as per-vertex properties.
      VStmt *W = P->newVStmt(VStmtKind::Assign);
      W->Index = localPropFor(V, LC);
      W->Reduce = A->reduce();
      W->Value = vertexExpr(A->value(), LC);
      Out.push_back(W);
      return;
    }
    // Shared scalar reduction -> global put.
    assert(A->reduce() != ReduceKind::None && "checker enforces reductions");
    ValueKind Ty = V->type()->valueKind();
    int Red = redGlobalFor(V, A->reduce(), Ty);
    VStmt *PutStmt = P->newVStmt(VStmtKind::GlobalPut);
    PutStmt->Index = Red;
    PutStmt->Value = vertexExpr(A->value(), LC);
    Out.push_back(PutStmt);
    LC.SenderFolds.push_back({globalFor(V), Red, A->reduce()});
    return;
  }

  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    VStmt *W = P->newVStmt(VStmtKind::If);
    W->Cond = vertexExpr(I->cond(), LC);
    translateVertexStmt(I->thenStmt(), LC, W->Then);
    translateVertexStmt(I->elseStmt(), LC, W->Else);
    Out.push_back(W);
    return;
  }

  case Stmt::Kind::Foreach:
    translateInnerLoop(cast<ForeachStmt>(S), LC, Out);
    return;

  default:
    error(S->location(), "unsupported statement in a parallel loop");
    return;
  }
}

void Translator::translateVertexLoop(ForeachStmt *F) {
  int A = P->newState("s" + std::to_string(P->States.size()) + "_" +
                      F->iterator()->name());
  materializeState(A);

  LoopCtx LC;
  LC.Loop = F;
  LC.Outer = F->iterator();

  std::vector<VStmt *> Body;
  translateVertexStmt(F->body(), LC, Body);
  if (Failed)
    return;

  if (F->filter()) {
    VStmt *Guard = P->newVStmt(VStmtKind::If);
    Guard->Cond = vertexExpr(F->filter(), LC);
    Guard->Then = std::move(Body);
    Body = {Guard};
  }
  P->state(A).VertexCode = std::move(Body);
  appendFolds(A, LC.SenderFolds);

  if (LC.Receives.empty()) {
    Pending = {&P->state(A).TransCode};
    return;
  }
  int B = P->newState(P->state(A).Name + "_recv");
  P->state(A).TransCode.push_back(P->makeGoto(B));
  P->state(B).VertexCode = std::move(LC.Receives);
  appendFolds(B, LC.ReceiverFolds);
  Pending = {&P->state(B).TransCode};
}

//===----------------------------------------------------------------------===//
// Sequential statements and control flow
//===----------------------------------------------------------------------===//

void Translator::translateMasterOnly(Stmt *S, std::vector<MStmt *> &Out,
                                     bool &Terminated) {
  if (!S || Failed)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (Stmt *Child : cast<BlockStmt>(S)->statements())
      translateMasterOnly(Child, Out, Terminated);
    return;
  case Stmt::Kind::Decl: {
    auto *D = cast<DeclStmt>(S);
    if (D->decl()->isProperty()) {
      propFor(D->decl());
      return;
    }
    int G = globalFor(D->decl());
    if (D->init()) {
      MStmt *Set = P->newMStmt(MStmtKind::Set);
      Set->Index = G;
      Set->Value = masterExpr(D->init());
      Out.push_back(Set);
    }
    return;
  }
  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    auto *Ref = dyn_cast<VarRefExpr>(A->target());
    if (!Ref) {
      error(A->location(), "property write in sequential phase (requires "
                           "the Random Access transformation)");
      return;
    }
    int G = globalFor(Ref->decl());
    MStmt *Set = P->newMStmt(MStmtKind::Set);
    Set->Index = G;
    PExpr *Val = masterExpr(A->value());
    if (A->reduce() == ReduceKind::None)
      Set->Value = Val;
    else
      Set->Value = foldExpr(A->reduce(), P->globalRead(G), Val,
                            P->Globals[G].Ty);
    Out.push_back(Set);
    return;
  }
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    MStmt *Node = P->newMStmt(MStmtKind::If);
    Node->Cond = masterExpr(I->cond());
    bool TermThen = false, TermElse = false;
    translateMasterOnly(I->thenStmt(), Node->Then, TermThen);
    if (I->elseStmt())
      translateMasterOnly(I->elseStmt(), Node->Else, TermElse);
    Out.push_back(Node);
    Terminated = Terminated || (TermThen && TermElse && I->elseStmt());
    return;
  }
  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->value()) {
      MStmt *Set = P->newMStmt(MStmtKind::Set);
      Set->Index = ReturnGlobal;
      Set->Value = masterExpr(R->value());
      Out.push_back(Set);
    }
    Out.push_back(P->makeGoto(EndState));
    Terminated = true;
    return;
  }
  case Stmt::Kind::While:
  case Stmt::Kind::Foreach:
  case Stmt::Kind::BFS:
    error(S->location(), "parallel or looping construct on a master-only "
                         "control path");
    return;
  }
  gm_unreachable("invalid statement kind");
}

void Translator::translateWhile(WhileStmt *W) {
  MStmt *Head = P->newMStmt(MStmtKind::If);
  Head->Cond = masterExpr(W->cond());

  size_t StatesBefore = P->States.size();
  if (W->isDoWhile()) {
    // Entry goes straight into the body; the condition is evaluated at the
    // bottom. Wrap the body path so the loop-back can re-enter it.
    MStmt *Wrapper = P->newMStmt(MStmtKind::If);
    Wrapper->Cond = P->constExpr(Value::makeBool(true));
    appendMaster(Wrapper);
    Pending = {&Wrapper->Then};
    translateSeq(W->body());
    if (P->States.size() == StatesBefore) {
      error(W->location(), "loop body contains no parallel work");
      return;
    }
    Head->Then.push_back(Wrapper);
    appendMaster(Head);
    Pending = {&Head->Else};
    return;
  }

  appendMaster(Head);
  Pending = {&Head->Then};
  translateSeq(W->body());
  if (P->States.size() == StatesBefore) {
    error(W->location(), "loop body contains no parallel work");
    return;
  }
  appendMaster(Head); // loop back: re-evaluate the condition
  Pending = {&Head->Else};
}

void Translator::translateSeqIf(IfStmt *I) {
  // Master-only branches (guaranteed by the canonical checker): emit the If
  // inline; a Return inside a branch produces a goto which makes any
  // following code on that path dead (the executor skips after a jump).
  std::vector<MStmt *> Out;
  bool Terminated = false;
  translateMasterOnly(I, Out, Terminated);
  for (MStmt *S : Out)
    appendMaster(S);
  if (Terminated)
    Pending.clear();
}

void Translator::translateSeqAssign(AssignStmt *A) {
  std::vector<MStmt *> Out;
  bool Terminated = false;
  translateMasterOnly(A, Out, Terminated);
  for (MStmt *S : Out)
    appendMaster(S);
}

void Translator::translateReturn(ReturnStmt *R) {
  std::vector<MStmt *> Out;
  bool Terminated = false;
  translateMasterOnly(R, Out, Terminated);
  for (MStmt *S : Out)
    appendMaster(S);
  Pending.clear();
}

void Translator::translateSeq(Stmt *S) {
  if (!S || Failed)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    translateSeqBlock(cast<BlockStmt>(S));
    return;
  case Stmt::Kind::Decl:
  case Stmt::Kind::Assign: {
    std::vector<MStmt *> Out;
    bool Terminated = false;
    translateMasterOnly(S, Out, Terminated);
    for (MStmt *M : Out)
      appendMaster(M);
    return;
  }
  case Stmt::Kind::If:
    translateSeqIf(cast<IfStmt>(S));
    return;
  case Stmt::Kind::While:
    translateWhile(cast<WhileStmt>(S));
    return;
  case Stmt::Kind::Foreach: {
    auto *F = cast<ForeachStmt>(S);
    if (F->source().K != IterSource::Kind::GraphNodes) {
      error(F->location(), "top-level loop must iterate G.Nodes");
      return;
    }
    translateVertexLoop(F);
    return;
  }
  case Stmt::Kind::Return:
    translateReturn(cast<ReturnStmt>(S));
    return;
  case Stmt::Kind::BFS:
    error(S->location(), "InBFS must be lowered before translation");
    return;
  }
  gm_unreachable("invalid statement kind");
}

void Translator::translateSeqBlock(BlockStmt *B) {
  for (Stmt *S : B->statements()) {
    if (Pending.empty() || Failed)
      return; // dead code after Return
    translateSeq(S);
  }
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

std::unique_ptr<PregelProgram> Translator::translate(ProcedureDecl *ProcIn) {
  Proc = ProcIn;
  Failed = false;
  P = std::make_unique<PregelProgram>();
  P->Name = Proc->name();
  GlobalIdx.clear();
  RedIdx.clear();
  PropIdx.clear();
  EdgePropIdx.clear();
  UsedGlobalNames.clear();
  UsedPropNames.clear();
  Pending.clear();

  // Parameters: properties become columns, scalars become globals the
  // runtime seeds from the invocation arguments.
  for (VarDecl *Param : Proc->params()) {
    if (Param->type()->isGraph())
      continue;
    if (Param->type()->isNodeProp()) {
      propFor(Param);
      continue;
    }
    if (Param->type()->isEdgeProp()) {
      edgePropFor(Param);
      continue;
    }
    globalFor(Param);
  }
  // Everything declared so far backs a procedure parameter: those columns
  // are observable outputs and must survive dead-slot elimination, and the
  // runtime seeds those globals from the invocation arguments, so constant
  // propagation must treat them as opaque.
  for (PropDef &D : P->NodeProps)
    D.Param = true;
  for (PropDef &D : P->EdgeProps)
    D.Param = true;
  for (GlobalDef &D : P->Globals)
    D.Param = true;

  if (!Proc->returnType()->isVoid()) {
    ReturnGlobal = P->addGlobal(uniqueName("_ret", UsedGlobalNames),
                                Proc->returnType()->valueKind(),
                                ReduceKind::None, Value());
    P->ReturnGlobal = P->Globals[ReturnGlobal].Name;
  }

  int Entry = P->newState("entry");
  Pending = {&P->state(Entry).TransCode};

  translateSeqBlock(Proc->body());
  if (Failed)
    return nullptr;

  if (!Pending.empty()) {
    appendMaster(P->makeGoto(EndState));
    Pending.clear();
  }

  logFeature(feature::StateMachine);
  if (!P->Globals.empty())
    logFeature(feature::GlobalObject);
  if (!P->MsgTypes.empty())
    logFeature(feature::MessageClassGen);
  if (P->MsgTypes.size() + (P->UsesInNbrs ? 1 : 0) > 1)
    logFeature(feature::MultipleComm);

  std::string Problem = verifyProgram(*P);
  if (!Problem.empty()) {
    error(Proc->location(), "internal error: generated IR is invalid: " +
                                Problem);
    return nullptr;
  }
  return std::move(P);
}
