//===- tests/FrontendTest.cpp - Lexer/Parser/Sema tests -----------------------===//

#include "frontend/ASTPrinter.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace {

using namespace gm;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

std::vector<TokenKind> lexKinds(const std::string &Src) {
  DiagnosticEngine Diags;
  Lexer Lex(Src, Diags);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Lex.lexAll())
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, KeywordsAndIdentifiers) {
  auto Kinds = lexKinds("Procedure foo Graph bar");
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{
                       TokenKind::KwProcedure, TokenKind::Identifier,
                       TokenKind::KwGraph, TokenKind::Identifier,
                       TokenKind::EndOfFile}));
}

TEST(Lexer, FusedMinMaxAssign) {
  auto Kinds = lexKinds("x min= 3; y max= 4;");
  EXPECT_EQ(Kinds[1], TokenKind::MinAssign);
  EXPECT_EQ(Kinds[5], TokenKind::MaxAssign);
}

TEST(Lexer, MinFollowedByEqualityIsNotFused) {
  auto Kinds = lexKinds("min == 3");
  EXPECT_EQ(Kinds[0], TokenKind::Identifier);
  EXPECT_EQ(Kinds[1], TokenKind::EqualEqual);
}

TEST(Lexer, NumbersIntAndFloat) {
  DiagnosticEngine Diags;
  Lexer Lex("42 3.5 1e3 7", Diags);
  auto Tokens = Lex.lexAll();
  EXPECT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[0].IntValue, 42);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(Tokens[1].FloatValue, 3.5);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(Tokens[2].FloatValue, 1000.0);
  EXPECT_EQ(Tokens[3].IntValue, 7);
}

TEST(Lexer, CommentsAreSkipped) {
  auto Kinds = lexKinds("a // line comment\n /* block \n comment */ b");
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{TokenKind::Identifier,
                                           TokenKind::Identifier,
                                           TokenKind::EndOfFile}));
}

TEST(Lexer, OperatorsAndCompounds) {
  auto Kinds = lexKinds("+= ++ + == = != <= < && || |= &=");
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{
                       TokenKind::PlusAssign, TokenKind::PlusPlus,
                       TokenKind::Plus, TokenKind::EqualEqual,
                       TokenKind::Assign, TokenKind::NotEqual,
                       TokenKind::LessEqual, TokenKind::Less, TokenKind::AmpAmp,
                       TokenKind::PipePipe, TokenKind::OrAssign,
                       TokenKind::AndAssign, TokenKind::EndOfFile}));
}

TEST(Lexer, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  Lexer Lex("a\n  b", Diags);
  auto Tokens = Lex.lexAll();
  EXPECT_EQ(Tokens[0].Loc, SourceLocation(1, 1));
  EXPECT_EQ(Tokens[1].Loc, SourceLocation(2, 3));
}

TEST(Lexer, ReportsBadCharacter) {
  DiagnosticEngine Diags;
  Lexer Lex("a @ b", Diags);
  auto Tokens = Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Error);
}

TEST(Lexer, InRBFSAliasesInReverse) {
  auto Kinds = lexKinds("InReverse InRBFS");
  EXPECT_EQ(Kinds[0], TokenKind::KwInReverse);
  EXPECT_EQ(Kinds[1], TokenKind::KwInReverse);
}

//===----------------------------------------------------------------------===//
// Parser helpers
//===----------------------------------------------------------------------===//

struct ParseResult {
  ASTContext Context;
  DiagnosticEngine Diags;
  Program Prog;
  ProcedureDecl *Proc = nullptr;
};

std::unique_ptr<ParseResult> parse(const std::string &Src) {
  auto R = std::make_unique<ParseResult>();
  Parser P(Src, R->Context, R->Diags);
  R->Prog = P.parseProgram();
  if (!R->Prog.Procedures.empty())
    R->Proc = R->Prog.Procedures.front();
  return R;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, MinimalProcedure) {
  auto R = parse("Procedure p(G: Graph) { Int x = 1; }");
  ASSERT_NE(R->Proc, nullptr);
  EXPECT_EQ(R->Proc->name(), "p");
  ASSERT_EQ(R->Proc->params().size(), 1u);
  EXPECT_TRUE(R->Proc->params()[0]->type()->isGraph());
  EXPECT_EQ(R->Proc->body()->statements().size(), 1u);
}

TEST(Parser, ReturnTypeAndPropertyParams) {
  auto R = parse(
      "Procedure p(G: Graph, age: N_P<Int>, len: E_P<Double>) : Float {}");
  ASSERT_NE(R->Proc, nullptr);
  EXPECT_EQ(R->Proc->returnType(), Type::getFloat());
  EXPECT_EQ(R->Proc->params()[1]->type(), Type::getNodeProp(Type::getInt()));
  EXPECT_EQ(R->Proc->params()[2]->type(), Type::getEdgeProp(Type::getDouble()));
}

TEST(Parser, ForeachWithFilterRoundTrips) {
  auto R = parse("Procedure p(G: Graph, age: N_P<Int>) {"
                 "  Foreach (n: G.Nodes)(n.age > 10) {"
                 "    n.age = 0;"
                 "  }"
                 "}");
  ASSERT_NE(R->Proc, nullptr);
  std::string Printed = printProcedure(R->Proc);
  EXPECT_NE(Printed.find("Foreach (n: G.Nodes)((n.age > 10))"),
            std::string::npos)
      << Printed;
}

TEST(Parser, BracketFiltersAccepted) {
  auto R = parse("Procedure p(G: Graph, age: N_P<Int>) {"
                 "  Foreach (n: G.Nodes)[n.age > 10] { n.age = 0; }"
                 "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
}

TEST(Parser, NestedNeighborLoop) {
  auto R = parse("Procedure p(G: Graph, foo: N_P<Int>, bar: N_P<Int>) {"
                 "  Foreach (n: G.Nodes) {"
                 "    Foreach (t: n.Nbrs) {"
                 "      t.foo += n.bar;"
                 "    }"
                 "  }"
                 "}");
  ASSERT_NE(R->Proc, nullptr);
  auto *Outer = cast<ForeachStmt>(R->Proc->body()->statements()[0]);
  EXPECT_EQ(Outer->source().K, IterSource::Kind::GraphNodes);
  auto *Inner =
      cast<ForeachStmt>(cast<BlockStmt>(Outer->body())->statements()[0]);
  EXPECT_EQ(Inner->source().K, IterSource::Kind::OutNbrs);
  EXPECT_EQ(Inner->source().Base, Outer->iterator());
}

TEST(Parser, GroupAssignmentDesugarsToForeach) {
  auto R = parse("Procedure p(G: Graph, dist: N_P<Int>) { G.dist = 0; }");
  ASSERT_NE(R->Proc, nullptr);
  auto *F = dyn_cast<ForeachStmt>(R->Proc->body()->statements()[0]);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->source().K, IterSource::Kind::GraphNodes);
}

TEST(Parser, PlusPlusDesugarsToReduceAssign) {
  auto R = parse("Procedure p(G: Graph) { Int k = 0; k++; }");
  ASSERT_NE(R->Proc, nullptr);
  auto *A = cast<AssignStmt>(R->Proc->body()->statements()[1]);
  EXPECT_EQ(A->reduce(), ReduceKind::Sum);
}

TEST(Parser, ReduceAssignOperators) {
  auto R = parse("Procedure p(G: Graph, x: N_P<Int>, b: N_P<Bool>) {"
                 "  Foreach (n: G.Nodes) {"
                 "    n.x += 1; n.x min= 2; n.x max= 3; n.x *= 4;"
                 "    n.b &= True; n.b |= False; n.x -= 5;"
                 "  }"
                 "}");
  ASSERT_NE(R->Proc, nullptr);
  auto *Loop = cast<ForeachStmt>(R->Proc->body()->statements()[0]);
  auto &Stmts = cast<BlockStmt>(Loop->body())->statements();
  EXPECT_EQ(cast<AssignStmt>(Stmts[0])->reduce(), ReduceKind::Sum);
  EXPECT_EQ(cast<AssignStmt>(Stmts[1])->reduce(), ReduceKind::Min);
  EXPECT_EQ(cast<AssignStmt>(Stmts[2])->reduce(), ReduceKind::Max);
  EXPECT_EQ(cast<AssignStmt>(Stmts[3])->reduce(), ReduceKind::Prod);
  EXPECT_EQ(cast<AssignStmt>(Stmts[4])->reduce(), ReduceKind::And);
  EXPECT_EQ(cast<AssignStmt>(Stmts[5])->reduce(), ReduceKind::Or);
  // -= becomes += with negated RHS
  EXPECT_EQ(cast<AssignStmt>(Stmts[6])->reduce(), ReduceKind::Sum);
  EXPECT_TRUE(isa<UnaryExpr>(cast<AssignStmt>(Stmts[6])->value()));
}

TEST(Parser, TernaryAndPrecedence) {
  auto R = parse("Procedure p(G: Graph) {"
                 "  Int x = 1 + 2 * 3;"
                 "  Bool b = 1 < 2 && 3 >= 2 || False;"
                 "  Int y = b ? x : 0;"
                 "}");
  ASSERT_NE(R->Proc, nullptr);
  auto *D = cast<DeclStmt>(R->Proc->body()->statements()[0]);
  EXPECT_EQ(printExpr(D->init()), "(1 + (2 * 3))");
  auto *B = cast<DeclStmt>(R->Proc->body()->statements()[1]);
  EXPECT_EQ(printExpr(B->init()),
            "(((1 < 2) && (3 >= 2)) || False)");
}

TEST(Parser, CastVersusParenExpr) {
  auto R = parse("Procedure p(G: Graph) {"
                 "  Int c = 3;"
                 "  Float f = 1 / (Float) c;"
                 "  Int g = (c + 1);"
                 "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
  auto *F = cast<DeclStmt>(R->Proc->body()->statements()[1]);
  auto *Div = cast<BinaryExpr>(F->init());
  EXPECT_TRUE(isa<CastExpr>(Div->rhs()));
}

TEST(Parser, ReductionExpressions) {
  auto R = parse("Procedure p(G: Graph, age: N_P<Int>) {"
                 "  Int s = Sum(u: G.Nodes)(u.age > 3){u.Degree()};"
                 "  Long c = Count(u: G.Nodes)(u.age > 3);"
                 "  Bool e = Exist(u: G.Nodes)(u.age == 0);"
                 "}");
  ASSERT_NE(R->Proc, nullptr);
  auto *S = cast<DeclStmt>(R->Proc->body()->statements()[0]);
  auto *Red = cast<ReductionExpr>(S->init());
  EXPECT_EQ(Red->reductionKind(), ReductionKind::Sum);
  ASSERT_NE(Red->filter(), nullptr);
  ASSERT_NE(Red->body(), nullptr);
}

TEST(Parser, InBFSWithReverse) {
  auto R = parse("Procedure p(G: Graph, sigma: N_P<Double>) {"
                 "  Node s = G.PickRandom();"
                 "  InBFS (v: G.Nodes From s)(v != s) {"
                 "    v.sigma = Sum(w: v.UpNbrs){w.sigma};"
                 "  }"
                 "  InReverse {"
                 "    v.sigma = 0.0;"
                 "  }"
                 "}");
  ASSERT_NE(R->Proc, nullptr) << R->Diags.dump();
  auto *B = cast<BFSStmt>(R->Proc->body()->statements()[1]);
  EXPECT_NE(B->filter(), nullptr);
  EXPECT_NE(B->reverseBody(), nullptr);
  EXPECT_EQ(B->reverseFilter(), nullptr);
}

TEST(Parser, EdgeBindingSyntax) {
  auto R = parse("Procedure p(G: Graph, len: E_P<Int>, d: N_P<Int>) {"
                 "  Foreach (n: G.Nodes) {"
                 "    Foreach (s: n.Nbrs) {"
                 "      Edge e = s.ToEdge();"
                 "      s.d min= n.d + e.len;"
                 "    }"
                 "  }"
                 "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
}

TEST(Parser, ErrorOnUndeclaredName) {
  auto R = parse("Procedure p(G: Graph) { x = 3; }");
  EXPECT_TRUE(R->Diags.hasErrors());
  EXPECT_TRUE(R->Diags.containsMessage("undeclared"));
}

TEST(Parser, ErrorOnRedefinition) {
  auto R = parse("Procedure p(G: Graph) { Int x = 1; Int x = 2; }");
  EXPECT_TRUE(R->Diags.hasErrors());
  EXPECT_TRUE(R->Diags.containsMessage("redefinition"));
}

TEST(Parser, ErrorOnMissingSemicolon) {
  auto R = parse("Procedure p(G: Graph) { Int x = 1 }");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Parser, DoWhileParses) {
  auto R = parse("Procedure p(G: Graph) {"
                 "  Int k = 0;"
                 "  Do { k++; } While (k < 10);"
                 "}");
  ASSERT_NE(R->Proc, nullptr) << R->Diags.dump();
  auto *W = cast<WhileStmt>(R->Proc->body()->statements()[1]);
  EXPECT_TRUE(W->isDoWhile());
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

std::unique_ptr<ParseResult> semaCheck(const std::string &Src) {
  auto R = parse(Src);
  EXPECT_FALSE(R->Diags.hasErrors()) << "parse failed: " << R->Diags.dump();
  if (R->Proc) {
    Sema S(R->Context, R->Diags);
    S.check(R->Proc);
  }
  return R;
}

TEST(Sema, AssignsExpressionTypes) {
  auto R = semaCheck("Procedure p(G: Graph, age: N_P<Int>) {"
                     "  Foreach (n: G.Nodes) { n.age = n.age + 1; }"
                     "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
  auto *F = cast<ForeachStmt>(R->Proc->body()->statements()[0]);
  auto *A = cast<AssignStmt>(cast<BlockStmt>(F->body())->statements()[0]);
  EXPECT_EQ(A->value()->type(), Type::getInt());
}

TEST(Sema, RejectsTypeMismatch) {
  auto R = semaCheck("Procedure p(G: Graph) { Int x = True; }");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsNonBoolCondition) {
  auto R = semaCheck("Procedure p(G: Graph) { If (1 + 2) { Int y = 0; } }");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsArithmeticOnNodes) {
  auto R = semaCheck("Procedure p(G: Graph, root: Node) {"
                     "  Node s = root;"
                     "  Int x = s + 1;"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, AllowsNodeNilComparison) {
  auto R = semaCheck("Procedure p(G: Graph, m: N_P<Node>) {"
                     "  Foreach (n: G.Nodes)(n.m == NIL) { n.m = n; }"
                     "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
}

TEST(Sema, InfTakesContextType) {
  auto R = semaCheck("Procedure p(G: Graph, d: N_P<Double>) {"
                     "  Foreach (n: G.Nodes) { n.d = INF; }"
                     "}");
  EXPECT_FALSE(R->Diags.hasErrors()) << R->Diags.dump();
  auto *F = cast<ForeachStmt>(R->Proc->body()->statements()[0]);
  auto *A = cast<AssignStmt>(cast<BlockStmt>(F->body())->statements()[0]);
  EXPECT_EQ(A->value()->type(), Type::getDouble());
}

TEST(Sema, RejectsReturnInParallelLoop) {
  auto R = semaCheck("Procedure p(G: Graph) : Int {"
                     "  Foreach (n: G.Nodes) { Return 1; }"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
  EXPECT_TRUE(R->Diags.containsMessage("Return"));
}

TEST(Sema, RejectsWhileInParallelLoop) {
  auto R = semaCheck("Procedure p(G: Graph, x: N_P<Int>) {"
                     "  Foreach (n: G.Nodes) {"
                     "    While (n.x > 0) { n.x -= 1; }"
                     "  }"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsUpNbrsOutsideBFS) {
  auto R = semaCheck("Procedure p(G: Graph, s: N_P<Double>) {"
                     "  Foreach (n: G.Nodes) {"
                     "    n.s = Sum(w: n.UpNbrs){w.s};"
                     "  }"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
  EXPECT_TRUE(R->Diags.containsMessage("InBFS"));
}

TEST(Sema, RejectsAssignToIterator) {
  auto R = semaCheck("Procedure p(G: Graph, root: Node) {"
                     "  Foreach (n: G.Nodes) { n = root; }"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsToEdgeOnNonIterator) {
  auto R = semaCheck("Procedure p(G: Graph, root: Node, len: E_P<Int>) {"
                     "  Edge e = root.ToEdge();"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RecordsEdgeBindings) {
  auto R = parse("Procedure p(G: Graph, len: E_P<Int>, d: N_P<Int>) {"
                 "  Foreach (n: G.Nodes) {"
                 "    Foreach (s: n.Nbrs) {"
                 "      Edge e = s.ToEdge();"
                 "      s.d min= e.len;"
                 "    }"
                 "  }"
                 "}");
  Sema S(R->Context, R->Diags);
  ASSERT_TRUE(S.check(R->Proc)) << R->Diags.dump();
  EXPECT_EQ(S.edgeBindings().size(), 1u);
}

TEST(Sema, RequiresExactlyOneGraphParam) {
  auto R = semaCheck("Procedure p(K: Int) { Int x = K; }");
  EXPECT_TRUE(R->Diags.hasErrors());
  EXPECT_TRUE(R->Diags.containsMessage("Graph parameter"));
}

TEST(Sema, RejectsCountWithBody) {
  auto R = semaCheck("Procedure p(G: Graph, a: N_P<Int>) {"
                     "  Long c = Count(u: G.Nodes){u.a};"
                     "}");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsBoolReductionOnNumericTarget) {
  auto R = semaCheck("Procedure p(G: Graph) { Int x = 0; x |= True; }");
  EXPECT_TRUE(R->Diags.hasErrors());
}

TEST(Sema, RejectsModOnFloats) {
  auto R = semaCheck("Procedure p(G: Graph) { Double d = 1.5 % 2.0; }");
  EXPECT_TRUE(R->Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// The six bundled paper algorithms parse and type-check.
//===----------------------------------------------------------------------===//

class BundledAlgorithms : public ::testing::TestWithParam<const char *> {};

TEST_P(BundledAlgorithms, ParsesAndChecks) {
  std::string Path = std::string(GM_ALGORITHMS_DIR) + "/" + GetParam();
  std::string Src = readFile(Path);
  ASSERT_FALSE(Src.empty());

  ASTContext Context;
  DiagnosticEngine Diags;
  Parser P(Src, Context, Diags);
  Program Prog = P.parseProgram();
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  ASSERT_EQ(Prog.Procedures.size(), 1u);

  Sema S(Context, Diags);
  EXPECT_TRUE(S.check(Prog.Procedures[0])) << Diags.dump();

  // Printing must round-trip through the parser (idempotent shape).
  std::string Printed = printProcedure(Prog.Procedures[0]);
  ASTContext Context2;
  DiagnosticEngine Diags2;
  Parser P2(Printed, Context2, Diags2);
  Program Prog2 = P2.parseProgram();
  EXPECT_FALSE(Diags2.hasErrors())
      << Diags2.dump() << "\n--- printed source ---\n"
      << Printed;
  ASSERT_EQ(Prog2.Procedures.size(), 1u);
  EXPECT_EQ(printProcedure(Prog2.Procedures[0]), Printed);
}

INSTANTIATE_TEST_SUITE_P(Paper, BundledAlgorithms,
                         ::testing::Values("avg_teen.gm", "pagerank.gm",
                                           "conductance.gm", "sssp.gm",
                                           "bipartite_matching.gm",
                                           "bc_approx.gm"));

} // namespace

//===----------------------------------------------------------------------===//
// Diagnostic matrix: one bad program per row, with the expected message.
//===----------------------------------------------------------------------===//

namespace diag_matrix {

using namespace gm;

struct BadProgram {
  const char *Name;
  const char *Source;
  const char *ExpectedMessage;
};

// Without a printer gtest lists the parameter as its raw bytes: three string
// addresses that ASLR moves on every run, so the listed (and CTest) test
// names would differ from one build to the next.
void PrintTo(const BadProgram &P, std::ostream *OS) { *OS << P.Name; }

class DiagnosticMatrix : public ::testing::TestWithParam<BadProgram> {};

TEST_P(DiagnosticMatrix, ReportsTheRightError) {
  const BadProgram &Case = GetParam();
  ASTContext Context;
  DiagnosticEngine Diags;
  Parser P(Case.Source, Context, Diags);
  Program Prog = P.parseProgram();
  if (!Diags.hasErrors() && !Prog.Procedures.empty()) {
    Sema S(Context, Diags);
    S.check(Prog.Procedures[0]);
  }
  EXPECT_TRUE(Diags.hasErrors()) << Case.Name;
  EXPECT_TRUE(Diags.containsMessage(Case.ExpectedMessage))
      << Case.Name << ":\n"
      << Diags.dump();
}

const BadProgram Cases[] = {
    {"assign_bool_to_int", "Procedure p(G: Graph) { Int x = True; }",
     "cannot initialize"},
    {"bad_cond", "Procedure p(G: Graph) { If (3) { Int x = 0; } }",
     "must be Bool"},
    {"node_arith",
     "Procedure p(G: Graph, r: Node) { Node s = r; Int x = s + 1; }",
     "arithmetic requires numeric"},
    {"mod_on_float", "Procedure p(G: Graph) { Double d = 1.5 % 2.0; }",
     "integer operands"},
    {"prop_as_value",
     "Procedure p(G: Graph, a: N_P<Int>) { Int x = 0; x = a; }",
     "cannot be used as a value"},
    {"graph_local", "Procedure p(G: Graph) { Graph H; }",
     "local Graph variables"},
    {"two_graphs", "Procedure p(G: Graph, H: Graph) { Int x = 0; }",
     "exactly one Graph parameter"},
    {"while_in_parallel",
     "Procedure p(G: Graph, a: N_P<Int>) {"
     "  Foreach (n: G.Nodes) { While (n.a > 0) { n.a -= 1; } } }",
     "not allowed inside parallel"},
    {"return_in_parallel",
     "Procedure p(G: Graph) : Int { Foreach (n: G.Nodes) { Return 1; } }",
     "not allowed inside parallel"},
    {"void_returns_value", "Procedure p(G: Graph) { Return 3; }",
     "void procedure"},
    {"missing_return_value",
     "Procedure p(G: Graph) : Int { Return; }", "must return a value"},
    {"upnbrs_outside_bfs",
     "Procedure p(G: Graph, s: N_P<Int>) {"
     "  Foreach (n: G.Nodes) { n.s = Sum(w: n.UpNbrs){w.s}; } }",
     "enclosing InBFS"},
    {"toedge_on_plain_node",
     "Procedure p(G: Graph, r: Node, l: E_P<Int>) { Edge e = r.ToEdge(); }",
     "neighborhood"},
    {"edge_from_expr",
     "Procedure p(G: Graph, l: E_P<Int>) { Edge e = G.PickRandom(); }",
     "initialized with ToEdge"},
    {"count_with_body",
     "Procedure p(G: Graph, a: N_P<Int>) { Long c = Count(u: G.Nodes){u.a}; }",
     "filter, not a body"},
    {"exist_without_condition",
     "Procedure p(G: Graph) { Bool b = Exist(u: G.Nodes); }",
     "needs a condition"},
    {"sum_without_body",
     "Procedure p(G: Graph, a: N_P<Int>) { Int s = Sum(u: G.Nodes); }",
     "requires a {body}"},
    {"bool_reduce_on_int",
     "Procedure p(G: Graph) { Int x = 0; x |= True; }",
     "cannot assign"},
    {"sum_on_bool",
     "Procedure p(G: Graph) { Bool b = False; b += 1; }",
     "cannot assign"},
    {"assign_iterator",
     "Procedure p(G: Graph, r: Node) { Foreach (n: G.Nodes) { n = r; } }",
     "cannot assign to iterator"},
    {"nbrs_of_graph",
     "Procedure p(G: Graph, a: N_P<Int>) {"
     "  Foreach (t: G.Nbrs) { t.a = 0; } }",
     "requires a Node"},
    {"nodes_of_node",
     "Procedure p(G: Graph, r: Node, a: N_P<Int>) {"
     "  Foreach (t: r.Nodes) { t.a = 0; } }",
     "requires a Graph"},
    {"undeclared_prop",
     "Procedure p(G: Graph) { Foreach (n: G.Nodes) { n.zap = 1; } }",
     "undeclared property"},
    {"nested_bfs",
     "Procedure p(G: Graph, r: Node, a: N_P<Int>) {"
     "  InBFS (v: G.Nodes From r) {"
     "    v.a = 1;"
     "  }"
     "  InReverse {"
     "    v.a = 2;"
     "  }"
     "}",
     ""}, // valid program: sanity-checked below as the inverse case
};

INSTANTIATE_TEST_SUITE_P(
    Bad, DiagnosticMatrix,
    ::testing::ValuesIn(Cases, Cases + sizeof(Cases) / sizeof(Cases[0]) - 1),
    [](const ::testing::TestParamInfo<BadProgram> &Info) {
      return Info.param.Name;
    });

} // namespace diag_matrix
