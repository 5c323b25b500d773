//===- tests/CppCodegenTest.cpp - Native backend == interpreter ------------===//
///
/// The native codegen backend's contract: Config::Backend selects how a
/// compiled program executes — IR interpretation or generated C++ — never
/// what it computes or what any counter reports. This suite pins emission
/// determinism and the fingerprint/factory-symbol conventions, checks the
/// precompiled registry covers every bundled algorithm (a stale golden
/// changes the baked fingerprint and fails here), and then holds the
/// registry path to bit-identical results against the interpreter for all
/// six paper algorithms at worker counts 1/3/8 x every partition strategy
/// x sequential/threaded. The JIT path and the interpreter fallback get
/// focused tests (the JIT one is skipped under TSan: the host toolchain
/// would produce an uninstrumented .so).
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "opt/Optimizer.h"
#include "pregel/Runtime.h"
#include "pregelir/CppCodegen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#if defined(__SANITIZE_THREAD__)
#define GM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GM_TSAN 1
#endif
#endif

namespace {

using namespace gm;
using namespace gm::pregel;

/// Sets an environment variable for one scope (the native loader reads
/// GM_NATIVE_CXX at compile time).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Val) : Name(Name) {
    if (const char *Old = ::getenv(Name))
      Saved = Old;
    ::setenv(Name, Val, 1);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

CompileResult compileAlgorithm(const std::string &Name,
                               const CompileOptions &Options = {}) {
  return compileGreenMarlFile(std::string(GM_ALGORITHMS_DIR) + "/" + Name +
                                  ".gm",
                              Options);
}

//===----------------------------------------------------------------------===//
// Emission determinism + naming conventions
//===----------------------------------------------------------------------===//

TEST(CppCodegen, EmissionIsDeterministic) {
  CompileResult R = compileAlgorithm("pagerank");
  ASSERT_TRUE(R.ok()) << R.Diags->dump();
  std::string A = pir::emitCpp(*R.Program);
  std::string B = pir::emitCpp(*R.Program);
  ASSERT_FALSE(A.empty());
  // Byte-for-byte: the golden files and the registry fingerprint match
  // depend on stable emission.
  EXPECT_EQ(A, B);
  // The fingerprint and the fixed entry points are baked into the TU.
  EXPECT_NE(A.find(pir::programFingerprint(*R.Program)), std::string::npos);
  EXPECT_NE(A.find(pir::compiledFactorySymbol(*R.Program)), std::string::npos);
  EXPECT_NE(A.find("gm_compiled_create"), std::string::npos);
}

TEST(CppCodegen, FingerprintFormatIsStable) {
  CompileResult R = compileAlgorithm("pagerank");
  ASSERT_TRUE(R.ok()) << R.Diags->dump();
  std::string F = pir::programFingerprint(*R.Program);
  ASSERT_EQ(F.size(), 4u + 16u) << F;
  EXPECT_EQ(F.substr(0, 4), "gm0-");
  for (size_t I = 4; I < F.size(); ++I)
    EXPECT_TRUE(::isxdigit(static_cast<unsigned char>(F[I]))) << F;
  EXPECT_EQ(F, pir::programFingerprint(*R.Program));
  EXPECT_EQ(pir::compiledFactorySymbol(*R.Program),
            "gm_compiled_create_pagerank");

  // Different IR (unmerged state machine) => different fingerprint.
  CompileOptions Unmerged;
  Unmerged.StateMerging = false;
  CompileResult R2 = compileAlgorithm("pagerank", Unmerged);
  ASSERT_TRUE(R2.ok()) << R2.Diags->dump();
  EXPECT_NE(F, pir::programFingerprint(*R2.Program));
}

//===----------------------------------------------------------------------===//
// Precompiled registry coverage
//===----------------------------------------------------------------------===//

TEST(CppCodegen, RegistryCoversEveryBundledAlgorithm) {
  // Every bundled .gm must have a checked-in golden whose baked fingerprint
  // matches what the compiler produces today. A miss here means the IR
  // drifted: regenerate with
  //   gmpc src/algorithms/<name>.gm --emit-cpp src/exec/generated/
  const char *Algorithms[] = {
      "avg_teen",  "bc_approx",   "bipartite_matching",
      "comp_label", "conductance", "degree_stats",
      "pagerank",  "pagerank_weighted", "sssp",
  };
  ASSERT_EQ(std::size(Algorithms), exec::compiledPrograms().size());
  for (const char *Name : Algorithms) {
    CompileResult R = compileAlgorithm(Name);
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Diags->dump();
    std::string F = pir::programFingerprint(*R.Program);
    const exec::CompiledProgramInfo *Info = exec::findCompiled(F);
    ASSERT_NE(Info, nullptr) << Name << " (" << F << ") has no registry "
                             << "entry; regenerate the golden";
    EXPECT_EQ(F, Info->Fingerprint()) << Name;
  }
}

TEST(CppCodegen, RegistryProgramDerivesTheSameMessageLayout) {
  // The generated messageLayout() must agree with the interpreter's
  // derivation — record geometry decides wire accounting.
  for (const char *Name : {"pagerank", "bc_approx"}) {
    CompileResult R = compileAlgorithm(Name);
    ASSERT_TRUE(R.ok()) << R.Diags->dump();
    Graph G = generateRMAT(1 << 6, 1 << 8, 7);
    std::unique_ptr<exec::CompiledProgram> P =
        exec::createCompiled(*R.Program, G, exec::ExecArgs{});
    ASSERT_NE(P, nullptr) << Name;
    MessageLayout Want = pir::deriveMessageLayout(*R.Program);
    MessageLayout Got = P->messageLayout();
    EXPECT_EQ(Got.recordSize(), Want.recordSize()) << Name;
    EXPECT_EQ(Got.storesTag(), Want.storesTag()) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Equivalence harness
//===----------------------------------------------------------------------===//

void expectSameCounters(const RunStats &A, const RunStats &B,
                        const std::string &What) {
  EXPECT_EQ(A.Supersteps, B.Supersteps) << What;
  EXPECT_EQ(A.TotalMessages, B.TotalMessages) << What;
  EXPECT_EQ(A.NetworkMessages, B.NetworkMessages) << What;
  EXPECT_EQ(A.NetworkBytes, B.NetworkBytes) << What;
  EXPECT_EQ(A.MessagesPerStep, B.MessagesPerStep) << What;
  EXPECT_EQ(A.Halt, B.Halt) << What;
}

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
    Args.Scalars["max_iter"] = Value::makeInt(6);
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

class BackendSweep : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Workers, BackendSweep, ::testing::Values(1, 3, 8));

TEST_P(BackendSweep, PaperAlgorithmsBitIdenticalToInterpreter) {
  // The sweep must exercise the precompiled registry (the path that is
  // TSan-instrumented like the rest of the tree), never the JIT: poison
  // the JIT's compiler so a registry miss fails fast and visibly.
  ScopedEnv NoJit("GM_NATIVE_CXX", "/gm-jit-disabled-for-this-test");

  const AlgoCase Cases[] = {
      {"avg_teen", "teen_cnt"},  {"pagerank", "pg_rank"},
      {"conductance", nullptr},  {"sssp", "dist"},
      {"bipartite_matching", "match"}, {"bc_approx", "BC"},
  };
  const PartitionStrategy Strategies[] = {
      PartitionStrategy::Hash, PartitionStrategy::Range,
      PartitionStrategy::EdgeBalanced};
  const unsigned W = GetParam();

  for (const AlgoCase &C : Cases) {
    const bool Bipartite = std::string(C.Name) == "bipartite_matching";
    NodeId BipartiteLeft = 1 << 8;
    Graph G = Bipartite
                  ? generateBipartite(BipartiteLeft, (1 << 8) + 100, 1 << 11, 5)
                  : generateRMAT(1 << 9, 1 << 12, 5);

    CompileResult Compiled = compileAlgorithm(C.Name);
    ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

    for (PartitionStrategy S : Strategies) {
      for (bool Threaded : {false, true}) {
        DiagnosticEngine Diags;
        Config Cfg;
        Cfg.NumWorkers = W;
        Cfg.Threaded = Threaded;
        Cfg.Partition = S;
        Cfg.Combiners = inferCombinerTags(*Compiled.Program,
                                          exec::IRExecutor::MsgTagOffset);
        Cfg.Diags = &Diags;

        std::string What = std::string(C.Name) + " W=" + std::to_string(W) +
                           " partition=" +
                           partitionStrategyName(S) +
                           (Threaded ? " threaded" : " sequential");

        std::unique_ptr<exec::IRExecutor> Interp;
        RunStats InterpStats =
            exec::runProgram(*Compiled.Program, G,
                             makeArgs(C.Name, G, BipartiteLeft), Cfg, &Interp);

        Cfg.Backend = ExecBackend::Native;
        exec::BackendRun Native = exec::runProgramWithBackend(
            *Compiled.Program, G, makeArgs(C.Name, G, BipartiteLeft), Cfg);
        ASSERT_EQ(Native.Used, exec::BackendKind::NativeRegistry)
            << What << ": " << Diags.dump();

        expectSameCounters(InterpStats, Native.Stats, What);
        if (C.ResultProp) {
          for (NodeId N = 0; N < G.numNodes(); ++N) {
            Value A = Interp->nodeProp(C.ResultProp).get(N);
            Value B = Native.nodeValue(C.ResultProp, N);
            ASSERT_TRUE(A == B)
                << What << " " << C.ResultProp << "[" << N
                << "]: " << A.toString() << " vs " << B.toString();
          }
        }
        ASSERT_EQ(Interp->returnValue().has_value(),
                  Native.returnValue().has_value())
            << What;
        if (Interp->returnValue()) {
          EXPECT_TRUE(*Interp->returnValue() == *Native.returnValue())
              << What << ": " << Interp->returnValue()->toString() << " vs "
              << Native.returnValue()->toString();
        }
        EXPECT_EQ(Interp->finished(), Native.finished()) << What;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Fallback + JIT
//===----------------------------------------------------------------------===//

TEST(CppCodegen, FallsBackToInterpreterWithDiagnostic) {
  // Unmerged pagerank is not in the registry (different fingerprint), and
  // with the JIT's compiler poisoned the native request must land on the
  // interpreter — with a warning saying why, and correct results anyway.
  ScopedEnv NoJit("GM_NATIVE_CXX", "/gm-jit-disabled-for-this-test");
  CompileOptions Unmerged;
  Unmerged.StateMerging = false;
  CompileResult R = compileAlgorithm("pagerank", Unmerged);
  ASSERT_TRUE(R.ok()) << R.Diags->dump();
  ASSERT_EQ(exec::findCompiled(pir::programFingerprint(*R.Program)), nullptr);

  Graph G = generateRMAT(1 << 8, 1 << 10, 11);
  DiagnosticEngine Diags;
  Config Cfg;
  Cfg.NumWorkers = 3;
  Cfg.Backend = ExecBackend::Native;
  Cfg.Diags = &Diags;
  exec::BackendRun Run = exec::runProgramWithBackend(
      *R.Program, G, makeArgs("pagerank", G, 0), Cfg);
  EXPECT_EQ(Run.Used, exec::BackendKind::Interp);
  EXPECT_TRUE(Diags.containsMessage("native backend unavailable"))
      << Diags.dump();
  EXPECT_TRUE(Diags.containsMessage("falling back to the interpreter"))
      << Diags.dump();
  EXPECT_GT(Run.Stats.Supersteps, 0u);
  EXPECT_TRUE(Run.finished());
}

TEST(CppCodegen, JitMatchesInterpreterOnUnmergedPageRank) {
#ifdef GM_TSAN
  GTEST_SKIP() << "JIT .so is built by the host toolchain without TSan "
                  "instrumentation; covered by the non-sanitized build";
#else
  // Unmerged pagerank misses the registry, so a native request exercises
  // the full emit -> host-compile -> dlopen path.
  CompileOptions Unmerged;
  Unmerged.StateMerging = false;
  CompileResult R = compileAlgorithm("pagerank", Unmerged);
  ASSERT_TRUE(R.ok()) << R.Diags->dump();

  Graph G = generateRMAT(1 << 8, 1 << 10, 11);
  DiagnosticEngine Diags;
  Config Cfg;
  Cfg.NumWorkers = 3;
  Cfg.Diags = &Diags;

  std::unique_ptr<exec::IRExecutor> Interp;
  RunStats InterpStats = exec::runProgram(*R.Program, G,
                                          makeArgs("pagerank", G, 0), Cfg,
                                          &Interp);

  Cfg.Backend = ExecBackend::Native;
  exec::BackendRun Native = exec::runProgramWithBackend(
      *R.Program, G, makeArgs("pagerank", G, 0), Cfg);
  if (Native.Used != exec::BackendKind::NativeJit)
    GTEST_SKIP() << "no usable host toolchain: " << Diags.dump();

  expectSameCounters(InterpStats, Native.Stats, "jit pagerank");
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    Value A = Interp->nodeProp("pg_rank").get(N);
    Value B = Native.nodeValue("pg_rank", N);
    ASSERT_TRUE(A == B) << "pg_rank[" << N << "]: " << A.toString() << " vs "
                        << B.toString();
  }
#endif
}

} // namespace
