//===- driver/gmpc.cpp - Green-Marl -> Pregel compiler CLI -------------------===//
///
/// The command-line driver: compiles a .gm file and, depending on flags,
/// dumps the transformed (Pregel-canonical) Green-Marl, the state-machine
/// IR, or the generated GPS Java; optionally runs the program on a
/// generated or loaded graph.
///
//===----------------------------------------------------------------------===//

#include "analysis/DataFlow.h"
#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "frontend/ASTPrinter.h"
#include "graph/EdgeListIO.h"
#include "graph/Generators.h"
#include "pregel/MetricsSink.h"
#include "pregel/RuntimeTrace.h"
#include "pregelir/CodegenEmitter.h"
#include "pregelir/CppCodegen.h"
#include "pregelir/JavaCodegen.h"
#include "support/PassStatistics.h"
#include "support/Trace.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace gm;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: gmpc <file.gm> [options]

Compilation output:
  --dump-canonical     print the program after the canonicalizing transforms
  --dump-ir            print the Pregel state-machine IR (default)
  --emit-java          print the generated GPS Java source
  --emit-giraph        print the generated Giraph Java source
  --emit-cpp <path>    write the generated native C++ VertexProgram source
                       ("-" = stdout; a directory gets <program>.cpp — how
                       the goldens under src/exec/generated/ are produced)
  --features           print the applied compiler steps (Table 3 row)
  --loc                print generated-Java line count

Optimization toggles (all on by default):
  --no-state-merging
  --no-intra-loop-merging
  --no-dataflow-opts   disable the dataflow cleanup passes (constant folding,
                       message-field pruning, dead-slot elimination)

Static analysis (docs/analysis.md):
  --verify-each        re-run the strict IR verifier after translation and
                       after every transform/opt pass (failures name the pass)
  --lint               run the state-machine / message-protocol linter on the
                       optimized IR
  --Werror             treat lint warnings as errors
  --analyze            print the dataflow-analysis report for the optimized
                       IR: state CFG with frontier shapes, slot and
                       message-field liveness, and constant verdicts

Execution (interprets the compiled program on the bundled BSP runtime):
  --run                          run after compiling
  --backend <which>              execution backend (docs/codegen.md):
                                 interp (default) walks the IR; native runs
                                 generated C++ — the precompiled registry
                                 when this binary has the program, else JIT
                                 via the host toolchain, else interp with a
                                 warning. Results are bit-identical.
  --graph-file <path>            edge-list input
  --graph-rmat <nodes> <edges>   synthetic RMAT input
  --graph-uniform <nodes> <edges>
  --workers <n>                  simulated workers (default 4)
  --threaded                     run the workers as real threads
  --partition <strategy>         vertex partitioning: hash (default), range,
                                 or edge-balanced (docs/partitioning.md)
  --lalp-threshold <n>           LALP mirroring: broadcast from vertices with
                                 out-degree >= n as one record per worker
                                 (0 = off, the default)
  --schedule <mode>              per-superstep traversal schedule
                                 (docs/scheduling.md): auto (default) picks
                                 sparse frontier iteration or a dense full
                                 scan per superstep; dense / sparse force one
                                 path. Results are identical in every mode.
  --seed <n>                     runtime random seed
  --arg <name>=<value>           scalar procedure argument (repeatable)
  --rand-nprop <name> <lo> <hi>  fill an Int node property uniformly
  --rand-eprop <name> <lo> <hi>  fill an Int edge property uniformly
  --print-prop <name>            print a node property after the run

Observability (see docs/observability.md):
  --stats                print compiler pass timings/counters and, with
                         --run, the run report with per-worker totals
  --trace                with --run, also print the per-superstep trace
  --stats-json <path>    write the versioned JSON run report ("-" = stdout)
  --trace-json <path>    record a structured runtime trace (compiler passes,
                         graph load, per-worker superstep phases, counter
                         tracks) and write Chrome trace-event JSON, loadable
                         in Perfetto / chrome://tracing ("-" = stdout);
                         analyze with gmtrace

When --stats-json or --trace-json target stdout ("-"), all human-readable
run output (graph/run/return lines, property dumps, --stats/--trace tables)
moves to stderr so the JSON document stays parseable.
)");
}

int64_t parseInt(const char *S) { return std::strtoll(S, nullptr, 10); }

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string File = argv[1];

  CompileOptions Opts;
  bool DumpCanonical = false, DumpIR = false, EmitJava = false;
  bool EmitGiraph = false;
  std::string EmitCppPath;
  pregel::ExecBackend Backend = pregel::ExecBackend::Interp;
  bool ShowFeatures = false, ShowLoc = false, Run = false, Analyze = false;
  bool ShowStats = false, ShowTrace = false;
  std::string StatsJsonPath;
  std::string TraceJsonPath;
  std::string GraphFile;
  NodeId GenNodes = 0;
  EdgeId GenEdges = 0;
  bool GenRMAT = false, GenUniform = false;
  unsigned Workers = 4;
  bool Threaded = false;
  pregel::PartitionStrategy Partition = pregel::PartitionStrategy::Hash;
  uint32_t LalpThreshold = 0;
  pregel::ScheduleMode Schedule = pregel::ScheduleMode::Auto;
  uint64_t Seed = 1;
  std::vector<std::pair<std::string, std::string>> ScalarArgs;
  struct RandProp {
    std::string Name;
    int64_t Lo, Hi;
    bool Edge;
  };
  std::vector<RandProp> RandProps;
  std::vector<std::string> PrintProps;

  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "gmpc: missing value after %s\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--dump-canonical")
      DumpCanonical = true;
    else if (A == "--dump-ir")
      DumpIR = true;
    else if (A == "--emit-java")
      EmitJava = true;
    else if (A == "--emit-giraph")
      EmitGiraph = true;
    else if (A == "--emit-cpp")
      EmitCppPath = Next();
    else if (A == "--backend" || A.rfind("--backend=", 0) == 0) {
      std::string Name = A == "--backend" ? Next() : A.substr(10);
      if (Name == "interp")
        Backend = pregel::ExecBackend::Interp;
      else if (Name == "native")
        Backend = pregel::ExecBackend::Native;
      else {
        std::fprintf(stderr, "gmpc: --backend expects interp or native\n");
        return 2;
      }
    }
    else if (A == "--features")
      ShowFeatures = true;
    else if (A == "--loc")
      ShowLoc = true;
    else if (A == "--no-state-merging")
      Opts.StateMerging = false;
    else if (A == "--no-intra-loop-merging")
      Opts.IntraLoopMerging = false;
    else if (A == "--no-dataflow-opts")
      Opts.DataflowOpts = false;
    else if (A == "--analyze")
      Analyze = true;
    else if (A == "--verify-each")
      Opts.VerifyEach = true;
    else if (A == "--lint")
      Opts.Lint = true;
    else if (A == "--Werror")
      Opts.WarningsAsErrors = true;
    else if (A == "--stats")
      ShowStats = true;
    else if (A == "--trace")
      ShowTrace = true;
    else if (A == "--stats-json")
      StatsJsonPath = Next();
    else if (A == "--trace-json" || A.rfind("--trace-json=", 0) == 0)
      TraceJsonPath = A == "--trace-json" ? Next() : A.substr(13);
    else if (A == "--run")
      Run = true;
    else if (A == "--graph-file")
      GraphFile = Next();
    else if (A == "--graph-rmat") {
      GenRMAT = true;
      GenNodes = static_cast<NodeId>(parseInt(Next()));
      GenEdges = static_cast<EdgeId>(parseInt(Next()));
    } else if (A == "--graph-uniform") {
      GenUniform = true;
      GenNodes = static_cast<NodeId>(parseInt(Next()));
      GenEdges = static_cast<EdgeId>(parseInt(Next()));
    } else if (A == "--workers")
      Workers = static_cast<unsigned>(parseInt(Next()));
    else if (A == "--threaded")
      Threaded = true;
    else if (A == "--partition" || A.rfind("--partition=", 0) == 0) {
      std::string Name = A == "--partition" ? Next() : A.substr(12);
      auto S = pregel::parsePartitionStrategy(Name);
      if (!S) {
        std::fprintf(stderr, "gmpc: --partition expects hash, range, or "
                             "edge-balanced\n");
        return 2;
      }
      Partition = *S;
    } else if (A == "--lalp-threshold" || A.rfind("--lalp-threshold=", 0) == 0)
      LalpThreshold = static_cast<uint32_t>(
          parseInt(A == "--lalp-threshold" ? Next() : A.c_str() + 17));
    else if (A == "--schedule" || A.rfind("--schedule=", 0) == 0) {
      std::string Name = A == "--schedule" ? Next() : A.substr(11);
      auto S = pregel::parseScheduleMode(Name);
      if (!S) {
        std::fprintf(stderr, "gmpc: --schedule expects auto, dense, or "
                             "sparse\n");
        return 2;
      }
      Schedule = *S;
    }
    else if (A == "--seed")
      Seed = static_cast<uint64_t>(parseInt(Next()));
    else if (A == "--arg") {
      std::string KV = Next();
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "gmpc: --arg expects name=value\n");
        return 2;
      }
      ScalarArgs.emplace_back(KV.substr(0, Eq), KV.substr(Eq + 1));
    } else if (A == "--rand-nprop" || A == "--rand-eprop") {
      RandProp R;
      R.Edge = A == "--rand-eprop";
      R.Name = Next();
      R.Lo = parseInt(Next());
      R.Hi = parseInt(Next());
      RandProps.push_back(R);
    } else if (A == "--print-prop")
      PrintProps.push_back(Next());
    else {
      std::fprintf(stderr, "gmpc: unknown option %s\n", A.c_str());
      usage();
      return 2;
    }
  }
  // --lint / --verify-each used alone act as quiet checkers (exit status +
  // diagnostics only), so they suppress the default IR dump too.
  if (!DumpCanonical && !EmitJava && !EmitGiraph && EmitCppPath.empty() &&
      !ShowFeatures && !ShowLoc && !Run && !ShowStats &&
      StatsJsonPath.empty() && TraceJsonPath.empty() && !Opts.Lint &&
      !Opts.VerifyEach && !Analyze)
    DumpIR = true;

  // Human-readable output is re-routed to stderr whenever a machine-readable
  // document targets stdout, so the JSON stays parseable on its own.
  std::FILE *HumanOut =
      (StatsJsonPath == "-" || TraceJsonPath == "-") ? stderr : stdout;

  // The trace session spans the whole invocation (compiler passes, graph
  // load, the run); published before the first pass so ScopedTimer's hook
  // sees it. Zero overhead for every path that doesn't pass --trace-json.
  std::optional<trace::ScopedSession> TraceSession;
  if (!TraceJsonPath.empty())
    TraceSession.emplace();
  auto WriteTrace = [&]() -> bool {
    if (!TraceSession)
      return true;
    if (TraceJsonPath == "-") {
      TraceSession->session().writeChromeJson(std::cout);
      return true;
    }
    std::ofstream Out(TraceJsonPath);
    if (!Out) {
      std::fprintf(stderr, "gmpc: cannot write %s\n", TraceJsonPath.c_str());
      return false;
    }
    TraceSession->session().writeChromeJson(Out);
    // Write errors (full device, revoked permissions) surface only after a
    // flush; without this the process would exit 0 with a truncated trace.
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "gmpc: error writing %s\n", TraceJsonPath.c_str());
      return false;
    }
    return true;
  };

  PassStatistics PassStats;
  const bool CollectStats = ShowStats || ShowTrace || !StatsJsonPath.empty() ||
                            !TraceJsonPath.empty();
  if (CollectStats)
    Opts.Stats = &PassStats;

  CompileResult R = compileGreenMarlFile(File, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "%s: compilation failed\n%s", File.c_str(),
                 R.Diags->dump().c_str());
    return 1;
  }
  // Lint warnings don't fail the compile (without --Werror) but must still
  // reach the user.
  if (R.Diags->warningCount() > 0)
    std::fprintf(stderr, "%s", R.Diags->dump().c_str());

  if (DumpCanonical)
    std::printf("%s", printProcedure(R.Proc).c_str());
  if (DumpIR)
    std::printf("%s", pir::printProgram(*R.Program).c_str());
  if (Analyze)
    std::printf("%s", pir::renderDataFlow(*R.Program,
                                          pir::analyzeDataFlow(*R.Program))
                          .c_str());
  if (EmitJava)
    std::printf("%s", pir::emitJava(*R.Program).c_str());
  if (EmitGiraph)
    std::printf("%s",
                pir::emitJava(*R.Program, pir::JavaDialect::Giraph).c_str());
  if (ShowFeatures)
    for (const std::string &F : R.Features)
      std::printf("%s\n", F.c_str());
  if (ShowLoc)
    std::printf("%u\n", pir::countCodeLines(pir::emitJava(*R.Program)));
  if (!EmitCppPath.empty()) {
    std::string Src;
    {
      trace::ScopedSpan Span(0, "cpp-codegen", pregel::tracecat::Setup);
      Src = pir::emitCpp(*R.Program);
    }
    if (Src.empty()) {
      std::fprintf(stderr,
                   "gmpc: %s uses constructs outside the native backend's "
                   "subset; no C++ emitted\n",
                   R.Program->Name.c_str());
      return 1;
    }
    if (EmitCppPath == "-") {
      std::printf("%s", Src.c_str());
    } else {
      // A directory target names the file after the program, which is the
      // layout the precompiled registry expects (file basename == factory
      // symbol suffix).
      std::string OutPath = EmitCppPath;
      struct stat St;
      if (!OutPath.empty() && OutPath.back() == '/')
        OutPath.pop_back();
      if (stat(OutPath.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
        OutPath += "/" + pir::CodegenEmitter::sanitize(R.Program->Name) +
                   ".cpp";
      std::ofstream Out(OutPath);
      Out << Src;
      Out.flush();
      if (!Out) {
        std::fprintf(stderr, "gmpc: cannot write %s\n", OutPath.c_str());
        return 1;
      }
      std::fprintf(stderr, "gmpc: wrote %s\n", OutPath.c_str());
    }
  }

  if (!Run) {
    // Compile-only observability: the pass table, and a JSON report whose
    // "runs" entry carries only compiler stats (halt == "none" marks it as
    // not executed).
    if (ShowStats)
      std::fprintf(HumanOut, "%s", PassStats.renderTable().c_str());
    if (!StatsJsonPath.empty()) {
      pregel::JsonSink Sink(StatsJsonPath);
      pregel::RunMetadata Meta;
      Meta.Program = R.Program->Name;
      Meta.Graph = "(not run)";
      Sink.report(Meta, pregel::RunStats{}, &PassStats);
      std::string Err;
      if (!Sink.close(&Err)) {
        std::fprintf(stderr, "gmpc: %s\n", Err.c_str());
        return 1;
      }
    }
    return WriteTrace() ? 0 : 1;
  }

  // Assemble the input graph.
  Graph G = [&]() -> Graph {
    trace::ScopedSpan Span(0, "graph-load", pregel::tracecat::Setup);
    if (!GraphFile.empty()) {
      std::string Err;
      auto Loaded = loadEdgeListFile(GraphFile, 0, &Err);
      if (!Loaded) {
        std::fprintf(stderr, "gmpc: %s\n", Err.c_str());
        std::exit(1);
      }
      return std::move(*Loaded);
    }
    if (GenRMAT)
      return generateRMAT(GenNodes, GenEdges, Seed);
    if (GenUniform)
      return generateUniformRandom(GenNodes, GenEdges, Seed);
    std::fprintf(stderr, "gmpc: --run needs --graph-file / --graph-rmat / "
                         "--graph-uniform\n");
    std::exit(2);
  }();
  std::string GraphDesc =
      !GraphFile.empty()
          ? GraphFile
          : (GenRMAT ? "rmat(" : "uniform(") + std::to_string(GenNodes) +
                "," + std::to_string(GenEdges) + ")";

  exec::ExecArgs Args;
  for (const auto &[Name, Val] : ScalarArgs) {
    int Idx = R.Program->findGlobal(Name);
    if (Idx < 0) {
      std::fprintf(stderr, "gmpc: no scalar argument named '%s'\n",
                   Name.c_str());
      return 2;
    }
    ValueKind K = R.Program->Globals[Idx].Ty;
    if (K == ValueKind::Double)
      Args.Scalars[Name] = Value::makeDouble(std::strtod(Val.c_str(), nullptr));
    else if (K == ValueKind::Bool)
      Args.Scalars[Name] = Value::makeBool(Val == "true" || Val == "1");
    else
      Args.Scalars[Name] = Value::makeInt(parseInt(Val.c_str()));
  }
  std::mt19937_64 Rng(Seed + 17);
  for (const RandProp &RP : RandProps) {
    std::uniform_int_distribution<int64_t> Dist(RP.Lo, RP.Hi);
    size_t N = RP.Edge ? G.numEdges() : G.numNodes();
    std::vector<Value> Vals(N);
    for (auto &V : Vals)
      V = Value::makeInt(Dist(Rng));
    if (RP.Edge)
      Args.EdgeProps[RP.Name] = std::move(Vals);
    else
      Args.NodeProps[RP.Name] = std::move(Vals);
  }
  if (std::string Missing = exec::missingArgument(*R.Program, Args);
      !Missing.empty()) {
    std::fprintf(stderr, "gmpc: %s\n", Missing.c_str());
    return 2;
  }

  pregel::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Threaded = Threaded;
  Cfg.Partition = Partition;
  Cfg.LalpThreshold = LalpThreshold;
  Cfg.RandomSeed = Seed;
  Cfg.Backend = Backend;
  Cfg.Schedule = Schedule;
  DiagnosticEngine RunDiags;
  Cfg.Diags = &RunDiags;
  pregel::traceNameLanes(Workers);
  exec::BackendRun BRun =
      exec::runProgramWithBackend(*R.Program, G, std::move(Args), Cfg);
  pregel::RunStats &Stats = BRun.Stats;
  for (const Diagnostic &D : RunDiags.diagnostics())
    std::fprintf(stderr, "gmpc: %s\n", D.toString().c_str());

  std::fprintf(HumanOut, "graph: %u nodes, %llu edges\n", G.numNodes(),
               static_cast<unsigned long long>(G.numEdges()));
  std::fprintf(HumanOut, "run: %s [backend: %s]\n", Stats.toString().c_str(),
               exec::backendKindName(BRun.Used));
  if (BRun.returnValue())
    std::fprintf(HumanOut, "return: %s\n",
                 BRun.returnValue()->toString().c_str());
  for (const std::string &Name : PrintProps) {
    std::fprintf(HumanOut, "%s:", Name.c_str());
    NodeId Limit = std::min<NodeId>(G.numNodes(), 20);
    for (NodeId N = 0; N < Limit; ++N)
      std::fprintf(HumanOut, " %s",
                   BRun.nodeValue(Name, N).toString().c_str());
    if (G.numNodes() > Limit)
      std::fprintf(HumanOut, " ...");
    std::fprintf(HumanOut, "\n");
  }

  if (CollectStats) {
    pregel::RunMetadata Meta;
    Meta.Program = R.Program->Name;
    Meta.Graph = GraphDesc;
    Meta.NumNodes = G.numNodes();
    Meta.NumEdges = G.numEdges();
    Meta.Workers = Workers;
    Meta.Threaded = Cfg.Threaded;
    Meta.Seed = Seed;
    Meta.MessageFormat = "packed";
    Meta.MailboxRecordBytes = pir::deriveMessageLayout(*R.Program).recordSize();
    Meta.Partition = pregel::partitionStrategyName(Partition);
    Meta.LalpThreshold = LalpThreshold;
    Meta.Backend = exec::backendKindName(BRun.Used);
    Meta.Schedule = pregel::scheduleModeName(Schedule);
    pregel::Partition Part = pregel::makePartition(G, Partition, Workers);
    Meta.WorkerEdges = Part.edgeCounts(G);
    Meta.WorkerVertices.resize(Workers);
    for (unsigned Worker = 0; Worker < Workers; ++Worker)
      Meta.WorkerVertices[Worker] = Part.ownedCount(Worker);

    if (ShowStats || ShowTrace) {
      pregel::TableSink Sink(HumanOut, ShowTrace);
      Sink.report(Meta, Stats, &PassStats);
    }
    if (!StatsJsonPath.empty()) {
      pregel::JsonSink Sink(StatsJsonPath);
      Sink.report(Meta, Stats, &PassStats);
      std::string Err;
      if (!Sink.close(&Err)) {
        std::fprintf(stderr, "gmpc: %s\n", Err.c_str());
        return 1;
      }
    }
  }
  return WriteTrace() ? 0 : 1;
}
