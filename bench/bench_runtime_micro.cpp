//===- bench/bench_runtime_micro.cpp - Substrate microbenchmarks --------------===//
///
/// google-benchmark microbenchmarks for the simulated-GPS substrate and the
/// compiler itself: message routing throughput, superstep overhead as a
/// function of the worker count, end-to-end PageRank iteration cost, and
/// compilation latency per bundled algorithm.
///
/// Invoked as `bench_runtime_micro --scaling [reps] [--json <path>]` it
/// instead runs the worker/thread scaling sweep — PageRank and SSSP on an
/// RMAT graph across worker counts with the threaded engine on and off —
/// and writes every run as a gm.run-report JSON record (default path
/// BENCH_scaling.json; the checked-in copy is the perf trajectory anchor).
///
/// `bench_runtime_micro --messages [reps] [--smoke] [--json <path>]` runs
/// the message sweep instead: hand-written PageRank and SSSP on packed
/// mailboxes at 1 and 8 workers (wall clock, record bytes, message and byte
/// totals), then the compiled-IR leg that gates the dataflow passes'
/// record sizes and wire totals (default path BENCH_messages.json). --smoke
/// shrinks the graph so the sweep doubles as a tier-1 smoke test of the
/// bench pipeline.
///
/// `bench_runtime_micro --partitioning [reps] [--smoke] [--json <path>]`
/// runs the partitioning sweep: PageRank and SSSP across all three partition
/// strategies with LALP mirroring off and on (default path
/// BENCH_partitioning.json). It fails if message totals diverge across
/// strategies (partitioning leaked into execution) or if LALP's
/// network-byte saving on PageRank is absent or mis-accounted.
///
/// `bench_runtime_micro --backends [reps] [--smoke] [--json <path>]` runs
/// the execution-backend sweep: compiled PageRank and SSSP under the IR
/// interpreter and the native precompiled registry (default path
/// BENCH_backends.json). It fails if the backends' message/byte totals
/// diverge, if the native request misses the registry, or — outside
/// --smoke — if native PageRank's compute phase is not at least 2x faster
/// than the interpreter's (the codegen backend's reason to exist).
///
/// `bench_runtime_micro --schedule [reps] [--smoke] [--json <path>]` runs
/// the traversal-schedule sweep: hand-written PageRank (always-dense
/// frontier) and vote-to-halt SSSP (thinning frontier) under forced dense,
/// forced sparse, and auto scheduling (default path BENCH_schedule.json).
/// It fails if message/byte/superstep totals diverge across modes (the
/// schedule leaked into semantics), if auto SSSP never goes sparse, or —
/// outside --smoke — if auto SSSP is not at least 1.5x faster than forced
/// dense, or auto PageRank regresses more than 5% against forced dense.
///
/// `bench_runtime_micro --serving [reps] [--smoke] [--json <path>]` runs
/// the gmd serving sweep (docs/serving.md): PageRank jobs against the
/// in-process Service under three regimes — one-shot (load + compile + run
/// per job, the gmpc cost model), resident (graph loaded once, jobs reuse
/// the snapshot), and cache-hit (identical resubmission served from the
/// result cache). It fails if the three regimes' reports are not
/// bit-identical after canonicalization, if a resubmission misses the
/// cache, or — outside --smoke — if the resident regime's amortized
/// per-job wall time is not at least 3x better than one-shot (default path
/// BENCH_serving.json).
///
/// `bench_runtime_micro --compare <baseline.json> <fresh.json>
/// [--max-regress <frac>]` is the regression gate: it matches run records
/// between two gm.run-report documents by configuration, requires message
/// and network-byte totals to agree exactly (the engine is deterministic),
/// and fails when a fresh median wall-clock exceeds baseline by more than
/// the allowed fraction (default 0.5). `--check-baseline <file>...`
/// validates checked-in baselines without running anything.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "algorithms/manual/ManualPrograms.h"
#include "exec/Backend.h"
#include "service/Service.h"
#include "support/JSON.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace gm;
using namespace gm::bench;

namespace {

/// Baseline: a program that floods one message per edge per superstep.
class FloodProgram : public pregel::VertexProgram {
public:
  explicit FloodProgram(uint64_t Steps) : Steps(Steps) {}
  void init(const Graph &, pregel::MasterContext &) override {}
  void masterCompute(pregel::MasterContext &Master) override {
    if (Master.superstep() >= Steps)
      Master.haltAll();
  }
  void compute(pregel::VertexContext &Ctx) override {
    pregel::Message M;
    M.push(Value::makeInt(static_cast<int64_t>(Ctx.id())));
    Ctx.sendToAllOutNeighbors(M);
  }
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }

private:
  uint64_t Steps;
};

void BM_EngineMessageThroughput(benchmark::State &State) {
  Graph G = generateUniformRandom(1 << 14, 1 << 17, 7);
  pregel::Config Cfg;
  Cfg.NumWorkers = static_cast<unsigned>(State.range(0));
  uint64_t Messages = 0;
  for (auto _ : State) {
    FloodProgram P(4);
    pregel::RunStats Stats = pregel::Engine(G, Cfg).run(P);
    Messages += Stats.TotalMessages;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Messages));
}
BENCHMARK(BM_EngineMessageThroughput)->Arg(1)->Arg(4)->Arg(16);

/// Superstep overhead: empty compute over many steps.
class IdleProgram : public pregel::VertexProgram {
public:
  void init(const Graph &, pregel::MasterContext &) override {}
  void masterCompute(pregel::MasterContext &Master) override {
    if (Master.superstep() >= 64)
      Master.haltAll();
  }
  void compute(pregel::VertexContext &) override {}
  pregel::MessageLayout messageLayout() const override { return {}; }
};

void BM_EngineSuperstepOverhead(benchmark::State &State) {
  Graph G = generateUniformRandom(1 << 14, 1 << 15, 8);
  pregel::Config Cfg;
  Cfg.NumWorkers = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    IdleProgram P;
    pregel::Engine(G, Cfg).run(P);
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_EngineSuperstepOverhead)->Arg(1)->Arg(4)->Arg(16);

void BM_ManualPageRank(benchmark::State &State) {
  Graph G = generateRMAT(1 << 14, 1 << 17, 9);
  for (auto _ : State) {
    manual::PageRankProgram P(0.85, 0.0, 5);
    pregel::Config Cfg;
    Cfg.NumWorkers = 8;
    pregel::Engine(G, Cfg).run(P);
  }
}
BENCHMARK(BM_ManualPageRank);

void BM_GeneratedPageRank(benchmark::State &State) {
  Graph G = generateRMAT(1 << 14, 1 << 17, 9);
  CompileResult C = compileAlgorithm("pagerank");
  for (auto _ : State) {
    exec::ExecArgs Args;
    Args.Scalars["e"] = Value::makeDouble(0.0);
    Args.Scalars["d"] = Value::makeDouble(0.85);
    Args.Scalars["max_iter"] = Value::makeInt(5);
    pregel::Config Cfg;
    Cfg.NumWorkers = 8;
    exec::runProgram(*C.Program, G, std::move(Args), Cfg);
  }
}
BENCHMARK(BM_GeneratedPageRank);

void BM_CompileAlgorithm(benchmark::State &State, const char *Name) {
  for (auto _ : State) {
    CompileResult C = compileGreenMarlFile(algorithmPath(Name));
    benchmark::DoNotOptimize(C.Program.get());
    if (!C.ok())
      State.SkipWithError("compile failed");
  }
}
BENCHMARK_CAPTURE(BM_CompileAlgorithm, avg_teen, "avg_teen");
BENCHMARK_CAPTURE(BM_CompileAlgorithm, pagerank, "pagerank");
BENCHMARK_CAPTURE(BM_CompileAlgorithm, sssp, "sssp");
BENCHMARK_CAPTURE(BM_CompileAlgorithm, bipartite, "bipartite_matching");
BENCHMARK_CAPTURE(BM_CompileAlgorithm, bc, "bc_approx");

//===----------------------------------------------------------------------===//
// Worker/thread scaling sweep (--scaling)
//===----------------------------------------------------------------------===//

/// One sweep cell: \p Make builds a fresh program, \p Run returns its stats.
pregel::RunStats runSweepCell(pregel::VertexProgram &P, const Graph &G,
                              unsigned Workers, bool Threaded) {
  pregel::Config Cfg;
  Cfg.NumWorkers = Workers;
  Cfg.Threaded = Threaded;
  // Totals only: the per-superstep/per-worker trace would dwarf the
  // checked-in artifact without changing the wall-clock story.
  Cfg.CollectMetrics = false;
  return pregel::Engine(G, Cfg).run(P);
}

int runScalingSweep(int Reps, const std::string &JsonPath) {
  const NodeId Nodes = 1u << 17;
  const EdgeId Edges = 1u << 21; // ~2M edges: past the acceptance floor
  const uint64_t Seed = 11;
  Graph G = generateRMAT(Nodes, Edges, Seed);
  std::vector<int64_t> Len(G.numEdges());
  {
    std::mt19937_64 Rng(Seed);
    std::uniform_int_distribution<int64_t> Dist(1, 10);
    for (auto &L : Len)
      L = Dist(Rng);
  }

  pregel::JsonSink Sink(JsonPath);
  const unsigned WorkerCounts[] = {1, 2, 4, 8};
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::printf("Worker/thread scaling sweep: rmat(%u,%llu), %d reps, host "
              "cores: %u\n",
              G.numNodes(), static_cast<unsigned long long>(G.numEdges()),
              Reps, HostCores);
  hr('=');
  std::printf("%-10s %-10s %8s | %12s %14s | %9s\n", "algorithm", "mode",
              "workers", "median(s)", "vs 1-worker", "steps");
  hr();

  int Failures = 0;
  for (const char *Algo : {"pagerank", "sssp"}) {
    double OneWorkerMedian = 0.0;
    for (bool Threaded : {false, true}) {
      for (unsigned W : WorkerCounts) {
        std::vector<double> Times;
        pregel::RunStats Last;
        for (int R = 0; R < Reps; ++R) {
          pregel::RunStats Stats;
          if (std::strcmp(Algo, "pagerank") == 0) {
            manual::PageRankProgram P(0.85, 0.0, 5);
            Stats = runSweepCell(P, G, W, Threaded);
          } else {
            manual::SSSPProgram P(0, Len);
            Stats = runSweepCell(P, G, W, Threaded);
          }
          Times.push_back(Stats.WallSeconds);
          Last = Stats;

          pregel::RunMetadata Meta;
          Meta.Program = Algo;
          Meta.Graph = "rmat(" + std::to_string(Nodes) + "," +
                       std::to_string(Edges) + ")";
          Meta.NumNodes = G.numNodes();
          Meta.NumEdges = G.numEdges();
          Meta.Workers = W;
          Meta.Threaded = Threaded;
          Meta.Seed = Seed;
          Meta.HostCores = HostCores;
          Sink.report(Meta, Stats);
        }
        std::sort(Times.begin(), Times.end());
        double Median = Times[Times.size() / 2];
        if (!Threaded && W == 1)
          OneWorkerMedian = Median;
        std::printf("%-10s %-10s %8u | %12.4f %13.2fx | %9llu\n", Algo,
                    Threaded ? "threaded" : "sequential", W, Median,
                    OneWorkerMedian > 0 ? OneWorkerMedian / Median : 1.0,
                    static_cast<unsigned long long>(Last.Supersteps));
      }
    }
    hr();
  }

  std::string Err;
  if (!Sink.close(&Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Message sweep (--messages)
//===----------------------------------------------------------------------===//

int runMessageSweep(int Reps, const std::string &JsonPath, bool Smoke) {
  const NodeId Nodes = Smoke ? (1u << 10) : (1u << 16);
  const EdgeId Edges = Smoke ? (1u << 13) : (1u << 20);
  const uint64_t Seed = 13;
  Graph G = generateRMAT(Nodes, Edges, Seed);
  std::vector<int64_t> Len(G.numEdges());
  {
    std::mt19937_64 Rng(Seed);
    std::uniform_int_distribution<int64_t> Dist(1, 10);
    for (auto &L : Len)
      L = Dist(Rng);
  }

  pregel::JsonSink Sink(JsonPath);
  const unsigned WorkerCounts[] = {1, 8};
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::printf("Message sweep: rmat(%u,%llu), %d reps, host cores: %u\n",
              G.numNodes(), static_cast<unsigned long long>(G.numEdges()),
              Reps, HostCores);
  hr('=');
  std::printf("%-10s %8s %10s | %12s | %12s %10s\n", "algorithm", "workers",
              "rec-bytes", "median(s)", "messages", "net-bytes");
  hr();

  int Failures = 0;
  for (const char *Algo : {"pagerank", "sssp"}) {
    for (unsigned W : WorkerCounts) {
      std::vector<double> Times;
      pregel::RunStats Last;
      unsigned RecBytes = 0;
      for (int R = 0; R < Reps; ++R) {
        pregel::Config Cfg;
        Cfg.NumWorkers = W;
        Cfg.Threaded = W > 1;
        Cfg.CollectMetrics = false;
        pregel::RunStats Stats;
        if (std::strcmp(Algo, "pagerank") == 0) {
          manual::PageRankProgram P(0.85, 0.0, 5);
          RecBytes = P.messageLayout().recordSize();
          Stats = pregel::Engine(G, Cfg).run(P);
        } else {
          manual::SSSPProgram P(0, Len);
          RecBytes = P.messageLayout().recordSize();
          Stats = pregel::Engine(G, Cfg).run(P);
        }
        Times.push_back(Stats.WallSeconds);
        Last = Stats;

        pregel::RunMetadata Meta;
        Meta.Program = Algo;
        Meta.Graph = "rmat(" + std::to_string(Nodes) + "," +
                     std::to_string(Edges) + ")";
        Meta.NumNodes = G.numNodes();
        Meta.NumEdges = G.numEdges();
        Meta.Workers = W;
        Meta.Threaded = Cfg.Threaded;
        Meta.Seed = Seed;
        Meta.HostCores = HostCores;
        Meta.MessageFormat = "packed";
        Meta.MailboxRecordBytes = RecBytes;
        Sink.report(Meta, Stats);
      }
      std::sort(Times.begin(), Times.end());
      std::printf("%-10s %8u %10u | %12.4f | %12llu %10llu\n", Algo, W,
                  RecBytes, Times[Times.size() / 2],
                  static_cast<unsigned long long>(Last.TotalMessages),
                  static_cast<unsigned long long>(Last.NetworkBytes));
    }
    hr();
  }

  // Compiled-IR leg: the wire schema of every bundled algorithm with the
  // dataflow cleanup passes on vs off. Message-field pruning may only ever
  // shrink the packed record (a program whose translator-emitted payloads
  // are all live keeps its size bit for bit) — a growth here means the
  // pruner re-indexed into a bigger layout, which the gate turns into a
  // failure. Also runs two of them to pin that the optimized IR moves no
  // more bytes than the unoptimized one.
  hr('=');
  std::printf("Compiled-IR dataflow passes: packed record pre/post prune\n");
  std::printf("%-20s %12s %12s\n", "program", "pre-prune", "post-prune");
  const char *CompiledAlgos[] = {
      "pagerank",    "pagerank_weighted",  "sssp",
      "comp_label",  "avg_teen",           "conductance",
      "degree_stats", "bipartite_matching", "bc_approx"};
  auto PackedRecordBytes = [](const pir::PregelProgram &P) -> unsigned {
    return pir::deriveMessageLayout(P).recordSize();
  };
  CompileOptions NoDF;
  NoDF.DataflowOpts = false;
  for (const char *Name : CompiledAlgos) {
    CompileResult Pre = compileAlgorithm(Name, NoDF);
    CompileResult Post = compileAlgorithm(Name);
    unsigned PreB = PackedRecordBytes(*Pre.Program);
    unsigned PostB = PackedRecordBytes(*Post.Program);
    std::printf("%-20s %12u %12u%s\n", Name, PreB, PostB,
                PostB < PreB ? "  (pruned)" : "");
    if (PostB > PreB) {
      std::fprintf(stderr,
                   "FAIL: %s: message-field pruning grew the packed record "
                   "(%u B -> %u B)\n",
                   Name, PreB, PostB);
      ++Failures;
    }
  }
  hr();

  // Run leg: compiled PageRank and SSSP, optimized vs unoptimized IR, on
  // the sweep's graph. The cleanup passes must be invisible on the wire:
  // same message count, and never more network bytes.
  for (const char *Algo : {"pagerank", "sssp"}) {
    uint64_t PreBytes = 0, PreMsgs = 0;
    for (bool Optimized : {false, true}) {
      CompileResult C =
          compileAlgorithm(Algo, Optimized ? CompileOptions{} : NoDF);
      exec::ExecArgs Args;
      if (std::strcmp(Algo, "pagerank") == 0) {
        Args.Scalars["e"] = Value::makeDouble(0.0);
        Args.Scalars["d"] = Value::makeDouble(0.85);
        Args.Scalars["max_iter"] = Value::makeInt(5);
      } else {
        Args.Scalars["root"] = Value::makeInt(0);
        std::vector<Value> LenVals(Len.size());
        for (size_t I = 0; I < Len.size(); ++I)
          LenVals[I] = Value::makeInt(Len[I]);
        Args.EdgeProps["len"] = std::move(LenVals);
      }
      pregel::Config Cfg;
      Cfg.NumWorkers = 8;
      Cfg.Threaded = true;
      Cfg.CollectMetrics = false;
      pregel::RunStats Stats =
          exec::runProgram(*C.Program, G, std::move(Args), Cfg);
      unsigned RecB = PackedRecordBytes(*C.Program);
      std::printf("%-10s %-10s rec-bytes %3u | messages %12llu net-bytes "
                  "%12llu\n",
                  Algo, Optimized ? "optimized" : "unoptimized", RecB,
                  static_cast<unsigned long long>(Stats.TotalMessages),
                  static_cast<unsigned long long>(Stats.NetworkBytes));
      if (!Optimized) {
        PreBytes = Stats.NetworkBytes;
        PreMsgs = Stats.TotalMessages;
      } else if (Stats.TotalMessages != PreMsgs ||
                 Stats.NetworkBytes > PreBytes) {
        std::fprintf(stderr,
                     "FAIL: %s: optimized IR changed the wire (messages %llu "
                     "vs %llu, bytes %llu vs %llu baseline)\n",
                     Algo,
                     static_cast<unsigned long long>(Stats.TotalMessages),
                     static_cast<unsigned long long>(PreMsgs),
                     static_cast<unsigned long long>(Stats.NetworkBytes),
                     static_cast<unsigned long long>(PreBytes));
        ++Failures;
      }

      pregel::RunMetadata Meta;
      Meta.Program = std::string(Algo) +
                     (Optimized ? "/compiled-opt" : "/compiled-noopt");
      Meta.Graph = "rmat(" + std::to_string(Nodes) + "," +
                   std::to_string(Edges) + ")";
      Meta.NumNodes = G.numNodes();
      Meta.NumEdges = G.numEdges();
      Meta.Workers = 8;
      Meta.Threaded = true;
      Meta.Seed = Seed;
      Meta.HostCores = HostCores;
      Meta.MessageFormat = "packed";
      Meta.MailboxRecordBytes = RecB;
      Sink.report(Meta, Stats);
    }
  }
  hr();

  std::string Err;
  if (!Sink.close(&Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Partitioning sweep (--partitioning)
//===----------------------------------------------------------------------===//

int runPartitioningSweep(int Reps, const std::string &JsonPath, bool Smoke) {
  const NodeId Nodes = Smoke ? (1u << 10) : (1u << 16);
  const EdgeId Edges = Smoke ? (1u << 13) : (1u << 20);
  const uint64_t Seed = 13;
  const uint32_t LalpThreshold = 32;
  Graph G = generateRMAT(Nodes, Edges, Seed);
  std::vector<int64_t> Len(G.numEdges());
  {
    std::mt19937_64 Rng(Seed);
    std::uniform_int_distribution<int64_t> Dist(1, 10);
    for (auto &L : Len)
      L = Dist(Rng);
  }

  pregel::JsonSink Sink(JsonPath);
  const unsigned W = 8;
  const unsigned HostCores = std::thread::hardware_concurrency();
  constexpr pregel::PartitionStrategy Strategies[] = {
      pregel::PartitionStrategy::Hash, pregel::PartitionStrategy::Range,
      pregel::PartitionStrategy::EdgeBalanced};

  std::printf("Partitioning sweep: rmat(%u,%llu), workers=%u, lalp "
              "threshold=%u, %d reps, host cores: %u\n",
              G.numNodes(), static_cast<unsigned long long>(G.numEdges()), W,
              LalpThreshold, Reps, HostCores);
  hr('=');
  std::printf("%-10s %-14s %5s | %10s %9s | %12s %12s %12s\n", "algorithm",
              "partition", "lalp", "median(s)", "vs hash", "messages",
              "net-bytes", "saved");
  hr();

  int Failures = 0;
  for (const char *Algo : {"pagerank", "sssp"}) {
    double HashOffMedian = 0.0;
    uint64_t OffMessages = 0;
    bool FirstCell = true;
    for (pregel::PartitionStrategy S : Strategies) {
      // Per-worker ownership for the report (partition cost, not run cost).
      pregel::Partition Part = pregel::makePartition(G, S, W);
      std::vector<uint64_t> WorkerVertices(W);
      for (unsigned Worker = 0; Worker < W; ++Worker)
        WorkerVertices[Worker] = Part.ownedCount(Worker);
      std::vector<uint64_t> WorkerEdges = Part.edgeCounts(G);

      double OffMedian = 0.0;
      uint64_t OffNetBytes = 0;
      for (uint32_t Lalp : {0u, LalpThreshold}) {
        std::vector<double> Times;
        pregel::RunStats Last;
        for (int R = 0; R < Reps; ++R) {
          pregel::Config Cfg;
          Cfg.NumWorkers = W;
          Cfg.Threaded = true;
          Cfg.Partition = S;
          Cfg.LalpThreshold = Lalp;
          Cfg.CollectMetrics = false;
          pregel::RunStats Stats;
          if (std::strcmp(Algo, "pagerank") == 0) {
            manual::PageRankProgram P(0.85, 0.0, 5);
            Stats = pregel::Engine(G, Cfg).run(P);
          } else {
            manual::SSSPProgram P(0, Len);
            Stats = pregel::Engine(G, Cfg).run(P);
          }
          Times.push_back(Stats.WallSeconds);
          Last = Stats;

          pregel::RunMetadata Meta;
          Meta.Program = Algo;
          Meta.Graph = "rmat(" + std::to_string(Nodes) + "," +
                       std::to_string(Edges) + ")";
          Meta.NumNodes = G.numNodes();
          Meta.NumEdges = G.numEdges();
          Meta.Workers = W;
          Meta.Threaded = true;
          Meta.Seed = Seed;
          Meta.HostCores = HostCores;
          Meta.Partition = pregel::partitionStrategyName(S);
          Meta.LalpThreshold = Lalp;
          Meta.WorkerVertices = WorkerVertices;
          Meta.WorkerEdges = WorkerEdges;
          Sink.report(Meta, Stats);
        }
        std::sort(Times.begin(), Times.end());
        double Median = Times[Times.size() / 2];
        if (Lalp == 0) {
          OffMedian = Median;
          OffNetBytes = Last.NetworkBytes;
          if (FirstCell) {
            HashOffMedian = Median;
            OffMessages = Last.TotalMessages;
            FirstCell = false;
          } else if (Last.TotalMessages != OffMessages) {
            // Delivered work is partition-independent; a diverging total
            // means the strategy leaked into execution.
            std::fprintf(
                stderr,
                "FAIL: %s %s: messages diverge across strategies "
                "(%llu vs %llu)\n",
                Algo, pregel::partitionStrategyName(S),
                static_cast<unsigned long long>(Last.TotalMessages),
                static_cast<unsigned long long>(OffMessages));
            ++Failures;
          }
        } else if (std::strcmp(Algo, "pagerank") == 0 && W > 1) {
          // Neighborhood broadcasts must get cheaper, and exactly by the
          // amount the mirror accounting claims.
          if (Last.NetworkBytes >= OffNetBytes ||
              Last.NetworkBytes + Last.MirrorBytesSaved != OffNetBytes) {
            std::fprintf(
                stderr,
                "FAIL: %s %s: LALP byte accounting off "
                "(on=%llu + saved=%llu vs off=%llu)\n",
                Algo, pregel::partitionStrategyName(S),
                static_cast<unsigned long long>(Last.NetworkBytes),
                static_cast<unsigned long long>(Last.MirrorBytesSaved),
                static_cast<unsigned long long>(OffNetBytes));
            ++Failures;
          }
        } else if (Lalp != 0 && OffMedian > 0) {
          // SSSP sends per-edge payloads, so LALP must stay a no-op; the
          // wall delta is reported but not a failure (timing noise).
          std::printf("%-10s %-14s       lalp-on wall delta: %+.1f%%\n", Algo,
                      pregel::partitionStrategyName(S),
                      (Median / OffMedian - 1.0) * 100.0);
        }
        std::printf("%-10s %-14s %5u | %10.4f %8.2fx | %12llu %12llu %12llu\n",
                    Algo, pregel::partitionStrategyName(S), Lalp, Median,
                    HashOffMedian > 0 ? HashOffMedian / Median : 1.0,
                    static_cast<unsigned long long>(Last.TotalMessages),
                    static_cast<unsigned long long>(Last.NetworkBytes),
                    static_cast<unsigned long long>(Last.MirrorBytesSaved));
      }
    }
    hr();
  }

  std::string Err;
  if (!Sink.close(&Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Execution-backend sweep (--backends)
//===----------------------------------------------------------------------===//

int runBackendSweep(int Reps, const std::string &JsonPath, bool Smoke) {
  // Same scale as the BM_*PageRank microbenchmarks above: large enough to
  // be stable, small enough that the engine's memory traffic (mailbox
  // memcpy, cache misses — identical under every backend) does not drown
  // the program-execution delta this sweep measures.
  const NodeId Nodes = Smoke ? (1u << 10) : (1u << 14);
  const EdgeId Edges = Smoke ? (1u << 13) : (1u << 17);
  const uint64_t Seed = 13;
  Graph G = generateRMAT(Nodes, Edges, Seed);
  std::vector<Value> Len = randomIntValues(G.numEdges(), 1, 10, Seed);

  CompileResult Compiled[2] = {compileAlgorithm("pagerank"),
                               compileAlgorithm("sssp")};
  const char *Names[2] = {"pagerank", "sssp"};

  pregel::JsonSink Sink(JsonPath);
  const unsigned WorkerCounts[] = {1, 8};
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::printf("Execution-backend sweep: rmat(%u,%llu), %d reps, host cores: "
              "%u\n",
              G.numNodes(), static_cast<unsigned long long>(G.numEdges()),
              Reps, HostCores);
  hr('=');
  std::printf("%-10s %-16s %8s | %10s %10s %9s | %12s\n", "algorithm",
              "backend", "workers", "wall(s)", "compute(s)", "vs interp",
              "messages");
  hr();

  int Failures = 0;
  for (int A = 0; A < 2; ++A) {
    const pir::PregelProgram &Prog = *Compiled[A].Program;
    for (unsigned W : WorkerCounts) {
      double InterpCompute = 0.0;
      uint64_t InterpMessages = 0, InterpNetBytes = 0;
      for (pregel::ExecBackend Backend :
           {pregel::ExecBackend::Interp, pregel::ExecBackend::Native}) {
        const bool Native = Backend == pregel::ExecBackend::Native;
        std::vector<double> Walls, Computes;
        pregel::RunStats Last;
        std::string BackendName;
        for (int R = 0; R < Reps; ++R) {
          pregel::Config Cfg;
          Cfg.NumWorkers = W;
          Cfg.Threaded = W > 1;
          Cfg.Backend = Backend;
          // Per-superstep metrics on: the compute-phase split is the
          // number this sweep exists to compare. No combiners — combining
          // is backend-independent engine work (same cost both sides) that
          // would dilute the program-execution delta; the message and
          // partitioning sweeps cover it.
          Cfg.CollectMetrics = true;

          exec::ExecArgs Args;
          if (A == 0) {
            Args.Scalars["e"] = Value::makeDouble(0.0);
            Args.Scalars["d"] = Value::makeDouble(0.85);
            Args.Scalars["max_iter"] = Value::makeInt(5);
          } else {
            Args.Scalars["root"] = Value::makeInt(0);
            Args.EdgeProps["len"] = Len;
          }

          exec::BackendRun Run =
              exec::runProgramWithBackend(Prog, G, std::move(Args), Cfg);
          if (Native && Run.Used != exec::BackendKind::NativeRegistry) {
            // The sweep measures the precompiled path; landing anywhere
            // else means a stale golden or a broken registry.
            std::fprintf(stderr,
                         "FAIL: %s workers=%u: native run used backend "
                         "'%s', not the precompiled registry\n",
                         Names[A], W, exec::backendKindName(Run.Used));
            ++Failures;
          }
          BackendName = exec::backendKindName(Run.Used);
          double Compute = 0.0;
          for (const pregel::SuperstepMetrics &S : Run.Stats.Steps)
            Compute += S.ComputeSeconds;
          Walls.push_back(Run.Stats.WallSeconds);
          Computes.push_back(Compute);
          Last = Run.Stats;

          pregel::RunMetadata Meta;
          Meta.Program = Names[A];
          Meta.Graph = "rmat(" + std::to_string(Nodes) + "," +
                       std::to_string(Edges) + ")";
          Meta.NumNodes = G.numNodes();
          Meta.NumEdges = G.numEdges();
          Meta.Workers = W;
          Meta.Threaded = Cfg.Threaded;
          Meta.Seed = Seed;
          Meta.HostCores = HostCores;
          Meta.Backend = BackendName;
          Sink.report(Meta, Last);
        }
        std::sort(Walls.begin(), Walls.end());
        std::sort(Computes.begin(), Computes.end());
        double WallMedian = Walls[Walls.size() / 2];
        double ComputeMedian = Computes[Computes.size() / 2];
        if (!Native) {
          InterpCompute = ComputeMedian;
          InterpMessages = Last.TotalMessages;
          InterpNetBytes = Last.NetworkBytes;
        } else {
          // Backends must move identical work: only hot-path cost changes.
          if (Last.TotalMessages != InterpMessages ||
              Last.NetworkBytes != InterpNetBytes) {
            std::fprintf(
                stderr,
                "FAIL: %s workers=%u: native totals diverge from interp "
                "(messages %llu vs %llu, bytes %llu vs %llu)\n",
                Names[A], W,
                static_cast<unsigned long long>(Last.TotalMessages),
                static_cast<unsigned long long>(InterpMessages),
                static_cast<unsigned long long>(Last.NetworkBytes),
                static_cast<unsigned long long>(InterpNetBytes));
            ++Failures;
          }
          // The acceptance bar: on PageRank, generated code must cut the
          // compute phase at least in half. Smoke graphs are too small for
          // stable timing, so only the full sweep enforces it.
          if (!Smoke && A == 0 && ComputeMedian > 0 &&
              InterpCompute < 2.0 * ComputeMedian) {
            std::fprintf(stderr,
                         "FAIL: pagerank workers=%u: native compute phase "
                         "%.4fs is not 2x faster than interp %.4fs "
                         "(%.2fx)\n",
                         W, ComputeMedian, InterpCompute,
                         InterpCompute / ComputeMedian);
            ++Failures;
          }
        }
        std::printf("%-10s %-16s %8u | %10.4f %10.4f %8.2fx | %12llu\n",
                    Names[A], BackendName.c_str(), W, WallMedian,
                    ComputeMedian,
                    Native && ComputeMedian > 0
                        ? InterpCompute / ComputeMedian
                        : 1.0,
                    static_cast<unsigned long long>(Last.TotalMessages));
      }
    }
    hr();
  }

  std::string Err;
  if (!Sink.close(&Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Traversal-schedule sweep (--schedule)
//===----------------------------------------------------------------------===//

/// Directed 2D grid (right + down lattice edges): the high-diameter,
/// bounded-degree shape of road networks — the workload class
/// direction-optimizing schedulers exist for. SSSP's frontier here is one
/// thin diagonal wave at a time, so almost every superstep is sparse.
Graph makeGridGraph(NodeId Rows, NodeId Cols) {
  Graph::Builder Builder(Rows * Cols);
  for (NodeId R = 0; R < Rows; ++R)
    for (NodeId C = 0; C < Cols; ++C) {
      NodeId V = R * Cols + C;
      if (C + 1 < Cols)
        Builder.addEdge(V, V + 1);
      if (R + 1 < Rows)
        Builder.addEdge(V, V + Cols);
    }
  return std::move(Builder).build();
}

int runScheduleSweep(int Reps, const std::string &JsonPath, bool Smoke) {
  // SSSP is the algorithm the sparse schedule exists for: vote-to-halt
  // termination keeps the frontier to a thin wave of the grid, so the dense
  // path's per-superstep O(N) scans (compute, stale-inbox reset, region
  // layout) dominate its wall clock across the graph's ~Rows+Cols
  // supersteps. PageRank is the control: every superstep fronts the whole
  // graph, auto must stay dense, and any delta against forced dense is pure
  // scheduling overhead.
  const NodeId Rows = Smoke ? (1u << 5) : (1u << 8);
  const NodeId Cols = Smoke ? (1u << 5) : (1u << 9);
  const uint64_t Seed = 17;
  Graph G = makeGridGraph(Rows, Cols);
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Dist(1, 10);
  std::vector<int64_t> Len(G.numEdges());
  for (auto &V : Len)
    V = Dist(Rng);

  pregel::JsonSink Sink(JsonPath);
  const unsigned WorkerCounts[] = {1, 8};
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::printf("Traversal-schedule sweep: grid(%u,%llu), %d reps, host "
              "cores: %u\n",
              G.numNodes(), static_cast<unsigned long long>(G.numEdges()),
              Reps, HostCores);
  hr('=');
  std::printf("%-10s %-9s %8s | %10s %9s | %6s %7s | %12s\n", "algorithm",
              "schedule", "workers", "wall(s)", "vs dense", "steps",
              "sparse", "messages");
  hr();

  const char *Names[2] = {"pagerank", "sssp_vth"};
  int Failures = 0;
  for (int A = 0; A < 2; ++A) {
    for (unsigned W : WorkerCounts) {
      const pregel::ScheduleMode Modes[3] = {pregel::ScheduleMode::Dense,
                                             pregel::ScheduleMode::Sparse,
                                             pregel::ScheduleMode::Auto};
      std::vector<double> Walls[3];
      pregel::RunStats Stats[3];
      // Modes interleaved inside the rep loop: host-speed drift between
      // repetitions then hits every mode equally, and the best-of-reps
      // comparison below cancels it.
      for (int R = 0; R < Reps; ++R) {
        for (int M = 0; M < 3; ++M) {
          pregel::Config Cfg;
          Cfg.NumWorkers = W;
          Cfg.Threaded = W > 1;
          Cfg.Schedule = Modes[M];
          // Totals only: SSSP's ~770 supersteps would dwarf the checked-in
          // artifact with per-step records (the wall/totals comparison is
          // all this sweep gates on).
          Cfg.CollectMetrics = false;
          if (A == 0) {
            manual::PageRankProgram P(0.85, 0.0, Smoke ? 5 : 20);
            Stats[M] = pregel::Engine(G, Cfg).run(P);
          } else {
            manual::SSSPVoteToHaltProgram P(0, Len);
            Cfg.Combiners[0] = ReduceKind::Min;
            Stats[M] = pregel::Engine(G, Cfg).run(P);
          }
          Walls[M].push_back(Stats[M].WallSeconds);

          pregel::RunMetadata Meta;
          Meta.Program = Names[A];
          Meta.Graph = "grid(" + std::to_string(Rows) + "x" +
                       std::to_string(Cols) + ")";
          Meta.NumNodes = G.numNodes();
          Meta.NumEdges = G.numEdges();
          Meta.Workers = W;
          Meta.Threaded = Cfg.Threaded;
          Meta.Seed = Seed;
          Meta.HostCores = HostCores;
          Meta.Schedule = pregel::scheduleModeName(Modes[M]);
          Sink.report(Meta, Stats[M]);
        }
      }
      double DenseBest = 0.0;
      uint64_t DenseMessages = 0, DenseNetBytes = 0, DenseSteps = 0;
      for (int M = 0; M < 3; ++M) {
        const pregel::ScheduleMode Mode = Modes[M];
        const pregel::RunStats &Last = Stats[M];
        // Best-of-reps: the run closest to the code's actual cost, least
        // polluted by whatever else the host was doing.
        double WallBest =
            *std::min_element(Walls[M].begin(), Walls[M].end());
        const bool Dense = Mode == pregel::ScheduleMode::Dense;
        if (Dense) {
          DenseBest = WallBest;
          DenseMessages = Last.TotalMessages;
          DenseNetBytes = Last.NetworkBytes;
          DenseSteps = Last.Supersteps;
          if (Last.SparseSupersteps != 0) {
            std::fprintf(stderr,
                         "FAIL: %s workers=%u: forced dense ran %llu sparse "
                         "supersteps\n",
                         Names[A], W,
                         static_cast<unsigned long long>(
                             Last.SparseSupersteps));
            ++Failures;
          }
        } else {
          // The schedule changes iteration machinery, never semantics:
          // every counter the engine reports must match the dense run.
          if (Last.TotalMessages != DenseMessages ||
              Last.NetworkBytes != DenseNetBytes ||
              Last.Supersteps != DenseSteps) {
            std::fprintf(
                stderr,
                "FAIL: %s workers=%u schedule=%s: totals diverge from dense "
                "(messages %llu vs %llu, bytes %llu vs %llu, steps %llu vs "
                "%llu)\n",
                Names[A], W, pregel::scheduleModeName(Mode),
                static_cast<unsigned long long>(Last.TotalMessages),
                static_cast<unsigned long long>(DenseMessages),
                static_cast<unsigned long long>(Last.NetworkBytes),
                static_cast<unsigned long long>(DenseNetBytes),
                static_cast<unsigned long long>(Last.Supersteps),
                static_cast<unsigned long long>(DenseSteps));
            ++Failures;
          }
          if (Mode == pregel::ScheduleMode::Auto) {
            // Auto must actually engage on the frontier algorithm and must
            // actually decline on the dense one.
            if (A == 1 && Last.SparseSupersteps == 0) {
              std::fprintf(stderr,
                           "FAIL: sssp_vth workers=%u: auto never went "
                           "sparse in %llu supersteps\n",
                           W,
                           static_cast<unsigned long long>(Last.Supersteps));
              ++Failures;
            }
            if (A == 0 && Last.SparseSupersteps != 0) {
              std::fprintf(stderr,
                           "FAIL: pagerank workers=%u: auto ran %llu sparse "
                           "supersteps on an always-dense frontier\n",
                           W,
                           static_cast<unsigned long long>(
                               Last.SparseSupersteps));
              ++Failures;
            }
            // The acceptance bars. Smoke graphs are too small for stable
            // timing, so only the full sweep enforces them.
            if (!Smoke && A == 1 && WallBest > 0 &&
                DenseBest < 1.5 * WallBest) {
              std::fprintf(stderr,
                           "FAIL: sssp_vth workers=%u: auto wall %.4fs is "
                           "not 1.5x faster than dense %.4fs (%.2fx)\n",
                           W, WallBest, DenseBest,
                           DenseBest / WallBest);
              ++Failures;
            }
            // PageRank's auto and dense runs execute the identical dense
            // path (one threshold comparison per superstep apart), so any
            // wall delta is scheduling-decision overhead. Gated on the
            // sequential leg only: threaded medians on oversubscribed hosts
            // carry more scheduler noise than the 5% bar.
            if (!Smoke && A == 0 && W == 1 &&
                WallBest > 1.05 * DenseBest) {
              std::fprintf(stderr,
                           "FAIL: pagerank workers=%u: auto wall %.4fs "
                           "regresses dense %.4fs by more than 5%%\n",
                           W, WallBest, DenseBest);
              ++Failures;
            }
          }
        }
        std::printf("%-10s %-9s %8u | %10.4f %8.2fx | %6llu %7llu | %12llu\n",
                    Names[A], pregel::scheduleModeName(Mode), W, WallBest,
                    !Dense && WallBest > 0 ? DenseBest / WallBest : 1.0,
                    static_cast<unsigned long long>(Last.Supersteps),
                    static_cast<unsigned long long>(Last.SparseSupersteps),
                    static_cast<unsigned long long>(Last.TotalMessages));
      }
    }
    hr();
  }

  std::string Err;
  if (!Sink.close(&Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Serving sweep (--serving)
//===----------------------------------------------------------------------===//

/// Re-emits a parsed JSON node through \p W (used to copy run records out of
/// service responses into the artifact with the sink's formatting).
void emitJsonNode(json::Writer &W, const json::Node &N) {
  switch (N.K) {
  case json::Node::Kind::Null:
    W.null();
    return;
  case json::Node::Kind::Bool:
    W.value(N.B);
    return;
  case json::Node::Kind::Int:
    W.value(static_cast<int64_t>(N.I));
    return;
  case json::Node::Kind::Double:
    W.value(N.D);
    return;
  case json::Node::Kind::String:
    W.value(N.S);
    return;
  case json::Node::Kind::Array:
    W.beginArray();
    for (const json::Node &E : N.Elems)
      emitJsonNode(W, E);
    W.endArray();
    return;
  case json::Node::Kind::Object:
    W.beginObject();
    for (const auto &[Key, V] : N.Members) {
      W.key(Key);
      emitJsonNode(W, V);
    }
    W.endObject();
    return;
  }
}

/// One submit round-trip through the Service; returns the parsed response.
json::Node servingCall(service::Service &Svc, const std::string &Request) {
  json::Node Resp;
  std::string Err;
  if (!json::parse(Svc.handle(Request), Resp, &Err)) {
    std::fprintf(stderr, "bench_runtime_micro: bad service response: %s\n",
                 Err.c_str());
    std::abort();
  }
  return Resp;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

int runServingSweep(int Reps, const std::string &JsonPath, bool Smoke) {
  // Large graph + cheap program: the regime where residency pays. One
  // PageRank iteration moves one message wave over the edges, while a load
  // re-generates and CSR-builds the whole graph — the cost the daemon
  // amortizes across jobs (docs/serving.md "When the daemon pays off").
  const unsigned Nodes = Smoke ? (1u << 12) : (1u << 16);
  const unsigned Edges = Smoke ? (1u << 15) : (1u << 19);
  const int JobsPerRep = 12;

  const std::string LoadReq =
      "{\"op\":\"load\",\"graph\":\"g\",\"generator\":\"rmat\",\"nodes\":" +
      std::to_string(Nodes) + ",\"edges\":" + std::to_string(Edges) +
      ",\"seed\":21}";
  const std::string SubmitReq =
      "{\"op\":\"submit\",\"graph\":\"g\",\"source_file\":\"" +
      algorithmPath("pagerank") +
      "\",\"args\":{\"e\":0.0,\"d\":0.85,\"max_iter\":1},"
      "\"workers\":4,\"threaded\":true}";

  std::printf("Serving sweep: rmat(%u,%u), %d reps x %d jobs\n", Nodes,
              Edges, Reps, JobsPerRep);
  hr('=');
  std::printf("%-10s %14s %20s\n", "regime", "per-job(s)", "vs one-shot");
  hr();

  int Failures = 0;
  double OneShotPerJob = 0, ResidentPerJob = 0, CacheHitPerJob = 0;
  std::string CanonicalRef; // canonicalized report every regime must match
  std::vector<std::string> ArtifactReports;

  /// Extracts the embedded report document from a submit response, checks
  /// the cache flag, and folds the canonicalized form into the cross-regime
  /// equality gate.
  auto takeReport = [&](const json::Node &Resp, const char *Regime,
                        const char *WantCache) -> std::string {
    if (!Resp.boolAt("ok") || Resp.strAt("state") != "done") {
      std::fprintf(stderr, "FAIL: %s job did not complete: %s\n", Regime,
                   Resp.strAt("error", "?").c_str());
      ++Failures;
      return std::string();
    }
    if (Resp.strAt("cache") != WantCache) {
      std::fprintf(stderr, "FAIL: %s job expected cache %s, got %s\n",
                   Regime, WantCache, Resp.strAt("cache", "?").c_str());
      ++Failures;
    }
    const json::Node *Report = Resp.find("report");
    if (!Report)
      return std::string();
    std::ostringstream OS;
    json::Writer W(OS, /*Pretty=*/false);
    emitJsonNode(W, *Report);
    const std::string Doc = OS.str();
    const std::string Canon = service::canonicalizeReport(Doc);
    if (CanonicalRef.empty())
      CanonicalRef = Canon;
    else if (Canon != CanonicalRef) {
      std::fprintf(stderr,
                   "FAIL: %s report diverges from the reference after "
                   "canonicalization — serving regime leaked into results\n",
                   Regime);
      ++Failures;
    }
    return Doc;
  };

  for (int R = 0; R < Reps; ++R) {
    // One-shot: every job pays load + compile + run, like invoking gmpc.
    {
      service::ServiceConfig Cfg;
      Cfg.MaxRunningJobs = 1;
      Cfg.CacheCapacity = 0;
      double Total = 0;
      std::string LastReport;
      for (int J = 0; J < JobsPerRep; ++J) {
        service::Service Svc(Cfg);
        const auto T0 = std::chrono::steady_clock::now();
        servingCall(Svc, LoadReq);
        json::Node Resp = servingCall(Svc, SubmitReq);
        Total += secondsSince(T0);
        LastReport = takeReport(Resp, "one-shot", "miss");
      }
      OneShotPerJob += Total / JobsPerRep;
      if (!LastReport.empty())
        ArtifactReports.push_back(std::move(LastReport));
    }
    // Resident: load once, then every job reuses the snapshot. The load is
    // amortized into the per-job figure.
    {
      service::ServiceConfig Cfg;
      Cfg.MaxRunningJobs = 1;
      Cfg.CacheCapacity = 0;
      service::Service Svc(Cfg);
      const auto T0 = std::chrono::steady_clock::now();
      servingCall(Svc, LoadReq);
      std::string FirstReport;
      for (int J = 0; J < JobsPerRep; ++J) {
        json::Node Resp = servingCall(Svc, SubmitReq);
        if (J == 0)
          FirstReport = takeReport(Resp, "resident", "miss");
        else
          takeReport(Resp, "resident", "miss");
      }
      ResidentPerJob += secondsSince(T0) / JobsPerRep;
      if (!FirstReport.empty())
        ArtifactReports.push_back(std::move(FirstReport));
    }
    // Cache-hit: one real run, then identical resubmissions replay it.
    {
      service::Service Svc; // cache on (default capacity)
      servingCall(Svc, LoadReq);
      json::Node Miss = servingCall(Svc, SubmitReq);
      const std::string MissReport = takeReport(Miss, "cache-miss", "miss");
      const auto T0 = std::chrono::steady_clock::now();
      for (int J = 0; J < JobsPerRep; ++J) {
        json::Node Hit = servingCall(Svc, SubmitReq);
        const std::string HitReport = takeReport(Hit, "cache-hit", "hit");
        // A hit is a byte-identical replay, volatile fields included.
        if (!HitReport.empty() && HitReport != MissReport) {
          std::fprintf(stderr, "FAIL: cache hit report is not a verbatim "
                               "replay of the miss\n");
          ++Failures;
        }
      }
      CacheHitPerJob += secondsSince(T0) / JobsPerRep;
      if (!MissReport.empty())
        ArtifactReports.push_back(std::move(MissReport));
    }
  }
  OneShotPerJob /= Reps;
  ResidentPerJob /= Reps;
  CacheHitPerJob /= Reps;

  std::printf("%-10s %14.4f %19.2fx\n", "one-shot", OneShotPerJob, 1.0);
  std::printf("%-10s %14.4f %19.2fx\n", "resident", ResidentPerJob,
              ResidentPerJob > 0 ? OneShotPerJob / ResidentPerJob : 0.0);
  std::printf("%-10s %14.6f %19.0fx\n", "cache-hit", CacheHitPerJob,
              CacheHitPerJob > 0 ? OneShotPerJob / CacheHitPerJob : 0.0);
  hr();

  // The acceptance bar: residency must amortize the load at least 3x.
  // Smoke graphs are too small for stable timing, so only the full sweep
  // enforces it.
  if (!Smoke && ResidentPerJob > 0 &&
      OneShotPerJob < 3.0 * ResidentPerJob) {
    std::fprintf(stderr,
                 "FAIL: resident per-job %.4fs is not 3x better than "
                 "one-shot %.4fs (%.2fx)\n",
                 ResidentPerJob, OneShotPerJob,
                 OneShotPerJob / ResidentPerJob);
    ++Failures;
  }

  // The artifact: one gm.run-report document holding a record per regime
  // per rep (identical engine totals — that is the point) plus a serving
  // summary, loadable by --compare / --check-baseline like every other
  // checked-in BENCH_*.json.
  std::ofstream Out(JsonPath);
  json::Writer W(Out);
  W.beginObject();
  W.field("schema", pregel::ReportSchemaName);
  W.field("version", static_cast<uint64_t>(pregel::ReportSchemaVersion));
  W.key("runs");
  W.beginArray();
  for (const std::string &Doc : ArtifactReports) {
    json::Node Report;
    std::string Err;
    if (json::parse(Doc, Report, &Err))
      if (const json::Node *Runs = Report.find("runs"))
        for (const json::Node &Run : Runs->Elems)
          emitJsonNode(W, Run);
  }
  W.endArray();
  W.key("serving");
  W.beginObject();
  W.field("jobs_per_rep", static_cast<int64_t>(JobsPerRep));
  W.field("reps", static_cast<int64_t>(Reps));
  W.field("oneshot_seconds_per_job", OneShotPerJob);
  W.field("resident_seconds_per_job", ResidentPerJob);
  W.field("cache_hit_seconds_per_job", CacheHitPerJob);
  W.field("resident_speedup",
          ResidentPerJob > 0 ? OneShotPerJob / ResidentPerJob : 0.0);
  W.endObject();
  W.endObject();
  Out << '\n';
  Out.flush();
  if (!Out) {
    std::fprintf(stderr, "bench_runtime_micro: error writing %s\n",
                 JsonPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", JsonPath.c_str());
  return Failures;
}

//===----------------------------------------------------------------------===//
// Baseline comparison (--compare / --check-baseline)
//===----------------------------------------------------------------------===//

/// Aggregate of every repetition of one sweep configuration.
struct CompareCell {
  std::vector<double> Walls;
  int64_t Messages = -1;
  int64_t NetworkBytes = -1;
  bool Consistent = true; ///< reps agreed on messages/bytes

  double medianWall() const {
    std::vector<double> W = Walls;
    std::sort(W.begin(), W.end());
    return W.empty() ? 0.0 : W[W.size() / 2];
  }
};

/// The identity a run record is matched under: everything that legitimately
/// changes the workload. Host and schema version are deliberately excluded —
/// baselines recorded on another machine still gate the byte totals.
std::string cellKey(const json::Node &Run) {
  const json::Node *Cfg = Run.find("config");
  std::ostringstream Key;
  Key << Run.strAt("program");
  if (const json::Node *Gr = Run.find("graph"))
    Key << '|' << Gr->strAt("name");
  if (Cfg)
    Key << "|w" << Cfg->intAt("workers")
        << (Cfg->boolAt("threaded") ? "|threaded" : "|sequential")
        << '|' << Cfg->strAt("message_format", "-") << '|'
        << Cfg->strAt("partition", "-") << "|lalp"
        << Cfg->intAt("lalp_threshold") << '|'
        << Cfg->strAt("backend", "-") << '|'
        << Cfg->strAt("schedule", "-");
  return Key.str();
}

/// Parses one gm.run-report document into per-configuration cells.
bool loadReport(const std::string &Path,
                std::map<std::string, CompareCell> &Cells, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read " + Path;
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  json::Node Doc;
  if (!json::parse(Buf.str(), Doc, Err)) {
    *Err = Path + ": " + *Err;
    return false;
  }
  if (Doc.strAt("schema") != pregel::ReportSchemaName) {
    *Err = Path + ": not a " + std::string(pregel::ReportSchemaName) +
           " document";
    return false;
  }
  const json::Node *Runs = Doc.find("runs");
  if (!Runs || Runs->K != json::Node::Kind::Array) {
    *Err = Path + ": no runs array";
    return false;
  }
  for (const json::Node &Run : Runs->Elems) {
    const json::Node *Totals = Run.find("totals");
    if (!Totals)
      continue;
    // Compile-only records (halt == "none") carry no run to compare.
    if (Totals->strAt("halt") == "none")
      continue;
    CompareCell &C = Cells[cellKey(Run)];
    C.Walls.push_back(Totals->numAt("wall_seconds"));
    const int64_t Msgs = Totals->intAt("messages");
    const int64_t Bytes = Totals->intAt("network_bytes");
    if (C.Messages < 0) {
      C.Messages = Msgs;
      C.NetworkBytes = Bytes;
    } else if (C.Messages != Msgs || C.NetworkBytes != Bytes) {
      C.Consistent = false;
    }
  }
  return true;
}

int runCompare(const std::string &BasePath, const std::string &FreshPath,
               double MaxRegress) {
  std::map<std::string, CompareCell> Base, Fresh;
  std::string Err;
  if (!loadReport(BasePath, Base, &Err) ||
      !loadReport(FreshPath, Fresh, &Err)) {
    std::fprintf(stderr, "bench_runtime_micro: %s\n", Err.c_str());
    return 1;
  }

  std::printf("Bench regression gate: %s (baseline) vs %s (fresh), "
              "max wall regression %.0f%%\n",
              BasePath.c_str(), FreshPath.c_str(), MaxRegress * 100.0);
  hr('=');
  std::printf("%-58s %10s %10s %7s\n", "configuration", "base(s)", "fresh(s)",
              "ratio");
  hr();

  int Failures = 0;
  size_t Matched = 0;
  for (const auto &[Key, FreshCell] : Fresh) {
    auto It = Base.find(Key);
    if (It == Base.end())
      continue;
    const CompareCell &BaseCell = It->second;
    ++Matched;
    const double BaseWall = BaseCell.medianWall();
    const double FreshWall = FreshCell.medianWall();
    const double Ratio = BaseWall > 0 ? FreshWall / BaseWall : 1.0;
    std::printf("%-58.58s %10.4f %10.4f %6.2fx\n", Key.c_str(), BaseWall,
                FreshWall, Ratio);
    if (!BaseCell.Consistent || !FreshCell.Consistent) {
      std::fprintf(stderr,
                   "FAIL: %s: repetitions disagree on message/byte totals — "
                   "nondeterminism\n",
                   Key.c_str());
      ++Failures;
      continue;
    }
    // The engine is deterministic: identical config must move identical
    // work, byte for byte, no matter how the code changed.
    if (FreshCell.Messages != BaseCell.Messages ||
        FreshCell.NetworkBytes != BaseCell.NetworkBytes) {
      std::fprintf(
          stderr,
          "FAIL: %s: totals diverge from baseline (messages %lld vs %lld, "
          "network bytes %lld vs %lld)\n",
          Key.c_str(), static_cast<long long>(FreshCell.Messages),
          static_cast<long long>(BaseCell.Messages),
          static_cast<long long>(FreshCell.NetworkBytes),
          static_cast<long long>(BaseCell.NetworkBytes));
      ++Failures;
    }
    if (BaseWall > 0 && FreshWall > BaseWall * (1.0 + MaxRegress)) {
      std::fprintf(stderr,
                   "FAIL: %s: wall regression %.2fx exceeds %.2fx budget\n",
                   Key.c_str(), Ratio, 1.0 + MaxRegress);
      ++Failures;
    }
  }
  hr();
  std::printf("%zu configurations matched (%zu baseline, %zu fresh), "
              "%d failures\n",
              Matched, Base.size(), Fresh.size(), Failures);
  if (Matched == 0) {
    std::fprintf(stderr, "FAIL: no configuration matched between %s and %s — "
                         "wrong baseline for this sweep?\n",
                 BasePath.c_str(), FreshPath.c_str());
    return 1;
  }
  return Failures ? 1 : 0;
}

int runCheckBaseline(const std::vector<std::string> &Paths) {
  int Failures = 0;
  for (const std::string &Path : Paths) {
    std::map<std::string, CompareCell> Cells;
    std::string Err;
    if (!loadReport(Path, Cells, &Err)) {
      std::fprintf(stderr, "FAIL: %s\n", Err.c_str());
      ++Failures;
      continue;
    }
    size_t Reps = 0;
    for (const auto &[Key, C] : Cells) {
      Reps += C.Walls.size();
      if (!C.Consistent) {
        std::fprintf(stderr,
                     "FAIL: %s: %s: repetitions disagree on totals\n",
                     Path.c_str(), Key.c_str());
        ++Failures;
      }
    }
    if (Cells.empty()) {
      std::fprintf(stderr, "FAIL: %s: no executed runs\n", Path.c_str());
      ++Failures;
      continue;
    }
    std::printf("%s: ok (%zu configurations, %zu runs)\n", Path.c_str(),
                Cells.size(), Reps);
  }
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // The scaling sweep is a plain mode of this binary (google-benchmark
  // rejects flags it does not know, so dispatch before initializing it).
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--compare") == 0) {
      if (I + 2 >= argc) {
        std::fprintf(stderr, "bench_runtime_micro: --compare needs "
                             "<baseline.json> <fresh.json>\n");
        return 2;
      }
      double MaxRegress = 0.5;
      for (int J = 1; J + 1 < argc; ++J)
        if (std::strcmp(argv[J], "--max-regress") == 0)
          MaxRegress = std::atof(argv[J + 1]);
      return runCompare(argv[I + 1], argv[I + 2], MaxRegress);
    }
    if (std::strcmp(argv[I], "--check-baseline") == 0) {
      std::vector<std::string> Paths(argv + I + 1, argv + argc);
      if (Paths.empty()) {
        std::fprintf(stderr,
                     "bench_runtime_micro: --check-baseline needs files\n");
        return 2;
      }
      return runCheckBaseline(Paths);
    }
    if (std::strcmp(argv[I], "--scaling") == 0) {
      std::string JsonPath = "BENCH_scaling.json";
      for (int J = 1; J + 1 < argc; ++J)
        if (std::strcmp(argv[J], "--json") == 0)
          JsonPath = argv[J + 1];
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runScalingSweep(Reps, JsonPath);
    }
    if (std::strcmp(argv[I], "--messages") == 0) {
      std::string JsonPath = "BENCH_messages.json";
      bool Smoke = false;
      for (int J = 1; J < argc; ++J) {
        if (std::strcmp(argv[J], "--json") == 0 && J + 1 < argc)
          JsonPath = argv[J + 1];
        if (std::strcmp(argv[J], "--smoke") == 0)
          Smoke = true;
      }
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runMessageSweep(Reps, JsonPath, Smoke);
    }
    if (std::strcmp(argv[I], "--backends") == 0) {
      std::string JsonPath = "BENCH_backends.json";
      bool Smoke = false;
      for (int J = 1; J < argc; ++J) {
        if (std::strcmp(argv[J], "--json") == 0 && J + 1 < argc)
          JsonPath = argv[J + 1];
        if (std::strcmp(argv[J], "--smoke") == 0)
          Smoke = true;
      }
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runBackendSweep(Reps, JsonPath, Smoke);
    }
    if (std::strcmp(argv[I], "--schedule") == 0) {
      std::string JsonPath = "BENCH_schedule.json";
      bool Smoke = false;
      for (int J = 1; J < argc; ++J) {
        if (std::strcmp(argv[J], "--json") == 0 && J + 1 < argc)
          JsonPath = argv[J + 1];
        if (std::strcmp(argv[J], "--smoke") == 0)
          Smoke = true;
      }
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runScheduleSweep(Reps, JsonPath, Smoke);
    }
    if (std::strcmp(argv[I], "--serving") == 0) {
      std::string JsonPath = "BENCH_serving.json";
      bool Smoke = false;
      for (int J = 1; J < argc; ++J) {
        if (std::strcmp(argv[J], "--json") == 0 && J + 1 < argc)
          JsonPath = argv[J + 1];
        if (std::strcmp(argv[J], "--smoke") == 0)
          Smoke = true;
      }
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runServingSweep(Reps, JsonPath, Smoke);
    }
    if (std::strcmp(argv[I], "--partitioning") == 0) {
      std::string JsonPath = "BENCH_partitioning.json";
      bool Smoke = false;
      for (int J = 1; J < argc; ++J) {
        if (std::strcmp(argv[J], "--json") == 0 && J + 1 < argc)
          JsonPath = argv[J + 1];
        if (std::strcmp(argv[J], "--smoke") == 0)
          Smoke = true;
      }
      int Reps = 3;
      if (I + 1 < argc && std::isdigit(static_cast<unsigned char>(
                              argv[I + 1][0])))
        Reps = std::atoi(argv[I + 1]);
      return runPartitioningSweep(Reps, JsonPath, Smoke);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
