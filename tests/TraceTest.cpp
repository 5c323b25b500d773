//===- tests/TraceTest.cpp - Structured runtime tracing ---------------------===//
///
/// The tracing subsystem's contract (docs/observability.md "Runtime
/// tracing"): spans nest per lane even under buffer saturation, the engine
/// emits the promised per-worker span counts, the Chrome JSON export is
/// well-formed, and — the part that lets tracing stay on in CI — running
/// with a session published changes no result bit on any paper algorithm.
///
/// Configure with -DGM_SANITIZE=thread and the multi-worker cases double as
/// the data-race gate for trace recording from engine worker threads.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "exec/IRExecutor.h"
#include "graph/Generators.h"
#include "pregel/Runtime.h"
#include "pregel/RuntimeTrace.h"
#include "support/JSON.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>

namespace {

using namespace gm;
using namespace gm::pregel;

//===----------------------------------------------------------------------===//
// Session mechanics
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledByDefaultAndHelpersNoOp) {
  ASSERT_EQ(trace::current(), nullptr);
  ASSERT_FALSE(trace::enabled());
  // Every helper must be safe to call with no session published.
  trace::begin(0, "a", "b");
  trace::end(0, "a", "b");
  trace::complete(1, "x", "b", 10, 20);
  trace::counter("c", 7);
  trace::instant(2, "i", "b");
  { trace::ScopedSpan Span(0, "s", "b"); }
  ASSERT_EQ(trace::current(), nullptr);
}

TEST(Trace, ScopedSessionPublishesAndUnpublishes) {
  {
    trace::ScopedSession TS;
    EXPECT_EQ(trace::current(), &TS.session());
    trace::begin(0, "outer", "test");
    trace::begin(0, "inner", "test");
    trace::end(0, "inner", "test");
    trace::end(0, "outer", "test");
    EXPECT_EQ(TS.session().eventCount(), 4u);
  }
  EXPECT_EQ(trace::current(), nullptr);
}

TEST(Trace, SpansNestPerLane) {
  trace::ScopedSession TS;
  trace::Session &S = TS.session();
  trace::begin(0, "outer", "test");
  trace::begin(3, "other-lane", "test");
  trace::begin(0, "inner", "test");
  trace::end(0, "inner", "test");
  trace::end(3, "other-lane", "test");
  trace::end(0, "outer", "test");

  // Per lane, the B/E stream must nest: depth never goes negative and ends
  // balanced.
  for (unsigned LaneId : {0u, 3u}) {
    int Depth = 0;
    for (const trace::Event &E : S.lane(LaneId).events()) {
      if (E.Ph == trace::Phase::Begin)
        ++Depth;
      else if (E.Ph == trace::Phase::End) {
        --Depth;
        ASSERT_GE(Depth, 0) << "lane " << LaneId;
      }
    }
    EXPECT_EQ(Depth, 0) << "lane " << LaneId;
  }
}

TEST(Trace, SaturationPreservesSpanBalance) {
  // A deliberately tiny buffer: the drop-newest policy must keep B/E
  // balanced (a dropped Begin swallows its matching End; an End whose Begin
  // was recorded is always recorded).
  trace::ScopedSession TS(/*LaneCapacity=*/8);
  trace::Session &S = TS.session();
  for (int I = 0; I < 100; ++I) {
    trace::begin(0, "outer", "test");
    trace::begin(0, "inner", "test");
    trace::end(0, "inner", "test");
    trace::end(0, "outer", "test");
  }
  EXPECT_GT(S.lane(0).dropped(), 0u);

  size_t Begins = 0, Ends = 0;
  int Depth = 0;
  for (const trace::Event &E : S.lane(0).events()) {
    if (E.Ph == trace::Phase::Begin) {
      ++Begins;
      ++Depth;
    } else if (E.Ph == trace::Phase::End) {
      ++Ends;
      --Depth;
      ASSERT_GE(Depth, 0);
    }
  }
  EXPECT_GT(Begins, 0u);
  EXPECT_EQ(Begins, Ends);
}

TEST(Trace, ChromeJsonIsValidAndBalanced) {
  trace::ScopedSession TS;
  TS.session().setLaneName(0, "master");
  trace::begin(0, "phase-a", "test");
  trace::counter("things", 42);
  trace::complete(1, "work", "test", 100, 2100);
  trace::instant(0, "mark", "test");
  trace::end(0, "phase-a", "test");

  std::ostringstream OS;
  TS.session().writeChromeJson(OS);
  const std::string Doc = OS.str();

  std::string Err;
  EXPECT_TRUE(json::validate(Doc, &Err)) << Err << "\n" << Doc;

  json::Node Root;
  ASSERT_TRUE(json::parse(Doc, Root, &Err)) << Err;
  const json::Node *Events = Root.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, json::Node::Kind::Array);

  size_t Begins = 0, Ends = 0;
  bool SawCounter = false, SawComplete = false, SawMeta = false;
  for (const json::Node &E : Events->Elems) {
    const std::string Ph = E.strAt("ph");
    if (Ph == "B")
      ++Begins;
    else if (Ph == "E")
      ++Ends;
    else if (Ph == "C") {
      SawCounter = true;
      const json::Node *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_EQ(Args->intAt("value"), 42);
    } else if (Ph == "X") {
      SawComplete = true;
      EXPECT_DOUBLE_EQ(E.numAt("dur"), 2.0); // 2000 ns == 2 us
    } else if (Ph == "M")
      SawMeta = true;
  }
  EXPECT_EQ(Begins, 1u);
  EXPECT_EQ(Ends, 1u);
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawComplete);
  EXPECT_TRUE(SawMeta);
  EXPECT_NE(Doc.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Trace, InternedNamesAreStableAndDeduplicated) {
  trace::Session S;
  const char *A = S.intern("translate");
  const char *B = S.intern("translate");
  EXPECT_EQ(A, B);
  EXPECT_STREQ(A, "translate");
  EXPECT_NE(S.intern("sema"), A);
}

TEST(Trace, PeakRssIsPlausible) {
  const uint64_t Rss = trace::peakRssBytes();
  // Any realistic test process has touched at least 1 MiB.
  EXPECT_GT(Rss, 1u << 20);
}

//===----------------------------------------------------------------------===//
// Engine instrumentation: span counts per worker lane
//===----------------------------------------------------------------------===//

/// Floods one message per edge for a fixed number of supersteps.
class FloodProgram : public VertexProgram {
public:
  explicit FloodProgram(uint64_t Steps) : Steps(Steps) {}
  void init(const Graph &, MasterContext &) override {}
  void masterCompute(MasterContext &Master) override {
    if (Master.superstep() >= Steps)
      Master.haltAll();
  }
  void compute(VertexContext &Ctx) override {
    Message M;
    M.push(Value::makeInt(static_cast<int64_t>(Ctx.id())));
    Ctx.sendToAllOutNeighbors(M);
  }
  MessageLayout messageLayout() const override {
    MessageLayout L;
    L.addType(0, {ValueKind::Int});
    return L;
  }

private:
  uint64_t Steps;
};

size_t countSpans(const trace::Lane &L, const char *Name) {
  size_t N = 0;
  for (const trace::Event &E : L.events())
    if (E.Ph == trace::Phase::Begin && std::string(E.Name) == Name)
      ++N;
  return N;
}

size_t countComplete(const trace::Lane &L, const char *Name) {
  size_t N = 0;
  for (const trace::Event &E : L.events())
    if (E.Ph == trace::Phase::Complete && std::string(E.Name) == Name)
      ++N;
  return N;
}

TEST(Trace, ThreadedEngineEmitsPerWorkerSpans) {
  const unsigned W = 4;
  Graph G = generateRMAT(1 << 9, 1 << 12, 21);

  trace::ScopedSession TS;
  traceNameLanes(W);
  Config Cfg;
  Cfg.NumWorkers = W;
  Cfg.Threaded = true;
  FloodProgram P(5);
  RunStats Stats = Engine(G, Cfg).run(P);
  trace::setCurrent(nullptr); // stop recording before reading buffers

  trace::Session &S = TS.session();
  const uint64_t Steps = Stats.Supersteps;
  ASSERT_GT(Steps, 0u);

  // Lane 0: one superstep span per loop iteration (the final master-halt
  // iteration runs master but no compute, so allow Steps or Steps + 1).
  const size_t StepSpans = countSpans(S.lane(0), "superstep");
  EXPECT_TRUE(StepSpans == Steps || StepSpans == Steps + 1)
      << StepSpans << " superstep spans for " << Steps << " supersteps";
  EXPECT_GE(countSpans(S.lane(0), "master"), Steps);

  // Each worker lane: one compute and one deliver span per superstep, and
  // one barrier-wait complete event per parallel section (compute +
  // delivery = 2 per superstep).
  for (unsigned Worker = 0; Worker < W; ++Worker) {
    const trace::Lane &L = S.lane(traceLaneOf(Worker));
    EXPECT_EQ(countSpans(L, "compute"), Steps) << "worker " << Worker;
    EXPECT_EQ(countSpans(L, "deliver"), Steps) << "worker " << Worker;
    EXPECT_EQ(countSpans(L, "combine"), Steps) << "worker " << Worker;
    EXPECT_EQ(countComplete(L, "barrier-wait"), 2 * Steps)
        << "worker " << Worker;

    // Spans nest on every worker lane.
    int Depth = 0;
    for (const trace::Event &E : L.events()) {
      if (E.Ph == trace::Phase::Begin)
        ++Depth;
      else if (E.Ph == trace::Phase::End) {
        --Depth;
        ASSERT_GE(Depth, 0) << "worker " << Worker;
      }
    }
    EXPECT_EQ(Depth, 0) << "worker " << Worker;
  }

  // Counter tracks: one active_vertices / messages sample per superstep,
  // on the master lane.
  size_t ActiveSamples = 0;
  for (const trace::Event &E : S.lane(0).events())
    if (E.Ph == trace::Phase::Counter &&
        std::string(E.Name) == "active_vertices")
      ++ActiveSamples;
  EXPECT_EQ(ActiveSamples, Steps);
}

TEST(Trace, SequentialEngineEmitsNoBarrierWaits) {
  Graph G = generateRMAT(1 << 8, 1 << 10, 22);
  trace::ScopedSession TS;
  Config Cfg;
  Cfg.NumWorkers = 3;
  FloodProgram P(3);
  RunStats Stats = Engine(G, Cfg).run(P);
  trace::setCurrent(nullptr);

  trace::Session &S = TS.session();
  for (unsigned Worker = 0; Worker < 3; ++Worker) {
    const trace::Lane &L = S.lane(traceLaneOf(Worker));
    EXPECT_EQ(countComplete(L, "barrier-wait"), 0u) << "worker " << Worker;
    EXPECT_EQ(countSpans(L, "compute"), Stats.Supersteps)
        << "worker " << Worker;
  }
}

//===----------------------------------------------------------------------===//
// Tracing must not perturb results: all six paper algorithms bit-identical
// with a session published vs without.
//===----------------------------------------------------------------------===//

struct AlgoCase {
  const char *Name;
  const char *ResultProp; ///< null: compare the return value only
};

// Without a printer gtest lists the parameter as its raw bytes: two string
// addresses that ASLR moves on every run, so the listed (and CTest) test
// names would differ from one build to the next.
void PrintTo(const AlgoCase &C, std::ostream *OS) { *OS << C.Name; }

class TraceAlgoIdentity : public ::testing::TestWithParam<AlgoCase> {};

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

TEST_P(TraceAlgoIdentity, TraceOnMatchesTraceOff) {
  const AlgoCase &C = GetParam();
  const bool Bipartite = std::string(C.Name) == "bipartite_matching";
  NodeId BipartiteLeft = 1 << 8;
  Graph G = Bipartite
                ? generateBipartite(BipartiteLeft, (1 << 8) + 100, 1 << 11, 5)
                : generateRMAT(1 << 9, 1 << 12, 5);

  CompileResult Compiled = compileGreenMarlFile(
      std::string(GM_ALGORITHMS_DIR) + "/" + C.Name + ".gm");
  ASSERT_TRUE(Compiled.ok()) << Compiled.Diags->dump();

  auto Run = [&](bool Traced, RunStats &Stats) {
    std::optional<trace::ScopedSession> TS;
    if (Traced) {
      TS.emplace();
      traceNameLanes(4);
    }
    Config Cfg;
    Cfg.NumWorkers = 4;
    Cfg.Threaded = true;
    std::unique_ptr<exec::IRExecutor> Exec;
    Stats = exec::runProgram(*Compiled.Program, G,
                             makeArgs(C.Name, G, BipartiteLeft), Cfg, &Exec);
    if (Traced) {
      EXPECT_GT(TS->session().eventCount(), 0u) << C.Name;
    }
    return Exec;
  };

  RunStats OffStats, OnStats;
  auto Off = Run(false, OffStats);
  auto On = Run(true, OnStats);

  EXPECT_EQ(OffStats.Supersteps, OnStats.Supersteps) << C.Name;
  EXPECT_EQ(OffStats.TotalMessages, OnStats.TotalMessages) << C.Name;
  EXPECT_EQ(OffStats.NetworkMessages, OnStats.NetworkMessages) << C.Name;
  EXPECT_EQ(OffStats.NetworkBytes, OnStats.NetworkBytes) << C.Name;
  EXPECT_EQ(OffStats.MessagesPerStep, OnStats.MessagesPerStep) << C.Name;
  EXPECT_EQ(OffStats.Halt, OnStats.Halt) << C.Name;

  if (C.ResultProp) {
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      Value A = Off->nodeProp(C.ResultProp).get(N);
      Value B = On->nodeProp(C.ResultProp).get(N);
      ASSERT_TRUE(A == B) << C.Name << " " << C.ResultProp << "[" << N
                          << "]: " << A.toString() << " vs " << B.toString();
    }
  }
  ASSERT_EQ(Off->returnValue().has_value(), On->returnValue().has_value());
  if (Off->returnValue()) {
    EXPECT_TRUE(*Off->returnValue() == *On->returnValue())
        << Off->returnValue()->toString() << " vs "
        << On->returnValue()->toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, TraceAlgoIdentity,
    ::testing::Values(AlgoCase{"avg_teen", "teen_cnt"},
                      AlgoCase{"pagerank", "pg_rank"},
                      AlgoCase{"conductance", nullptr},
                      AlgoCase{"sssp", "dist"},
                      AlgoCase{"bipartite_matching", "match"},
                      AlgoCase{"bc_approx", "BC"}),
    [](const ::testing::TestParamInfo<AlgoCase> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
