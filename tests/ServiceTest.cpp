//===- tests/ServiceTest.cpp - gmd service layer tests -----------------------===//
///
/// In-process tests of the serving subsystem (docs/serving.md): frame
/// transport, the resident-graph store's epoch discipline, result-cache LRU
/// and invalidation, the Service request brain (admission control, budgets,
/// error mapping), and the headline determinism contract — concurrent jobs
/// against one shared graph produce reports bit-identical (after stripping
/// volatile timing fields) to sequential one-shot runs. The concurrent legs
/// run under TSan with -DGM_SANITIZE=thread, like the engine tests.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "support/Framing.h"
#include "support/JSON.h"

#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace gm;

namespace {

std::string algo(const char *Name) {
  return std::string(GM_ALGORITHMS_DIR) + "/" + Name;
}

/// Re-serializes a parsed JSON node compactly (test-side helper for pulling
/// an embedded report document back out of a response object).
void emitNode(json::Writer &W, const json::Node &N) {
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
      emitNode(W, E);
    W.endArray();
    return;
  case json::Node::Kind::Object:
    W.beginObject();
    for (const auto &[Key, V] : N.Members) {
      W.key(Key);
      emitNode(W, V);
    }
    W.endObject();
    return;
  }
}

std::string serialize(const json::Node &N) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  emitNode(W, N);
  return OS.str();
}

json::Node parsed(const std::string &Text) {
  json::Node N;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, N, &Err)) << Err << "\n" << Text;
  return N;
}

/// Extracts the embedded "report" document from a submit/result response.
std::string reportOf(const json::Node &Resp) {
  const json::Node *R = Resp.find("report");
  EXPECT_NE(R, nullptr) << serialize(Resp);
  return R ? serialize(*R) : std::string();
}

//===----------------------------------------------------------------------===//
// Frame transport (support/Framing.h)
//===----------------------------------------------------------------------===//

TEST(Framing, RoundTripOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const std::string Payload = "{\"op\":\"ping\"}";
  std::string Err, Got;
  ASSERT_TRUE(wire::writeFrame(Fds[0], Payload, &Err)) << Err;
  ASSERT_TRUE(wire::readFrame(Fds[1], Got, &Err)) << Err;
  EXPECT_EQ(Got, Payload);

  // Several frames queue and come back in order, including an empty one.
  ASSERT_TRUE(wire::writeFrame(Fds[0], "first", &Err));
  ASSERT_TRUE(wire::writeFrame(Fds[0], "", &Err));
  ASSERT_TRUE(wire::writeFrame(Fds[0], "third", &Err));
  ASSERT_TRUE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_EQ(Got, "first");
  ASSERT_TRUE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_EQ(Got, "");
  ASSERT_TRUE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_EQ(Got, "third");
  close(Fds[0]);
  close(Fds[1]);
}

TEST(Framing, CleanEofReportsEof) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  close(Fds[0]); // peer hangs up before sending anything
  std::string Err, Got;
  EXPECT_FALSE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_EQ(Err, "eof");
  close(Fds[1]);
}

TEST(Framing, TornHeaderIsAnError) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const char Partial[2] = {0, 0}; // half a length header, then EOF
  ASSERT_EQ(write(Fds[0], Partial, sizeof(Partial)),
            static_cast<ssize_t>(sizeof(Partial)));
  close(Fds[0]);
  std::string Err, Got;
  EXPECT_FALSE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_NE(Err, "eof"); // mid-frame truncation is not a clean hangup
  close(Fds[1]);
}

TEST(Framing, OversizedLengthHeaderRejected) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // A length header beyond MaxFrameBytes must be rejected without any
  // attempt to allocate or read the body.
  const unsigned char Header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(write(Fds[0], Header, 4), 4);
  std::string Err, Got;
  EXPECT_FALSE(wire::readFrame(Fds[1], Got, &Err));
  EXPECT_NE(Err.find("frame"), std::string::npos) << Err;
  close(Fds[0]);
  close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// GraphStore: epochs and snapshot lifetime
//===----------------------------------------------------------------------===//

TEST(GraphStore, ReloadBumpsEpochMonotonically) {
  service::GraphStore Store;
  service::GraphInfo A =
      Store.install("g", generateUniformRandom(50, 200, 1), "uniform(50,200)",
                    0.0);
  EXPECT_EQ(A.Epoch, 1u);
  EXPECT_EQ(A.NumNodes, 50u);
  EXPECT_EQ(A.NumEdges, 200u);

  service::GraphInfo B =
      Store.install("other", generateUniformRandom(10, 20, 1), "uniform", 0.0);
  EXPECT_EQ(B.Epoch, 2u);

  // Reloading "g" draws a fresh epoch from the same global counter: no
  // epoch is ever reused, even across different names.
  service::GraphInfo A2 =
      Store.install("g", generateUniformRandom(50, 200, 2), "uniform(50,200)",
                    0.0);
  EXPECT_EQ(A2.Epoch, 3u);
  EXPECT_EQ(Store.get("g").Info.Epoch, 3u);
  EXPECT_EQ(Store.size(), 2u);
}

TEST(GraphStore, SnapshotSurvivesUnloadWhileHeld) {
  service::GraphStore Store;
  Store.install("g", generateUniformRandom(30, 100, 1), "uniform", 0.0);
  service::ResidentGraph Held = Store.get("g");
  ASSERT_NE(Held.G, nullptr);
  EXPECT_TRUE(Store.unload("g"));
  EXPECT_EQ(Store.get("g").G, nullptr);
  EXPECT_FALSE(Store.unload("g")); // second unload: already gone
  // The in-flight job's shared_ptr keeps the data alive and readable.
  EXPECT_EQ(Held.G->numNodes(), 30u);
  EXPECT_EQ(Held.G->numEdges(), 100u);
}

//===----------------------------------------------------------------------===//
// ResultCache: LRU + invalidation
//===----------------------------------------------------------------------===//

TEST(ResultCache, HitMissAndLruEviction) {
  service::ResultCache Cache(2);
  EXPECT_FALSE(Cache.lookup("a").has_value()); // miss
  Cache.insert("a", "g1", "report-a");
  Cache.insert("b", "g1", "report-b");
  EXPECT_EQ(Cache.lookup("a").value_or(""), "report-a"); // a is now MRU
  Cache.insert("c", "g1", "report-c");                   // evicts b (LRU)
  EXPECT_FALSE(Cache.lookup("b").has_value());
  EXPECT_EQ(Cache.lookup("a").value_or(""), "report-a");
  EXPECT_EQ(Cache.lookup("c").value_or(""), "report-c");

  service::CacheCounters C = Cache.counters();
  EXPECT_EQ(C.Hits, 3u);
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Insertions, 3u);
  EXPECT_EQ(C.Evictions, 1u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(ResultCache, InvalidateGraphPurgesOnlyItsEntries) {
  service::ResultCache Cache(8);
  Cache.insert("a1", "ga", "r");
  Cache.insert("a2", "ga", "r");
  Cache.insert("b1", "gb", "r");
  EXPECT_EQ(Cache.invalidateGraph("ga"), 2u);
  EXPECT_FALSE(Cache.lookup("a1").has_value());
  EXPECT_TRUE(Cache.lookup("b1").has_value());
  EXPECT_EQ(Cache.counters().Invalidations, 2u);
}

TEST(ResultCache, CapacityZeroDisablesCaching) {
  service::ResultCache Cache(0);
  Cache.insert("a", "g", "r");
  EXPECT_FALSE(Cache.lookup("a").has_value());
  EXPECT_EQ(Cache.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Service.handle: protocol ops, errors, admission control, budgets
//===----------------------------------------------------------------------===//

/// Loads a small generated graph named \p Name into \p Svc.
void loadGraph(service::Service &Svc, const std::string &Name,
               unsigned Nodes = 200, unsigned Edges = 800,
               unsigned Seed = 1) {
  std::string Resp = Svc.handle(
      "{\"op\":\"load\",\"graph\":\"" + Name + "\",\"generator\":\"rmat\"," +
      "\"nodes\":" + std::to_string(Nodes) +
      ",\"edges\":" + std::to_string(Edges) +
      ",\"seed\":" + std::to_string(Seed) + "}");
  ASSERT_TRUE(parsed(Resp).boolAt("ok")) << Resp;
}

/// A submit request for pagerank.gm with optional extra knob JSON (a
/// fragment like ",\"workers\":2" appended inside the object).
std::string pagerankSubmit(const std::string &Graph,
                           const std::string &Extra = "") {
  return "{\"op\":\"submit\",\"graph\":\"" + Graph +
         "\",\"source_file\":\"" + algo("pagerank.gm") +
         "\",\"args\":{\"e\":0.001,\"d\":0.85,\"max_iter\":8}" + Extra + "}";
}

TEST(Service, PingAndMalformedRequests) {
  service::Service Svc;
  json::Node Pong = parsed(Svc.handle("{\"op\":\"ping\"}"));
  EXPECT_TRUE(Pong.boolAt("ok"));
  EXPECT_EQ(Pong.strAt("protocol"), "gmd.v1");

  json::Node Bad = parsed(Svc.handle("not json"));
  EXPECT_FALSE(Bad.boolAt("ok"));
  EXPECT_NE(Bad.strAt("error").find("malformed"), std::string::npos);

  json::Node Unknown = parsed(Svc.handle("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(Unknown.boolAt("ok"));

  json::Node NotObject = parsed(Svc.handle("[1,2]"));
  EXPECT_FALSE(NotObject.boolAt("ok"));
}

TEST(Service, SubmitAgainstMissingGraphFails) {
  service::Service Svc;
  json::Node R = parsed(Svc.handle(pagerankSubmit("nope")));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_NE(R.strAt("error").find("no resident graph"), std::string::npos);
}

TEST(Service, SubmitRejectsBadKnobsAtAdmission) {
  service::Service Svc;
  loadGraph(Svc, "g");
  // Knob validation happens before a job record is created: a bad value is
  // an {"ok":false} response, not a failed job.
  json::Node R =
      parsed(Svc.handle(pagerankSubmit("g", ",\"backend\":\"cuda\"")));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_EQ(Svc.scheduler().counters().Submitted, 0u);
  json::Node R2 =
      parsed(Svc.handle(pagerankSubmit("g", ",\"workers\":0")));
  EXPECT_FALSE(R2.boolAt("ok"));
}

TEST(Service, DegreeAwarePartitionIsRejectedAtAdmission) {
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node R = parsed(
      Svc.handle(pagerankSubmit("g", ",\"partition\":\"degree-aware\"")));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_NE(R.strAt("error").find("unknown partition strategy"),
            std::string::npos)
      << serialize(R);
  EXPECT_EQ(Svc.scheduler().counters().Submitted, 0u);
}

TEST(Service, EdgePropertyProgramFailsAndTheServiceKeepsServing) {
  // Submits carry scalar arguments only, so sssp's "len" edge property can
  // never be supplied: the job fails naming the property, instead of the
  // engine reading a column that does not exist.
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(
      "{\"op\":\"submit\",\"graph\":\"g\",\"source_file\":\"" +
      algo("sssp.gm") + "\",\"args\":{\"root\":0}}"));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_EQ(R.strAt("state"), "failed");
  EXPECT_NE(R.strAt("error").find("edge property \"len\""), std::string::npos)
      << serialize(R);

  json::Node Next = parsed(Svc.handle(pagerankSubmit("g")));
  EXPECT_TRUE(Next.boolAt("ok")) << serialize(Next);
  EXPECT_EQ(Next.strAt("state"), "done");
}

TEST(Service, MissingScalarArgumentFailsTheJob) {
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(
      "{\"op\":\"submit\",\"graph\":\"g\",\"source_file\":\"" +
      algo("pagerank.gm") + "\",\"args\":{\"e\":0.0,\"d\":0.85}}"));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_EQ(R.strAt("state"), "failed");
  EXPECT_NE(R.strAt("error").find("missing scalar argument \"max_iter\""),
            std::string::npos)
      << serialize(R);
  EXPECT_TRUE(parsed(Svc.handle(pagerankSubmit("g"))).boolAt("ok"));
}

TEST(Service, MessagelessProgramReportsThePackedFormat) {
  // degree_stats sends no messages (its layout is empty) and still runs on
  // the engine's one mailbox format; the "message_format" key in the
  // request is ignored like any unknown key.
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(
      "{\"op\":\"submit\",\"graph\":\"g\",\"source_file\":\"" +
      algo("degree_stats.gm") +
      "\",\"args\":{\"hub_bar\":4},\"message_format\":\"boxed\"}"));
  ASSERT_TRUE(R.boolAt("ok")) << serialize(R);
  json::Node Doc = parsed(reportOf(R));
  const json::Node &Run = Doc.find("runs")->Elems[0];
  EXPECT_EQ(Run.find("config")->strAt("message_format"), "packed");
  EXPECT_EQ(Run.find("config")->intAt("mailbox_record_bytes"), 4);
  EXPECT_EQ(Run.find("totals")->intAt("messages"), 0);
}

TEST(Service, RunsJobAndReportsMatchSchema) {
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(R.boolAt("ok")) << serialize(R);
  EXPECT_EQ(R.strAt("state"), "done");
  EXPECT_EQ(R.strAt("cache"), "miss");
  const std::string Report = reportOf(R);
  json::Node Doc = parsed(Report);
  EXPECT_EQ(Doc.strAt("schema"), "gm.run-report");
  const json::Node *Runs = Doc.find("runs");
  ASSERT_NE(Runs, nullptr);
  ASSERT_EQ(Runs->Elems.size(), 1u);
  EXPECT_EQ(Runs->Elems[0].strAt("program"), "pagerank");
}

TEST(Service, SecondIdenticalSubmitIsACacheHit) {
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node First = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(First.boolAt("ok"));
  EXPECT_EQ(First.strAt("cache"), "miss");

  json::Node Second = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(Second.boolAt("ok"));
  EXPECT_EQ(Second.strAt("cache"), "hit");
  // A hit is a byte-identical replay of the first run's report.
  EXPECT_EQ(reportOf(First), reportOf(Second));
  EXPECT_EQ(Svc.cache().counters().Hits, 1u);

  // A different argument is a different key.
  json::Node Third = parsed(Svc.handle(
      "{\"op\":\"submit\",\"graph\":\"g\",\"source_file\":\"" +
      algo("pagerank.gm") +
      "\",\"args\":{\"e\":0.001,\"d\":0.85,\"max_iter\":3}}"));
  ASSERT_TRUE(Third.boolAt("ok"));
  EXPECT_EQ(Third.strAt("cache"), "miss");
}

TEST(Service, ReloadInvalidatesCachedReports) {
  service::Service Svc;
  loadGraph(Svc, "g", 200, 800, /*Seed=*/1);
  json::Node First = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(First.boolAt("ok"));

  // Reload under the same name (different seed: genuinely different data).
  loadGraph(Svc, "g", 200, 800, /*Seed=*/2);
  json::Node Second = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(Second.boolAt("ok"));
  EXPECT_EQ(Second.strAt("cache"), "miss"); // epoch bumped: new key
  EXPECT_EQ(Second.intAt("graph_epoch"), First.intAt("graph_epoch") + 1);
}

TEST(Service, QueueFullRejectsSubmit) {
  service::ServiceConfig Cfg;
  Cfg.MaxRunningJobs = 1;
  Cfg.MaxQueuedJobs = 0; // every submit finds the backlog "full"
  service::Service Svc(Cfg);
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(pagerankSubmit("g")));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_NE(R.strAt("error").find("queue full"), std::string::npos);
  EXPECT_EQ(Svc.scheduler().counters().Rejected, 1u);
}

TEST(Service, SuperstepBudgetClampsJobRequest) {
  service::ServiceConfig Cfg;
  Cfg.MaxSupersteps = 3; // daemon ceiling below what pagerank x8 needs
  service::Service Svc(Cfg);
  loadGraph(Svc, "g");
  // The job asks for far more supersteps than the daemon allows; the clamp
  // stops the run at the ceiling with the runaway-guard halt reason.
  json::Node R = parsed(
      Svc.handle(pagerankSubmit("g", ",\"max_supersteps\":1000000")));
  ASSERT_TRUE(R.boolAt("ok")) << serialize(R);
  json::Node Doc = parsed(reportOf(R));
  const json::Node *Totals = Doc.find("runs")->Elems[0].find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->strAt("halt"), "max-supersteps");
  EXPECT_LE(Totals->intAt("supersteps"), 3);
}

TEST(Service, MailboxBudgetRejectsOversizedJob) {
  service::ServiceConfig Cfg;
  Cfg.JobMailboxBudgetBytes = 1024; // far below 800 edges x record x 2
  service::Service Svc(Cfg);
  loadGraph(Svc, "g");
  json::Node R = parsed(Svc.handle(pagerankSubmit("g")));
  EXPECT_FALSE(R.boolAt("ok"));
  EXPECT_EQ(R.strAt("state"), "failed");
  EXPECT_NE(R.strAt("error").find("budget"), std::string::npos)
      << serialize(R);
}

TEST(Service, UnloadPurgesCacheAndCatalogue) {
  service::Service Svc;
  loadGraph(Svc, "g");
  ASSERT_TRUE(parsed(Svc.handle(pagerankSubmit("g"))).boolAt("ok"));
  json::Node R = parsed(Svc.handle("{\"op\":\"unload\",\"graph\":\"g\"}"));
  EXPECT_TRUE(R.boolAt("ok"));
  EXPECT_EQ(R.intAt("cache_entries_purged"), 1);
  EXPECT_EQ(Svc.graphs().size(), 0u);
  json::Node Again = parsed(Svc.handle("{\"op\":\"unload\",\"graph\":\"g\"}"));
  EXPECT_FALSE(Again.boolAt("ok"));
}

TEST(Service, StatusAndListSeeFinishedJobs) {
  service::Service Svc;
  loadGraph(Svc, "g");
  json::Node Sub = parsed(Svc.handle(pagerankSubmit("g")));
  ASSERT_TRUE(Sub.boolAt("ok"));
  const int64_t Id = Sub.intAt("job");

  json::Node St = parsed(Svc.handle(
      "{\"op\":\"status\",\"job\":" + std::to_string(Id) + "}"));
  EXPECT_TRUE(St.boolAt("ok"));
  EXPECT_EQ(St.strAt("state"), "done");
  EXPECT_EQ(St.find("report"), nullptr); // status is light; result embeds it

  json::Node Res = parsed(Svc.handle(
      "{\"op\":\"result\",\"job\":" + std::to_string(Id) + "}"));
  EXPECT_TRUE(Res.boolAt("ok"));
  EXPECT_NE(Res.find("report"), nullptr);

  json::Node List = parsed(Svc.handle("{\"op\":\"list\"}"));
  EXPECT_EQ(List.find("graphs")->Elems.size(), 1u);
  EXPECT_EQ(List.find("jobs")->Elems.size(), 1u);

  json::Node Missing = parsed(Svc.handle("{\"op\":\"status\",\"job\":999}"));
  EXPECT_FALSE(Missing.boolAt("ok"));
}

TEST(Service, StatsExposeCountersAndLimits) {
  service::Service Svc;
  loadGraph(Svc, "g");
  ASSERT_TRUE(parsed(Svc.handle(pagerankSubmit("g"))).boolAt("ok"));
  ASSERT_TRUE(parsed(Svc.handle(pagerankSubmit("g"))).boolAt("ok"));
  json::Node S = parsed(Svc.handle("{\"op\":\"stats\"}"));
  EXPECT_TRUE(S.boolAt("ok"));
  EXPECT_EQ(S.intAt("graphs"), 1);
  const json::Node *Jobs = S.find("jobs");
  ASSERT_NE(Jobs, nullptr);
  EXPECT_EQ(Jobs->intAt("submitted"), 2);
  EXPECT_EQ(Jobs->intAt("completed"), 2);
  const json::Node *Cache = S.find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->intAt("hits"), 1);
  EXPECT_EQ(Cache->intAt("misses"), 1);
}

TEST(Service, ShutdownSetsDrainFlag) {
  service::Service Svc;
  EXPECT_FALSE(Svc.shutdownRequested());
  json::Node R = parsed(Svc.handle("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(R.boolAt("ok"));
  EXPECT_TRUE(Svc.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// canonicalizeReport
//===----------------------------------------------------------------------===//

TEST(Service, CanonicalizeZeroesOnlyVolatileFields) {
  const std::string Doc =
      "{\"wall_seconds\":1.25,\"messages\":42,\"peak_rss_bytes\":777,"
      "\"host_cores\":8,\"time_imbalance\":1.7,\"message_imbalance\":2.5,"
      "\"phase_seconds\":{\"compute\":0.5,\"barrier\":0.25}}";
  const std::string Canon = service::canonicalizeReport(Doc);
  json::Node N = parsed(Canon);
  EXPECT_EQ(N.numAt("wall_seconds"), 0.0);
  EXPECT_EQ(N.intAt("peak_rss_bytes"), 0);
  EXPECT_EQ(N.intAt("host_cores"), 0);
  EXPECT_EQ(N.numAt("time_imbalance"), 0.0);
  EXPECT_EQ(N.find("phase_seconds")->numAt("compute"), 0.0);
  // Deterministic engine counters survive untouched.
  EXPECT_EQ(N.intAt("messages"), 42);
  EXPECT_EQ(N.numAt("message_imbalance"), 2.5);
}

//===----------------------------------------------------------------------===//
// Concurrent-job determinism: the serving contract
//===----------------------------------------------------------------------===//

/// One leg of the determinism sweep: engine knobs that must not change
/// results (docs/serving.md).
struct Leg {
  const char *Partition;
  const char *Backend;
  unsigned Workers;
  bool Threaded;
};

std::string legSubmit(const Leg &L) {
  return pagerankSubmit(
      "g", std::string(",\"partition\":\"") + L.Partition +
               "\",\"backend\":\"" + L.Backend +
               "\",\"workers\":" + std::to_string(L.Workers) +
               (L.Threaded ? ",\"threaded\":true" : ""));
}

TEST(ServiceDeterminism, ConcurrentJobsMatchSequentialRuns) {
  // hash/range partitions x interp/native x two worker shapes = 8
  // simultaneous jobs, all sharing one resident graph. Every concurrent
  // report must be bit-identical (canonicalized) to the same submission run
  // sequentially with caching off.
  const Leg Legs[] = {
      {"hash", "interp", 2, false},  {"hash", "interp", 4, true},
      {"range", "interp", 2, false}, {"range", "interp", 4, true},
      {"hash", "native", 2, false},  {"hash", "native", 4, true},
      {"range", "native", 2, false}, {"range", "native", 4, true},
  };
  constexpr size_t NumLegs = sizeof(Legs) / sizeof(Legs[0]);

  // Sequential references: one job at a time, cache disabled.
  service::ServiceConfig SeqCfg;
  SeqCfg.MaxRunningJobs = 1;
  SeqCfg.CacheCapacity = 0;
  service::Service Seq(SeqCfg);
  loadGraph(Seq, "g", 300, 1500, 5);
  std::vector<std::string> Expected(NumLegs);
  for (size_t I = 0; I < NumLegs; ++I) {
    json::Node R = parsed(Seq.handle(legSubmit(Legs[I])));
    ASSERT_TRUE(R.boolAt("ok")) << serialize(R);
    Expected[I] = service::canonicalizeReport(reportOf(R));
  }

  // Concurrent run: all 8 in flight at once (cache off so every job truly
  // exercises the engine).
  service::ServiceConfig ConCfg;
  ConCfg.MaxRunningJobs = NumLegs;
  ConCfg.CacheCapacity = 0;
  service::Service Con(ConCfg);
  loadGraph(Con, "g", 300, 1500, 5);
  std::vector<std::string> Got(NumLegs);
  std::vector<std::thread> Threads;
  Threads.reserve(NumLegs);
  for (size_t I = 0; I < NumLegs; ++I)
    Threads.emplace_back([&, I] {
      json::Node R = parsed(Con.handle(legSubmit(Legs[I])));
      if (R.boolAt("ok"))
        Got[I] = service::canonicalizeReport(reportOf(R));
    });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < NumLegs; ++I) {
    EXPECT_FALSE(Got[I].empty()) << "leg " << I << " failed";
    EXPECT_EQ(Got[I], Expected[I])
        << "leg " << I << " (" << Legs[I].Partition << "/" << Legs[I].Backend
        << "/w" << Legs[I].Workers << ")";
  }
}

TEST(ServiceDeterminism, ConcurrentTraceSessionsStayIsolated) {
  // Two traced jobs plus one untraced job run simultaneously; each traced
  // job records events into its own session and the untraced job records
  // none — the thread-scoped trace binding keeps them apart.
  service::ServiceConfig Cfg;
  Cfg.MaxRunningJobs = 3;
  Cfg.CacheCapacity = 0;
  service::Service Svc(Cfg);
  loadGraph(Svc, "g");

  json::Node R[3];
  std::thread T0([&] {
    R[0] = parsed(Svc.handle(pagerankSubmit("g", ",\"trace\":true")));
  });
  std::thread T1([&] {
    R[1] = parsed(Svc.handle(
        pagerankSubmit("g", ",\"trace\":true,\"workers\":2")));
  });
  std::thread T2([&] { R[2] = parsed(Svc.handle(pagerankSubmit("g"))); });
  T0.join();
  T1.join();
  T2.join();

  ASSERT_TRUE(R[0].boolAt("ok")) << serialize(R[0]);
  ASSERT_TRUE(R[1].boolAt("ok")) << serialize(R[1]);
  ASSERT_TRUE(R[2].boolAt("ok")) << serialize(R[2]);
  EXPECT_GT(R[0].intAt("trace_events"), 0);
  EXPECT_GT(R[1].intAt("trace_events"), 0);
  EXPECT_EQ(R[2].intAt("trace_events"), 0);
}

} // namespace
