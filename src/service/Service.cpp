//===- service/Service.cpp -------------------------------------------------===//

#include "service/Service.h"

#include "driver/Compiler.h"
#include "exec/Backend.h"
#include "graph/EdgeListIO.h"
#include "graph/Generators.h"
#include "pregel/MetricsSink.h"
#include "pregel/RuntimeTrace.h"
#include "pregelir/CppCodegen.h"
#include "service/Protocol.h"
#include "support/JSON.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

using namespace gm;
using namespace gm::service;

namespace {

/// A request that cannot proceed; the message becomes the error response
/// (or the job's Failed record when thrown from a job body).
class ServiceError : public std::runtime_error {
public:
  explicit ServiceError(const std::string &Msg) : std::runtime_error(Msg) {}
};

std::string errorResponse(const std::string &Msg) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("ok", false);
  W.field("error", Msg);
  W.endObject();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Request field helpers
//===----------------------------------------------------------------------===//

std::string requireString(const json::Node &Req, const std::string &Key) {
  const json::Node *N = Req.find(Key);
  if (!N || !N->isString() || N->S.empty())
    throw ServiceError("missing required string field \"" + Key + "\"");
  return N->S;
}

uint64_t uintAt(const json::Node &Req, const std::string &Key,
                uint64_t Default) {
  const json::Node *N = Req.find(Key);
  if (!N)
    return Default;
  if (!N->isNumber() || N->asInt() < 0)
    throw ServiceError("field \"" + Key + "\" must be a non-negative number");
  return static_cast<uint64_t>(N->asInt());
}

/// Engine knobs of one job, parsed from the submit request at admission
/// time so malformed configs are rejected before a job record exists.
struct JobSpec {
  std::string Source;       ///< Green-Marl source text
  std::string ProgramLabel; ///< source path or "<inline>" (display)
  std::vector<std::pair<std::string, json::Node>> Args;
  pregel::Config Cfg;  ///< engine knobs (Diags filled per run)
  uint64_t Seed = 1;
  bool Trace = false;  ///< record a per-job runtime trace session
};

JobSpec parseJobSpec(const json::Node &Req, const ServiceConfig &Limits) {
  JobSpec Spec;
  if (const json::Node *Src = Req.find("source")) {
    if (!Src->isString())
      throw ServiceError("\"source\" must be a string of Green-Marl code");
    Spec.Source = Src->S;
    Spec.ProgramLabel = "<inline>";
  }
  if (const json::Node *File = Req.find("source_file")) {
    if (!Spec.Source.empty())
      throw ServiceError("give \"source\" or \"source_file\", not both");
    if (!File->isString())
      throw ServiceError("\"source_file\" must be a path string");
    std::ifstream In(File->S);
    if (!In)
      throw ServiceError("cannot read source_file " + File->S);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Spec.Source = Buf.str();
    Spec.ProgramLabel = File->S;
  }
  if (Spec.Source.empty())
    throw ServiceError("submit needs \"source\" or \"source_file\"");

  if (const json::Node *Args = Req.find("args")) {
    if (!Args->isObject())
      throw ServiceError("\"args\" must be an object of scalar arguments");
    for (const auto &[Name, V] : Args->Members) {
      if (!V.isNumber() && !V.isBool())
        throw ServiceError("argument \"" + Name +
                           "\" must be a number or bool");
      Spec.Args.emplace_back(Name, V);
    }
  }

  pregel::Config &Cfg = Spec.Cfg;
  Cfg.NumWorkers = static_cast<unsigned>(
      uintAt(Req, "workers", Limits.DefaultWorkers));
  if (Cfg.NumWorkers == 0)
    throw ServiceError("\"workers\" must be >= 1");
  if (const json::Node *N = Req.find("threaded")) {
    if (!N->isBool())
      throw ServiceError("\"threaded\" must be a bool");
    Cfg.Threaded = N->B;
  }
  if (const json::Node *N = Req.find("partition")) {
    auto S = pregel::parsePartitionStrategy(N->S);
    if (!S)
      throw ServiceError("unknown partition strategy \"" + N->S + "\"");
    Cfg.Partition = *S;
  }
  Cfg.LalpThreshold =
      static_cast<uint32_t>(uintAt(Req, "lalp_threshold", 0));
  if (const json::Node *N = Req.find("schedule")) {
    auto S = pregel::parseScheduleMode(N->S);
    if (!S)
      throw ServiceError("\"schedule\" must be auto, dense, or sparse");
    Cfg.Schedule = *S;
  }
  if (const json::Node *N = Req.find("backend")) {
    if (N->S == "interp")
      Cfg.Backend = pregel::ExecBackend::Interp;
    else if (N->S == "native")
      Cfg.Backend = pregel::ExecBackend::Native;
    else
      throw ServiceError("\"backend\" must be interp or native");
  }
  Spec.Seed = uintAt(Req, "seed", 1);
  Cfg.RandomSeed = Spec.Seed;
  // The per-job superstep budget: the request may lower the daemon's
  // ceiling but never raise it.
  Cfg.MaxSupersteps =
      std::min(uintAt(Req, "max_supersteps", Limits.MaxSupersteps),
               Limits.MaxSupersteps);
  if (const json::Node *N = Req.find("trace")) {
    if (!N->isBool())
      throw ServiceError("\"trace\" must be a bool");
    Spec.Trace = N->B;
  }
  return Spec;
}

//===----------------------------------------------------------------------===//
// Job execution
//===----------------------------------------------------------------------===//

/// Canonical spelling of one scalar argument value for the cache key.
std::string canonicalValue(const Value &V) {
  return V.toString();
}

/// The deterministic identity of a job: everything that can change its
/// report, nothing that cannot.
std::string cacheKey(const std::string &Fingerprint,
                     const std::vector<std::pair<std::string, Value>> &Args,
                     const GraphInfo &GI, const pregel::Config &Cfg,
                     uint64_t Seed) {
  std::vector<std::string> Parts;
  Parts.reserve(Args.size());
  for (const auto &[Name, V] : Args)
    Parts.push_back(Name + "=" + canonicalValue(V));
  std::sort(Parts.begin(), Parts.end());
  std::string Key = Fingerprint + "|args:";
  for (const std::string &P : Parts)
    Key += P + ",";
  Key += "|graph:" + GI.Name + "@" + std::to_string(GI.Epoch);
  Key += "|w:" + std::to_string(Cfg.NumWorkers);
  Key += Cfg.Threaded ? "|threaded" : "|seq";
  Key += std::string("|part:") + pregel::partitionStrategyName(Cfg.Partition);
  Key += "|lalp:" + std::to_string(Cfg.LalpThreshold);
  Key += std::string("|sched:") + pregel::scheduleModeName(Cfg.Schedule);
  Key += std::string("|backend:") +
         (Cfg.Backend == pregel::ExecBackend::Native ? "native" : "interp");
  Key += "|seed:" + std::to_string(Seed);
  Key += "|steps:" + std::to_string(Cfg.MaxSupersteps);
  return Key;
}

/// Compiles and runs one job against the resident graph, producing the
/// gm.run-report document — the serving twin of gmpc's --run path.
std::string runJob(const JobSpec &Spec, const ResidentGraph &RG,
                   uint64_t JobMailboxBudgetBytes, ResultCache &Cache,
                   bool &CacheHit, uint64_t &TraceEvents) {
  // Per-job trace isolation: bind a thread-scoped session so this job's
  // engine (and its pool workers, which adopt the dispatcher's session)
  // records into a private buffer no concurrent job can see.
  std::optional<trace::ScopedThreadSession> TraceSession;
  if (Spec.Trace)
    TraceSession.emplace();

  PassStatistics PassStats;
  CompileOptions Opts;
  Opts.Stats = &PassStats;
  CompileResult R = compileGreenMarl(Spec.Source, Opts);
  if (!R.ok())
    throw ServiceError("compilation failed: " + R.Diags->dump());
  // Coerce the JSON argument values against the program's declared scalar
  // types, exactly like gmpc --arg parsing.
  std::vector<std::pair<std::string, Value>> TypedArgs;
  for (const auto &[Name, V] : Spec.Args) {
    int Idx = R.Program->findGlobal(Name);
    if (Idx < 0)
      throw ServiceError("no scalar argument named \"" + Name + "\"");
    ValueKind K = R.Program->Globals[Idx].Ty;
    if (K == ValueKind::Double)
      TypedArgs.emplace_back(Name, Value::makeDouble(V.num()));
    else if (K == ValueKind::Bool)
      TypedArgs.emplace_back(
          Name, Value::makeBool(V.isBool() ? V.B : V.asInt() != 0));
    else
      TypedArgs.emplace_back(Name, Value::makeInt(V.asInt()));
  }
  exec::ExecArgs Args;
  for (const auto &[Name, V] : TypedArgs)
    Args.Scalars[Name] = V;
  // Submits carry scalar arguments only, so a program that declares an edge
  // property always fails here.
  if (std::string Missing = exec::missingArgument(*R.Program, Args);
      !Missing.empty())
    throw ServiceError(Missing);

  const std::string Fingerprint = pir::programFingerprint(*R.Program);
  const std::string Key =
      cacheKey(Fingerprint, TypedArgs, RG.Info, Spec.Cfg, Spec.Seed);
  if (auto Cached = Cache.lookup(Key)) {
    CacheHit = true;
    return *Cached;
  }

  const Graph &G = *RG.G;
  const unsigned RecordBytes =
      pir::deriveMessageLayout(*R.Program).recordSize();
  if (JobMailboxBudgetBytes) {
    // Worst case: one message per edge, double-buffered across the
    // send/deliver superstep boundary.
    const uint64_t Estimate = G.numEdges() * uint64_t(RecordBytes) * 2;
    if (Estimate > JobMailboxBudgetBytes)
      throw ServiceError(
          "estimated mailbox footprint " + std::to_string(Estimate) +
          " bytes exceeds the per-job budget " +
          std::to_string(JobMailboxBudgetBytes) +
          " bytes (graph " + RG.Info.Name + ", record " +
          std::to_string(RecordBytes) + "B)");
  }

  pregel::Config Cfg = Spec.Cfg;
  DiagnosticEngine RunDiags;
  Cfg.Diags = &RunDiags;
  if (Spec.Trace)
    pregel::traceNameLanes(Cfg.NumWorkers);
  exec::BackendRun BRun =
      exec::runProgramWithBackend(*R.Program, G, std::move(Args), Cfg);

  pregel::RunMetadata Meta;
  Meta.Program = R.Program->Name;
  Meta.Graph = RG.Info.Source;
  Meta.NumNodes = G.numNodes();
  Meta.NumEdges = G.numEdges();
  Meta.Workers = Cfg.NumWorkers;
  Meta.Threaded = Cfg.Threaded;
  Meta.Seed = Spec.Seed;
  Meta.MessageFormat = "packed";
  Meta.MailboxRecordBytes = RecordBytes;
  Meta.Partition = pregel::partitionStrategyName(Cfg.Partition);
  Meta.LalpThreshold = Cfg.LalpThreshold;
  Meta.Backend = exec::backendKindName(BRun.Used);
  Meta.Schedule = pregel::scheduleModeName(Cfg.Schedule);
  pregel::Partition Part = pregel::makePartition(G, Cfg.Partition,
                                                 Cfg.NumWorkers);
  Meta.WorkerEdges = Part.edgeCounts(G);
  Meta.WorkerVertices.resize(Cfg.NumWorkers);
  for (unsigned Worker = 0; Worker < Cfg.NumWorkers; ++Worker)
    Meta.WorkerVertices[Worker] = Part.ownedCount(Worker);

  // Serialize exactly like JsonSink::close so daemon reports are
  // byte-compatible with one-shot gmpc --stats-json documents.
  std::ostringstream Buf;
  json::Writer W(Buf);
  W.beginObject();
  W.field("schema", pregel::ReportSchemaName);
  W.field("version", pregel::ReportSchemaVersion);
  W.key("runs");
  W.beginArray();
  pregel::writeRunJson(W, Meta, BRun.Stats, &PassStats);
  W.endArray();
  W.endObject();
  Buf << '\n';
  std::string Report = Buf.str();

  if (TraceSession)
    TraceEvents = TraceSession->session().eventCount();

  Cache.insert(Key, RG.Info.Name, Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Response assembly
//===----------------------------------------------------------------------===//

void writeJobFields(json::Writer &W, const JobRecord &R) {
  W.field("job", R.Id);
  W.field("state", jobStateName(R.State));
  W.field("program", R.Program);
  W.field("graph", R.GraphName);
  W.field("graph_epoch", R.GraphEpoch);
  if (R.State == JobState::Done)
    W.field("cache", R.CacheHit ? "hit" : "miss");
  if (!R.Error.empty())
    W.field("error", R.Error);
  if (R.TraceEvents)
    W.field("trace_events", R.TraceEvents);
  W.field("queue_seconds", R.QueueSeconds);
  W.field("run_seconds", R.RunSeconds);
}

void writeGraphInfo(json::Writer &W, const GraphInfo &GI) {
  W.beginObject();
  W.field("name", GI.Name);
  W.field("epoch", GI.Epoch);
  W.field("nodes", static_cast<uint64_t>(GI.NumNodes));
  W.field("edges", GI.NumEdges);
  W.field("source", GI.Source);
  W.field("load_seconds", GI.LoadSeconds);
  W.endObject();
}

/// Strips the trailing newline so a report document can be embedded as a
/// member value of a response object.
std::string_view trimmed(const std::string &Report) {
  std::string_view V = Report;
  while (!V.empty() && (V.back() == '\n' || V.back() == '\r'))
    V.remove_suffix(1);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// canonicalizeReport
//===----------------------------------------------------------------------===//

namespace {

bool isVolatileKey(const std::string &Key) {
  // time_imbalance is a ratio of measured worker wall times; everything
  // else timing-derived carries "seconds" in its name.
  return Key.find("seconds") != std::string::npos ||
         Key == "peak_rss_bytes" || Key == "host_cores" ||
         Key == "time_imbalance";
}

void scrub(json::Node &N, bool ZeroAllNumbers) {
  if (N.isObject()) {
    for (auto &[Key, V] : N.Members) {
      if (isVolatileKey(Key)) {
        if (V.isNumber()) {
          V.K = json::Node::Kind::Int;
          V.I = 0;
          V.D = 0.0;
        } else {
          // phase_seconds and friends: zero every number underneath.
          scrub(V, /*ZeroAllNumbers=*/true);
        }
      } else {
        scrub(V, ZeroAllNumbers);
      }
    }
    return;
  }
  if (N.isArray()) {
    for (json::Node &E : N.Elems)
      scrub(E, ZeroAllNumbers);
    return;
  }
  if (ZeroAllNumbers && N.isNumber()) {
    N.K = json::Node::Kind::Int;
    N.I = 0;
    N.D = 0.0;
  }
}

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

} // namespace

std::string service::canonicalizeReport(const std::string &ReportJson) {
  json::Node Root;
  std::string Err;
  if (!json::parse(ReportJson, Root, &Err))
    return "(unparseable report: " + Err + ")";
  scrub(Root, /*ZeroAllNumbers=*/false);
  std::ostringstream OS;
  json::Writer W(OS);
  emitNode(W, Root);
  OS << '\n';
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

Service::Service(ServiceConfig Config)
    : Config(Config), Cache(Config.CacheCapacity),
      Sched(Config.MaxRunningJobs, Config.MaxQueuedJobs),
      StartedAt(std::chrono::steady_clock::now()) {}

Service::~Service() = default;

std::string Service::handle(const std::string &RequestJson) {
  json::Node Req;
  std::string Err;
  if (!json::parse(RequestJson, Req, &Err))
    return errorResponse("malformed request: " + Err);
  if (!Req.isObject())
    return errorResponse("request must be a JSON object");
  try {
    return handleParsed(Req);
  } catch (const std::exception &E) {
    return errorResponse(E.what());
  }
}

std::string Service::handleParsed(const json::Node &Req) {
  const std::string Op = Req.strAt("op");
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);

  if (Op == "ping") {
    W.beginObject();
    W.field("ok", true);
    W.field("protocol", ProtocolName);
    W.field("version", ProtocolVersion);
    W.endObject();
    return OS.str();
  }

  if (Op == "load") {
    const std::string Name = requireString(Req, "graph");
    const auto Start = std::chrono::steady_clock::now();
    std::optional<Graph> G;
    std::string Source;
    if (const json::Node *File = Req.find("file")) {
      if (!File->isString())
        throw ServiceError("\"file\" must be a path string");
      std::string LoadErr;
      auto Loaded = loadEdgeListFile(File->S, 0, &LoadErr);
      if (!Loaded)
        throw ServiceError(LoadErr);
      G.emplace(std::move(*Loaded));
      Source = File->S;
    } else if (const json::Node *Gen = Req.find("generator")) {
      const NodeId Nodes = static_cast<NodeId>(uintAt(Req, "nodes", 0));
      const EdgeId Edges = static_cast<EdgeId>(uintAt(Req, "edges", 0));
      const uint64_t Seed = uintAt(Req, "seed", 1);
      if (!Nodes)
        throw ServiceError("generator load needs \"nodes\" and \"edges\"");
      if (Gen->S == "rmat")
        G.emplace(generateRMAT(Nodes, Edges, Seed));
      else if (Gen->S == "uniform")
        G.emplace(generateUniformRandom(Nodes, Edges, Seed));
      else
        throw ServiceError("unknown generator \"" + Gen->S +
                           "\" (rmat or uniform)");
      Source = (Gen->S == "rmat" ? "rmat(" : "uniform(") +
               std::to_string(Nodes) + "," + std::to_string(Edges) + ")";
    } else {
      throw ServiceError("load needs \"file\" or \"generator\"");
    }
    const double LoadSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    // A reload bumps the epoch; reports cached against the replaced
    // snapshot can never be served again, so purge them eagerly.
    Cache.invalidateGraph(Name);
    GraphInfo GI = Store.install(Name, std::move(*G), Source, LoadSeconds);
    W.beginObject();
    W.field("ok", true);
    W.key("graph");
    writeGraphInfo(W, GI);
    W.endObject();
    return OS.str();
  }

  if (Op == "unload") {
    const std::string Name = requireString(Req, "graph");
    const size_t Purged = Cache.invalidateGraph(Name);
    const bool Removed = Store.unload(Name);
    if (!Removed)
      throw ServiceError("no resident graph named \"" + Name + "\"");
    W.beginObject();
    W.field("ok", true);
    W.field("graph", Name);
    W.field("cache_entries_purged", static_cast<uint64_t>(Purged));
    W.endObject();
    return OS.str();
  }

  if (Op == "list") {
    W.beginObject();
    W.field("ok", true);
    W.key("graphs");
    W.beginArray();
    for (const GraphInfo &GI : Store.list())
      writeGraphInfo(W, GI);
    W.endArray();
    W.key("jobs");
    W.beginArray();
    for (const JobRecord &R : Sched.listJobs()) {
      W.beginObject();
      writeJobFields(W, R);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return OS.str();
  }

  if (Op == "submit") {
    const std::string GraphName = requireString(Req, "graph");
    ResidentGraph RG = Store.get(GraphName);
    if (!RG.G)
      throw ServiceError("no resident graph named \"" + GraphName +
                         "\" (load it first)");
    JobSpec Spec = parseJobSpec(Req, Config);
    const uint64_t Budget = Config.JobMailboxBudgetBytes;
    ResultCache *CachePtr = &Cache;
    std::string SubmitErr;
    // Copy the label out before the capture below moves Spec: both are
    // submit() arguments, and their evaluation order is unspecified.
    const std::string Label = Spec.ProgramLabel;
    const uint64_t Epoch = RG.Info.Epoch;
    const uint64_t Id = Sched.submit(
        Label, GraphName, Epoch,
        [Spec = std::move(Spec), RG = std::move(RG), Budget,
         CachePtr](JobRecord &R) {
          bool CacheHit = false;
          uint64_t TraceEvents = 0;
          R.Report = runJob(Spec, RG, Budget, *CachePtr, CacheHit,
                            TraceEvents);
          R.CacheHit = CacheHit;
          R.TraceEvents = TraceEvents;
        },
        &SubmitErr);
    if (!Id)
      throw ServiceError(SubmitErr);

    bool Wait = true;
    if (const json::Node *N = Req.find("wait"))
      Wait = !N->isBool() || N->B;
    if (!Wait) {
      W.beginObject();
      W.field("ok", true);
      W.field("job", Id);
      W.field("state", "queued");
      W.endObject();
      return OS.str();
    }
    Sched.wait(Id);
    auto R = Sched.info(Id);
    W.beginObject();
    W.field("ok", R && R->State == JobState::Done);
    if (R) {
      writeJobFields(W, *R);
      if (R->State == JobState::Done) {
        W.key("report");
        W.rawValue(std::string(trimmed(R->Report)));
      }
    }
    W.endObject();
    return OS.str();
  }

  if (Op == "status" || Op == "result") {
    const uint64_t Id = uintAt(Req, "job", 0);
    auto R = Sched.info(Id);
    if (!R)
      throw ServiceError("no job with id " + std::to_string(Id));
    W.beginObject();
    W.field("ok", true);
    writeJobFields(W, *R);
    if (Op == "result" && R->State == JobState::Done) {
      W.key("report");
      W.rawValue(std::string(trimmed(R->Report)));
    }
    W.endObject();
    return OS.str();
  }

  if (Op == "stats") {
    const JobScheduler::Counters JC = Sched.counters();
    const CacheCounters CC = Cache.counters();
    W.beginObject();
    W.field("ok", true);
    W.field("uptime_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - StartedAt)
                .count());
    W.field("graphs", static_cast<uint64_t>(Store.size()));
    W.key("jobs");
    W.beginObject();
    W.field("submitted", JC.Submitted);
    W.field("completed", JC.Completed);
    W.field("failed", JC.Failed);
    W.field("rejected", JC.Rejected);
    W.field("max_running", Sched.maxRunning());
    W.field("max_queued", static_cast<uint64_t>(Sched.maxQueued()));
    W.endObject();
    W.key("cache");
    W.beginObject();
    W.field("hits", CC.Hits);
    W.field("misses", CC.Misses);
    W.field("insertions", CC.Insertions);
    W.field("evictions", CC.Evictions);
    W.field("invalidations", CC.Invalidations);
    W.field("size", static_cast<uint64_t>(Cache.size()));
    W.field("capacity", static_cast<uint64_t>(Cache.capacity()));
    W.endObject();
    W.key("limits");
    W.beginObject();
    W.field("max_supersteps", Config.MaxSupersteps);
    W.field("job_mailbox_budget_bytes", Config.JobMailboxBudgetBytes);
    W.field("default_workers", Config.DefaultWorkers);
    W.endObject();
    W.endObject();
    return OS.str();
  }

  if (Op == "shutdown") {
    Shutdown.store(true, std::memory_order_release);
    W.beginObject();
    W.field("ok", true);
    W.field("state", "draining");
    W.endObject();
    return OS.str();
  }

  throw ServiceError(Op.empty() ? "request has no \"op\" field"
                                : "unknown op \"" + Op + "\"");
}
