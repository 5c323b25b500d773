//===- driver/gmdctl.cpp - Command-line client for the gmd daemon -----------===//
///
/// Thin operator front end over the gmd wire protocol (docs/serving.md):
/// each subcommand builds one JSON request, sends it over the daemon's
/// unix socket, and renders the response. --raw dumps the response JSON
/// verbatim for scripting.
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "support/JSON.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gm;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: gmdctl --socket <path> <command> [options]

Commands (docs/serving.md has the full protocol):
  ping                       check the daemon is alive
  load <name> --file <path>  load an edge-list file as resident graph <name>
  load <name> --rmat <n> <m> [--seed <s>]      generate and load
  load <name> --uniform <n> <m> [--seed <s>]   generate and load
  unload <name>              drop a resident graph (purges its cache entries)
  list                       resident graphs and known jobs
  submit <file.gm> --graph <name> [job options]
                             compile and run a job against a resident graph
  status <job-id>            one job's state
  result <job-id>            one job's state + report
  stats                      daemon counters (jobs, cache, limits)
  shutdown                   drain and stop the daemon

Job options for submit:
  --arg <name>=<value>       scalar procedure argument (repeatable)
  --workers <n> --threaded --partition <hash|range|edge-balanced>
  --lalp-threshold <n> --schedule <auto|dense|sparse>
  --backend <interp|native> --seed <n> --max-supersteps <n> --trace
  --no-wait                  return the job id without waiting
  --report <path>            write the job's run report JSON ("-" = stdout)

Global: --raw prints the raw response JSON instead of a summary.
)");
}

int64_t parseInt(const char *S) { return std::strtoll(S, nullptr, 10); }

/// Emits an --arg value with its natural JSON type: bool words as bools,
/// fully-numeric text as numbers, anything else is an error (the daemon
/// types arguments against the program's declared scalars).
bool writeArgValue(json::Writer &W, const std::string &V) {
  if (V == "true" || V == "false") {
    W.value(V == "true");
    return true;
  }
  char *End = nullptr;
  double D = std::strtod(V.c_str(), &End);
  if (End && *End == '\0' && End != V.c_str()) {
    if (D == static_cast<double>(static_cast<int64_t>(D)) &&
        V.find_first_of(".eE") == std::string::npos)
      W.value(static_cast<int64_t>(D));
    else
      W.value(D);
    return true;
  }
  return false;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "gmdctl: %s\n", Msg.c_str());
  return 1;
}

/// Sends \p Request, parses the response, enforces ok. Returns 0/1 exit
/// status; the parsed response lands in \p Resp.
int roundTrip(const std::string &SocketPath, const std::string &Request,
              bool Raw, json::Node &Resp) {
  service::Client C;
  std::string Err;
  if (!C.connect(SocketPath, &Err))
    return fail(Err);
  std::string Text;
  if (!C.call(Request, Text, &Err))
    return fail(Err);
  if (Raw)
    std::printf("%s\n", Text.c_str());
  if (!json::parse(Text, Resp, &Err))
    return fail("malformed response: " + Err);
  if (!Resp.boolAt("ok")) {
    std::string Why = Resp.strAt("error", "request failed");
    // A failed job still carries its record; show the state for context.
    const std::string State = Resp.strAt("state");
    if (!State.empty())
      Why += " (job state: " + State + ")";
    return fail(Why);
  }
  return 0;
}

void printJobLine(const json::Node &R) {
  std::printf("job %lld: %s", static_cast<long long>(R.intAt("job")),
              R.strAt("state", "?").c_str());
  const std::string Cache = R.strAt("cache");
  if (!Cache.empty())
    std::printf(" [cache %s]", Cache.c_str());
  std::printf(" program=%s graph=%s@%lld queue=%.3fs run=%.3fs",
              R.strAt("program", "?").c_str(), R.strAt("graph", "?").c_str(),
              static_cast<long long>(R.intAt("graph_epoch")),
              R.numAt("queue_seconds"), R.numAt("run_seconds"));
  if (R.intAt("trace_events"))
    std::printf(" trace_events=%lld",
                static_cast<long long>(R.intAt("trace_events")));
  const std::string Error = R.strAt("error");
  if (!Error.empty())
    std::printf(" error=%s", Error.c_str());
  std::printf("\n");
}

/// Re-serializes the response's "report" member as its own document.
bool writeReport(const json::Node &Resp, const std::string &Path) {
  const json::Node *Report = Resp.find("report");
  if (!Report)
    return false;
  // The daemon embeds the report verbatim; re-emit compactly from the DOM.
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  std::vector<std::pair<const json::Node *, size_t>> Stack;
  // Small explicit walker to avoid recursion limits on huge reports.
  struct Emit {
    json::Writer &W;
    void walk(const json::Node &N) { // NOLINT(misc-no-recursion)
      switch (N.K) {
      case json::Node::Kind::Null:
        W.null();
        break;
      case json::Node::Kind::Bool:
        W.value(N.B);
        break;
      case json::Node::Kind::Int:
        W.value(static_cast<int64_t>(N.I));
        break;
      case json::Node::Kind::Double:
        W.value(N.D);
        break;
      case json::Node::Kind::String:
        W.value(N.S);
        break;
      case json::Node::Kind::Array:
        W.beginArray();
        for (const json::Node &E : N.Elems)
          walk(E);
        W.endArray();
        break;
      case json::Node::Kind::Object:
        W.beginObject();
        for (const auto &[Key, V] : N.Members) {
          W.key(Key);
          walk(V);
        }
        W.endObject();
        break;
      }
    }
  } E{W};
  E.walk(*Report);
  OS << '\n';
  if (Path == "-") {
    std::fputs(OS.str().c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path);
  Out << OS.str();
  Out.flush();
  return static_cast<bool>(Out);
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath;
  bool Raw = false;
  std::vector<std::string> Pos;
  std::vector<std::pair<std::string, std::string>> Args; // submit --arg
  std::string File, ReportPath;
  bool Rmat = false, Uniform = false, Threaded = false, Trace = false;
  bool NoWait = false;
  int64_t Nodes = 0, Edges = 0, Seed = -1, Workers = -1, Lalp = -1;
  int64_t MaxSupersteps = -1;
  std::string GraphName, Partition, Schedule, Backend;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "gmdctl: missing value after %s\n", A.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--socket")
      SocketPath = Next();
    else if (A == "--raw")
      Raw = true;
    else if (A == "--file")
      File = Next();
    else if (A == "--rmat") {
      Rmat = true;
      Nodes = parseInt(Next());
      Edges = parseInt(Next());
    } else if (A == "--uniform") {
      Uniform = true;
      Nodes = parseInt(Next());
      Edges = parseInt(Next());
    } else if (A == "--seed")
      Seed = parseInt(Next());
    else if (A == "--graph")
      GraphName = Next();
    else if (A == "--arg") {
      std::string KV = Next();
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "gmdctl: --arg expects name=value\n");
        return 2;
      }
      Args.emplace_back(KV.substr(0, Eq), KV.substr(Eq + 1));
    } else if (A == "--workers")
      Workers = parseInt(Next());
    else if (A == "--threaded")
      Threaded = true;
    else if (A == "--partition")
      Partition = Next();
    else if (A == "--lalp-threshold")
      Lalp = parseInt(Next());
    else if (A == "--schedule")
      Schedule = Next();
    else if (A == "--backend")
      Backend = Next();
    else if (A == "--max-supersteps")
      MaxSupersteps = parseInt(Next());
    else if (A == "--trace")
      Trace = true;
    else if (A == "--no-wait")
      NoWait = true;
    else if (A == "--report")
      ReportPath = Next();
    else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "gmdctl: unknown option %s\n", A.c_str());
      return 2;
    } else
      Pos.push_back(A);
  }

  if (SocketPath.empty() || Pos.empty()) {
    usage();
    return 2;
  }
  const std::string Cmd = Pos[0];
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);

  if (Cmd == "ping" || Cmd == "list" || Cmd == "stats" || Cmd == "shutdown") {
    W.beginObject();
    W.field("op", Cmd);
    W.endObject();
  } else if (Cmd == "load") {
    if (Pos.size() < 2)
      return fail("load needs a graph name");
    W.beginObject();
    W.field("op", "load");
    W.field("graph", Pos[1]);
    if (!File.empty())
      W.field("file", File);
    else if (Rmat || Uniform) {
      W.field("generator", Rmat ? "rmat" : "uniform");
      W.field("nodes", Nodes);
      W.field("edges", Edges);
      if (Seed >= 0)
        W.field("seed", Seed);
    } else
      return fail("load needs --file, --rmat, or --uniform");
    W.endObject();
  } else if (Cmd == "unload") {
    if (Pos.size() < 2)
      return fail("unload needs a graph name");
    W.beginObject();
    W.field("op", "unload");
    W.field("graph", Pos[1]);
    W.endObject();
  } else if (Cmd == "submit") {
    if (Pos.size() < 2)
      return fail("submit needs a .gm source path");
    if (GraphName.empty())
      return fail("submit needs --graph <resident-graph-name>");
    W.beginObject();
    W.field("op", "submit");
    W.field("graph", GraphName);
    W.field("source_file", Pos[1]);
    if (!Args.empty()) {
      W.key("args");
      W.beginObject();
      for (const auto &[Name, V] : Args) {
        W.key(Name);
        if (!writeArgValue(W, V))
          return fail("--arg " + Name + " value must be a number or bool");
      }
      W.endObject();
    }
    if (Workers >= 0)
      W.field("workers", Workers);
    if (Threaded)
      W.field("threaded", true);
    if (!Partition.empty())
      W.field("partition", Partition);
    if (Lalp >= 0)
      W.field("lalp_threshold", Lalp);
    if (!Schedule.empty())
      W.field("schedule", Schedule);
    if (!Backend.empty())
      W.field("backend", Backend);
    if (Seed >= 0)
      W.field("seed", Seed);
    if (MaxSupersteps >= 0)
      W.field("max_supersteps", MaxSupersteps);
    if (Trace)
      W.field("trace", true);
    if (NoWait)
      W.field("wait", false);
    W.endObject();
  } else if (Cmd == "status" || Cmd == "result") {
    if (Pos.size() < 2)
      return fail(Cmd + " needs a job id");
    W.beginObject();
    W.field("op", Cmd);
    W.field("job", parseInt(Pos[1].c_str()));
    W.endObject();
  } else {
    std::fprintf(stderr, "gmdctl: unknown command %s\n", Cmd.c_str());
    usage();
    return 2;
  }

  json::Node Resp;
  int Rc = roundTrip(SocketPath, OS.str(), Raw, Resp);
  if (Rc != 0)
    return Rc;
  if (Raw)
    return 0;

  if (Cmd == "ping")
    std::printf("ok: %s version %lld\n", Resp.strAt("protocol", "?").c_str(),
                static_cast<long long>(Resp.intAt("version")));
  else if (Cmd == "load") {
    const json::Node *G = Resp.find("graph");
    if (G)
      std::printf("loaded %s@%lld: %lld nodes, %lld edges from %s in %.3fs\n",
                  G->strAt("name", "?").c_str(),
                  static_cast<long long>(G->intAt("epoch")),
                  static_cast<long long>(G->intAt("nodes")),
                  static_cast<long long>(G->intAt("edges")),
                  G->strAt("source", "?").c_str(), G->numAt("load_seconds"));
  } else if (Cmd == "unload")
    std::printf("unloaded %s (%lld cached reports purged)\n",
                Resp.strAt("graph", "?").c_str(),
                static_cast<long long>(Resp.intAt("cache_entries_purged")));
  else if (Cmd == "list") {
    if (const json::Node *Graphs = Resp.find("graphs")) {
      std::printf("graphs (%zu):\n", Graphs->Elems.size());
      for (const json::Node &G : Graphs->Elems)
        std::printf("  %s@%lld  %lld nodes  %lld edges  [%s]\n",
                    G.strAt("name", "?").c_str(),
                    static_cast<long long>(G.intAt("epoch")),
                    static_cast<long long>(G.intAt("nodes")),
                    static_cast<long long>(G.intAt("edges")),
                    G.strAt("source", "?").c_str());
    }
    if (const json::Node *Jobs = Resp.find("jobs")) {
      std::printf("jobs (%zu):\n", Jobs->Elems.size());
      for (const json::Node &J : Jobs->Elems) {
        std::printf("  ");
        printJobLine(J);
      }
    }
  } else if (Cmd == "submit" || Cmd == "status" || Cmd == "result") {
    printJobLine(Resp);
    if (!ReportPath.empty()) {
      if (!writeReport(Resp, ReportPath))
        return fail("no report in response (job not done?) or cannot write " +
                    ReportPath);
      if (ReportPath != "-")
        std::fprintf(stderr, "gmdctl: wrote %s\n", ReportPath.c_str());
    }
  } else if (Cmd == "stats") {
    std::printf("uptime: %.1fs  graphs: %lld\n", Resp.numAt("uptime_seconds"),
                static_cast<long long>(Resp.intAt("graphs")));
    if (const json::Node *J = Resp.find("jobs"))
      std::printf("jobs: %lld submitted, %lld completed, %lld failed, "
                  "%lld rejected (max running %lld, queue %lld)\n",
                  static_cast<long long>(J->intAt("submitted")),
                  static_cast<long long>(J->intAt("completed")),
                  static_cast<long long>(J->intAt("failed")),
                  static_cast<long long>(J->intAt("rejected")),
                  static_cast<long long>(J->intAt("max_running")),
                  static_cast<long long>(J->intAt("max_queued")));
    if (const json::Node *C = Resp.find("cache"))
      std::printf("cache: %lld hits, %lld misses, %lld/%lld entries "
                  "(%lld evicted, %lld invalidated)\n",
                  static_cast<long long>(C->intAt("hits")),
                  static_cast<long long>(C->intAt("misses")),
                  static_cast<long long>(C->intAt("size")),
                  static_cast<long long>(C->intAt("capacity")),
                  static_cast<long long>(C->intAt("evictions")),
                  static_cast<long long>(C->intAt("invalidations")));
  } else if (Cmd == "shutdown")
    std::printf("daemon draining\n");
  return 0;
}
