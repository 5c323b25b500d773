//===- pregel/Runtime.h - Simulated distributed Pregel (GPS) engine --------===//
///
/// \file
/// A bulk-synchronous Pregel runtime in the style of GPS. The graph's
/// vertices are partitioned across W workers (hash by default; see
/// Partitioner.h for the other strategies and LALP mirroring); each superstep
/// the master runs first (GPS's `master.compute()`), then every active vertex
/// runs `compute()`, and messages become visible at the next superstep.
/// Messages crossing a worker boundary are accounted as network traffic.
///
/// Message delivery order is canonical: each vertex reads its inbox in
/// ascending source-vertex id (ties in a source's emission order), so
/// results are independent of the partition strategy, the worker count, and
/// threaded vs. sequential execution.
///
/// This is the substitution for the paper's cluster deployment: the same BSP
/// semantics, timestep counts and message volumes, on simulated workers.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGEL_RUNTIME_H
#define GM_PREGEL_RUNTIME_H

#include "graph/Graph.h"
#include "pregel/GlobalObjects.h"
#include "pregel/Message.h"
#include "pregel/Metrics.h"
#include "pregel/Partitioner.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gm {
class DiagnosticEngine;
}

namespace gm::pregel {

class Engine;
class ThreadPool;

/// Per-run execution statistics: the coarse quantities reported in the
/// paper's §5.2 (run-time, network I/O, number of timesteps) plus, when
/// Config::CollectMetrics is on, the full per-superstep / per-worker
/// breakdown (see Metrics.h). Render with the sinks in MetricsSink.h.
struct RunStats {
  uint64_t Supersteps = 0;
  /// Supersteps whose vertex phase iterated the explicit frontier instead of
  /// scanning all owned vertices (see Config::Schedule / docs/scheduling.md).
  /// 0 on a forced-dense run; Supersteps on a forced-sparse one.
  uint64_t SparseSupersteps = 0;
  uint64_t TotalMessages = 0;
  uint64_t NetworkMessages = 0; ///< messages that crossed a worker boundary
  uint64_t NetworkBytes = 0;    ///< wire bytes of those messages
  /// LALP mirroring (Config::LalpThreshold): deliveries fanned out from
  /// broadcast records at the receiving worker, and the network bytes those
  /// broadcasts avoided shipping. Both 0 when LALP is off.
  uint64_t MirrorHits = 0;
  uint64_t MirrorBytesSaved = 0;
  double WallSeconds = 0.0;
  /// Process peak RSS sampled when the run ended, in bytes (0 when the
  /// platform offers no getrusage). A whole-process high-water mark, not a
  /// per-run delta; reported as totals.peak_rss_bytes in the v2 run report.
  uint64_t PeakRssBytes = 0;
  /// Why the run stopped (master-halt / quiescence / max-supersteps).
  HaltReason Halt = HaltReason::None;

  /// Per-superstep message counts (index = superstep).
  std::vector<uint64_t> MessagesPerStep;

  /// Per-superstep trace and per-worker metrics; one entry per executed
  /// superstep. Empty when Config::CollectMetrics is off.
  std::vector<SuperstepMetrics> Steps;

  std::string toString() const;
};

/// Engine configuration.
/// Which execution backend runs a compiled program (consumed by
/// exec::runProgramWithBackend; the engine itself is backend-agnostic).
enum class ExecBackend {
  Interp, ///< walk the PregelIR in exec::IRExecutor
  Native, ///< generated C++ (precompiled registry, else JIT via .so),
          ///< falling back to the interpreter with a diagnostic
};

/// Per-superstep traversal schedule (Ligra/GraphIt direction choice, see
/// docs/scheduling.md). Dense scans every owned vertex; Sparse iterates the
/// explicit frontier (vertices that are active or received messages). Auto
/// picks per superstep by comparing the frontier estimate against the graph
/// size. Results are bit-identical under every mode — only the iteration
/// machinery changes.
enum class ScheduleMode : uint8_t {
  Auto,  ///< threshold-switch per superstep (the default)
  Dense, ///< always full-scan (the historical behaviour)
  Sparse ///< always frontier-iterate
};

const char *scheduleModeName(ScheduleMode M);
/// Parses "auto" / "dense" / "sparse"; nullopt on anything else.
std::optional<ScheduleMode> parseScheduleMode(std::string_view Name);

struct Config {
  unsigned NumWorkers = 4;
  bool Threaded = false;     ///< real std::thread workers vs. sequential sim
  /// Vertex-to-worker assignment strategy (see Partitioner.h). Hash keeps
  /// the historical v mod W placement; results are identical under every
  /// strategy, only load balance and network traffic change.
  PartitionStrategy Partition = PartitionStrategy::Hash;
  /// LALP (large-adjacency-list partitioning) threshold: vertices with
  /// out-degree >= this broadcast to out-neighbors as one record per worker,
  /// fanned out from per-worker mirror lists at the receiver. 0 = off.
  uint32_t LalpThreshold = 0;
  uint64_t RandomSeed = 1;   ///< seed for master-side PickRandom
  uint64_t MaxSupersteps = 1u << 20; ///< runaway guard
  /// Collect RunStats::Steps (per-superstep trace, per-worker metrics).
  /// A handful of clock reads and one small record per superstep; on by
  /// default so every run is observable.
  bool CollectMetrics = true;
  /// When non-null, the engine reports runtime conditions here: a warning
  /// when the MaxSupersteps runaway guard halts a program that did not
  /// converge, and a "message layout drift" error for each worker whose
  /// program sent a message its declared MessageLayout does not describe.
  DiagnosticEngine *Diags = nullptr;
  /// Execution backend for compiled programs (see ExecBackend). Results are
  /// bit-identical across backends; only hot-path cost changes.
  ExecBackend Backend = ExecBackend::Interp;
  /// Per-superstep sparse/dense traversal schedule (docs/scheduling.md).
  /// Auto switches to frontier iteration whenever
  /// active_after + delivered_messages < numNodes / 8;
  /// Dense / Sparse force one path. Results are bit-identical in all modes.
  ScheduleMode Schedule = ScheduleMode::Auto;
  /// Pregel message combiners: messages of a listed type heading to the
  /// same destination are reduced at the sending worker before they hit
  /// the wire (single-field payloads only). Empty = no combining.
  std::map<int32_t, ReduceKind> Combiners;
};

/// The master's view during `master.compute()`. Runs before the vertices in
/// every superstep (GPS semantics), so writes to globals are visible to the
/// vertices of the same superstep.
class MasterContext {
public:
  uint64_t superstep() const { return Step; }
  const Graph &graph() const { return G; }

  Value getGlobal(const std::string &Name) const { return Globals.get(Name); }
  void setGlobal(const std::string &Name, const Value &V) {
    Globals.set(Name, V);
  }
  void declareGlobal(const std::string &Name, ReduceKind Reduce,
                     Value Init = Value()) {
    Globals.declare(Name, Reduce, Init);
  }

  /// Uniformly random node, drawn from the engine's seeded RNG; the
  /// master-side implementation of Green-Marl's G.PickRandom(). Returns
  /// InvalidNode on an empty graph (there is nothing to pick).
  NodeId pickRandomNode();

  /// Terminates the computation after this master phase (no vertex phase).
  void haltAll() { Halted = true; }
  bool halted() const { return Halted; }

  /// Annotates this superstep's trace entry (SuperstepMetrics::Label); the
  /// IR executor uses it to record which state-machine state each superstep
  /// ran. No effect when metrics collection is off.
  void setPhaseLabel(std::string Label) { PhaseLabel = std::move(Label); }
  const std::string &phaseLabel() const { return PhaseLabel; }

private:
  friend class Engine;
  MasterContext(uint64_t Step, const Graph &G, GlobalObjects &Globals,
                std::mt19937_64 &Rng)
      : Step(Step), G(G), Globals(Globals), Rng(Rng) {}

  uint64_t Step;
  const Graph &G;
  GlobalObjects &Globals;
  std::mt19937_64 &Rng;
  bool Halted = false;
  std::string PhaseLabel;
};

/// One vertex's view during `compute()`.
class VertexContext {
public:
  NodeId id() const { return Id; }
  uint64_t superstep() const { return Step; }
  const Graph &graph() const { return G; }

  uint32_t numOutNeighbors() const { return G.outDegree(Id); }
  std::span<const NodeId> outNeighbors() const { return G.outNeighbors(Id); }

  /// Messages sent to this vertex in the previous superstep — a cursor over
  /// the engine's inbox of packed records (see Message.h).
  MsgRange messages() const { return MsgRange(Inbox, InboxN, Layout); }

  /// Sends \p M to every out-neighbor (GPS sendToNbrs). The payload is
  /// encoded once; only the destination header varies per neighbor. A
  /// message that does not match the program's MessageLayout is dropped and
  /// reported as layout drift (see Config::Diags).
  void sendToAllOutNeighbors(const Message &M);

  /// Sends \p M to an arbitrary vertex id (GPS sendToNode); implements the
  /// Random Writing pattern of §3.1. Drift is handled as above.
  void sendTo(NodeId Target, const Message &M);

  /// Vertex-side reducing write to a global object (Global.put with a
  /// reduction object); resolved at the barrier.
  void putGlobal(const std::string &Name, const Value &V) {
    WorkerGlobals.putFromVertex(Name, V);
  }

  /// Reads a global object (as broadcast by the master / resolved at the
  /// previous barrier).
  Value getGlobal(const std::string &Name) const { return Globals.get(Name); }

  /// Pregel's voteToHalt(): deactivate until a message arrives.
  void voteToHalt() { VotedHalt = true; }

private:
  friend class Engine;
  VertexContext(NodeId Id, uint64_t Step, const Graph &G,
                const GlobalObjects &Globals, GlobalObjects &WorkerGlobals)
      : Id(Id), Step(Step), G(G), Globals(Globals),
        WorkerGlobals(WorkerGlobals) {}

  NodeId Id;
  uint64_t Step;
  const Graph &G;
  const GlobalObjects &Globals;
  GlobalObjects &WorkerGlobals;

  /// Packs \p M into \p Rec; on a schema mismatch records the worker's
  /// first drift in *Drift and returns false.
  bool pack(std::byte *Rec, NodeId Dst, const Message &M);

  const std::byte *Inbox = nullptr;
  size_t InboxN = 0;
  /// The owning worker's destination-sharded outbox: NumWorkers byte
  /// vectors, Outbox[w] holding the records bound for worker w's vertices.
  /// Sharding at send time is what lets combining, wire accounting, and
  /// inbox construction all run worker-parallel at the barrier.
  std::vector<std::byte> *Outbox = nullptr;
  /// Source ids parallel to Outbox (one per record): the delivery phase
  /// merges shards into canonical ascending-source order, and records don't
  /// carry the sender on the wire.
  std::vector<NodeId> *OutboxSrcs = nullptr;
  /// LALP broadcast channel: one record per (high-degree source, worker),
  /// expanded via the mirror lists at the receiver.
  std::vector<std::byte> *BcastShards = nullptr;
  std::vector<NodeId> *BcastSrcs = nullptr;
  const MessageLayout *Layout = nullptr;
  std::string *Drift = nullptr; ///< the worker's first layout drift
  const Partition *Part = nullptr;
  const LalpPlan *Lalp = nullptr; ///< null when LALP is off
  unsigned NumWorkers = 0;
  bool VotedHalt = false;
};

/// A Pregel program: the pair of functions a GPS application implements.
///
/// Vertex state is owned by the program (typically columnar vectors indexed
/// by NodeId), mirroring how a GPS vertex class owns its fields.
class VertexProgram {
public:
  virtual ~VertexProgram();

  /// Called once before superstep 0; allocate vertex state and declare
  /// global objects here.
  virtual void init(const Graph &G, MasterContext &Master) = 0;

  /// GPS master.compute(): runs once per superstep, before the vertices.
  virtual void masterCompute(MasterContext &Master) = 0;

  /// Pregel vertex.compute(): runs once per superstep for each active
  /// vertex.
  virtual void compute(VertexContext &Ctx) = 0;

  /// The program's message wire schema (see MessageLayout.h): every message
  /// the program sends must match one of its types. A program that sends
  /// nothing returns an empty layout.
  virtual MessageLayout messageLayout() const = 0;
};

/// Executes a VertexProgram over a graph under BSP semantics.
///
/// The superstep hot path runs worker-parallel end to end (see
/// docs/INTERNALS.md, "Engine architecture"): a persistent thread pool
/// executes the vertex phase with destination-sharded outboxes (combining
/// and wire accounting happen on the sending worker), a short sequential
/// coordination step merges globals and sums per-worker tallies in worker
/// order, and each worker then merges its own inbound shards into a private
/// region of the shared inbox pool in canonical ascending-source order
/// (expanding LALP broadcast records through the mirror lists as it goes).
/// Threaded and sequential modes execute the same per-worker functions, so
/// RunStats counters, message delivery order, and vertex results are
/// bit-identical between them — and the canonical order additionally makes
/// them invariant under the partition strategy and worker count.
class Engine {
public:
  Engine(const Graph &G, Config Cfg);
  ~Engine();

  /// Runs \p Program to completion and returns the collected statistics.
  /// Termination: the master calls haltAll(), or every vertex is inactive
  /// with no messages in flight, or Config::MaxSupersteps is hit.
  RunStats run(VertexProgram &Program);

  const Config &config() const { return Cfg; }

  unsigned workerOf(NodeId V) const { return Part.workerOf(V); }
  const Partition &partition() const { return Part; }
  const LalpPlan &lalpPlan() const { return Lalp; }

private:
  struct WorkerState;

  /// Applies \p Body to every vertex owned by \p WorkerId, ascending.
  template <typename Fn> void forEachOwned(unsigned WorkerId, Fn Body) const {
    const Partition::Slice S = Part.slice(WorkerId);
    for (NodeId V = S.First; V < S.End; V += S.Stride)
      Body(V);
  }

  void computePhase(unsigned WorkerId, VertexProgram &Program, uint64_t Step,
                    SuperstepMetrics *SM);
  /// Timing/tracing wrapper around deliverPhaseImpl (the actual merge).
  void deliverPhase(unsigned WorkerId, SuperstepMetrics *SM);
  void deliverPhaseImpl(unsigned WorkerId, SuperstepMetrics *SM);
  void combineOutbox(WorkerState &WS, std::vector<std::byte> &Shard,
                     std::vector<NodeId> &Srcs);
  /// Messages currently parked in Workers[Sender]'s shard for \p Dst
  /// (normal channel; LALP broadcast records are tallied separately).
  size_t shardCount(unsigned Sender, unsigned Dst) const;

  const Graph &G;
  Config Cfg;
  Partition Part;
  LalpPlan Lalp;
  GlobalObjects Globals;
  std::mt19937_64 Rng;

  /// Per-worker scratch (sharded outboxes, private globals, combiner
  /// scratch, step tallies); buffers persist across supersteps so the
  /// steady state allocates nothing.
  std::vector<WorkerState> Workers;
  std::unique_ptr<ThreadPool> Pool; ///< created on first threaded run()

  /// The inbox in worker-major layout: each worker's inbound records occupy
  /// one contiguous region (region base = WorkerState::RegionStart),
  /// grouped by destination vertex inside it. The range delivered to v this
  /// superstep starts at record index InboxOffset[v] and holds
  /// InboxCount[v] records; offsets scale by the record size on access.
  std::vector<std::byte> Inbox;
  std::vector<uint32_t> InboxOffset; ///< size numNodes; begin per vertex
  std::vector<uint32_t> InboxCount;  ///< size numNodes; messages per vertex
  std::vector<uint32_t> Cursor;      ///< scatter cursors (per vertex)
  std::vector<uint8_t> Active;
  uint64_t PendingMessageCount = 0;

  /// Schedule state for the superstep in flight (docs/scheduling.md). All
  /// three are written only in the sequential coordination slices of run(),
  /// so workers may read them race-free during their parallel phases.
  bool CurSparse = false;  ///< this step's compute iterates the frontier
  bool NextSparse = false; ///< the upcoming delivery builds the next frontier
  /// The previous delivery recorded exactly which vertices received messages
  /// (WorkerState::Received), so stale InboxCount entries can be reset per
  /// frontier vertex instead of per owned vertex. False after a dense-style
  /// delivery; the next sparse delivery then falls back to one full reset.
  bool ReceivedTracked = false;
  /// Whether Config::Schedule (resolved against the graph size) selects the
  /// sparse path for a step whose frontier estimate is \p Estimate.
  bool decideSparse(uint64_t Estimate) const;

  /// Mailbox run state, derived once per run() from the program's
  /// MessageLayout.
  MessageLayout Layout;
  uint32_t RecordBytes = 0; ///< Layout.recordSize(), hoisted
  /// Per-tag wire bytes per message (Layout.wireBytes, hoisted), indexed by
  /// tag; 0 for undeclared tags.
  std::vector<uint32_t> WireBytesByTag;
  /// Per-tag combiner plumbing: CombineOrd[tag] is the dense-combine table
  /// ordinal (-1 = tag not combinable), CombineOpByTag[tag] the operator.
  std::vector<int32_t> CombineOrd;
  std::vector<ReduceKind> CombineOpByTag;
  unsigned NumCombinable = 0;
};

/// Registration-time guard for hand-declared message layouts: runs
/// \p Program once over \p G and returns the first layout drift the send
/// path reported (the lowest worker's), or "" when every message the
/// program sent matched its declared messageLayout(). Drifted messages are
/// dropped, so call this from tests/CI whenever a manual program's layout
/// override changes.
std::string checkDeclaredMessageLayout(VertexProgram &Program, const Graph &G,
                                       Config Cfg = {});

} // namespace gm::pregel

#endif // GM_PREGEL_RUNTIME_H
