//===- pregel/Runtime.cpp ---------------------------------------------------===//
//
// Superstep execution is organized so that every O(vertices) / O(messages)
// piece of work is owned by exactly one worker:
//
//   master phase (sequential)
//   compute phase (parallel): vertex loop -> per-shard combine -> wire tally
//   coordination (sequential, O(W^2 + globals)): merge private globals in
//     worker order, sum per-worker tallies, lay out inbox regions
//   delivery phase (parallel): each worker counting-sorts its own inbound
//     shards into its private region of the inbox pool
//
// Workers only ever write state they own (their vertices' Active flags and
// inbox slots, their own metrics record, their own tallies), so both phases
// are data-race-free without locks, and running them sequentially gives
// bit-identical results.
//
//===----------------------------------------------------------------------===//

#include "pregel/Runtime.h"

#include "pregel/RuntimeTrace.h"
#include "pregel/ThreadPool.h"
#include "support/Diagnostics.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>

using namespace gm;
using namespace gm::pregel;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// applyReduce on raw packed slots. The layout guarantees every message of a
/// tag carries the same slot kind, so only same-kind reductions arise; each
/// arm mirrors Value::applyReduce for that kind pair exactly (same
/// operation, same association).
void applyReduceRaw(ReduceKind K, ValueKind Slot, std::byte *Acc,
                    const std::byte *In) {
  switch (Slot) {
  case ValueKind::Int: {
    int64_t A, B;
    std::memcpy(&A, Acc, 8);
    std::memcpy(&B, In, 8);
    switch (K) {
    case ReduceKind::Sum:
    case ReduceKind::Count:
      A += B;
      break;
    case ReduceKind::Prod:
      A *= B;
      break;
    case ReduceKind::Min:
      A = std::min(A, B);
      break;
    case ReduceKind::Max:
      A = std::max(A, B);
      break;
    default:
      assert(false && "combiner op not defined on Int slots");
    }
    std::memcpy(Acc, &A, 8);
    return;
  }
  case ValueKind::Double: {
    double A, B;
    std::memcpy(&A, Acc, 8);
    std::memcpy(&B, In, 8);
    switch (K) {
    case ReduceKind::Sum:
    case ReduceKind::Count:
      A += B;
      break;
    case ReduceKind::Prod:
      A *= B;
      break;
    case ReduceKind::Min:
      A = std::min(A, B);
      break;
    case ReduceKind::Max:
      A = std::max(A, B);
      break;
    default:
      assert(false && "combiner op not defined on Double slots");
    }
    std::memcpy(Acc, &A, 8);
    return;
  }
  case ValueKind::Bool: {
    uint8_t A, B;
    std::memcpy(&A, Acc, 1);
    std::memcpy(&B, In, 1);
    switch (K) {
    case ReduceKind::And:
      A = A && B;
      break;
    case ReduceKind::Or:
      A = A || B;
      break;
    default:
      assert(false && "combiner op not defined on Bool slots");
    }
    std::memcpy(Acc, &A, 1);
    return;
  }
  default:
    assert(false && "unreachable: layout admits concrete kinds only");
  }
}

} // namespace

VertexProgram::~VertexProgram() = default;

std::string RunStats::toString() const {
  std::ostringstream OS;
  OS << "supersteps=" << Supersteps << " messages=" << TotalMessages
     << " network_messages=" << NetworkMessages
     << " network_bytes=" << NetworkBytes << " wall_seconds=" << WallSeconds
     << " halt=" << haltReasonName(Halt);
  if (MirrorHits || MirrorBytesSaved)
    OS << " mirror_hits=" << MirrorHits
       << " mirror_bytes_saved=" << MirrorBytesSaved;
  return OS.str();
}

const char *gm::pregel::scheduleModeName(ScheduleMode M) {
  switch (M) {
  case ScheduleMode::Auto:
    return "auto";
  case ScheduleMode::Dense:
    return "dense";
  case ScheduleMode::Sparse:
    return "sparse";
  }
  return "auto";
}

std::optional<ScheduleMode>
gm::pregel::parseScheduleMode(std::string_view Name) {
  if (Name == "auto")
    return ScheduleMode::Auto;
  if (Name == "dense")
    return ScheduleMode::Dense;
  if (Name == "sparse")
    return ScheduleMode::Sparse;
  return std::nullopt;
}

NodeId MasterContext::pickRandomNode() {
  // uniform_int_distribution(0, numNodes()-1) would wrap to the full NodeId
  // range on an empty graph; there is nothing to pick, so say so.
  if (G.numNodes() == 0)
    return InvalidNode;
  std::uniform_int_distribution<NodeId> Dist(0, G.numNodes() - 1);
  return Dist(Rng);
}

bool VertexContext::pack(std::byte *Rec, NodeId Dst, const Message &M) {
  if (packMessage(*Layout, Rec, Dst, M))
    return true;
  if (Drift->empty())
    *Drift = schemaMismatch(*Layout, M);
  return false;
}

void VertexContext::sendToAllOutNeighbors(const Message &M) {
  // Pack the payload once (zeroed scratch keeps record padding
  // deterministic); only the 4-byte destination header differs per
  // neighbor, or per mirror at LALP delivery.
  std::array<std::byte, MaxPackedRecordBytes> Rec{};
  if (!pack(Rec.data(), Id, M))
    return;
  const size_t RS = Layout->recordSize();
  if (Lalp && Lalp->isHighDegree(Id)) {
    // LALP: ship one broadcast record per worker owning any out-neighbor;
    // the receiver fans it out through the mirror lists (in out-edge order,
    // so delivery matches the per-edge sends it replaces).
    const int32_t HD = Lalp->HDIndex[Id];
    for (unsigned Worker = 0; Worker < NumWorkers; ++Worker) {
      if (Lalp->fanout(HD, Worker) == 0)
        continue;
      std::vector<std::byte> &S = BcastShards[Worker];
      S.insert(S.end(), Rec.data(), Rec.data() + RS);
      BcastSrcs[Worker].push_back(Id);
    }
    return;
  }
  for (NodeId Nbr : G.outNeighbors(Id)) {
    MessageLayout::writeDst(Rec.data(), Nbr);
    const unsigned Worker = Part->workerOf(Nbr);
    std::vector<std::byte> &S = Outbox[Worker];
    S.insert(S.end(), Rec.data(), Rec.data() + RS);
    OutboxSrcs[Worker].push_back(Id);
  }
}

void VertexContext::sendTo(NodeId Target, const Message &M) {
  assert(Target < G.numNodes() && "sendTo target out of range");
  std::array<std::byte, MaxPackedRecordBytes> Rec{};
  if (!pack(Rec.data(), Target, M))
    return;
  const unsigned Worker = Part->workerOf(Target);
  std::vector<std::byte> &S = Outbox[Worker];
  S.insert(S.end(), Rec.data(), Rec.data() + Layout->recordSize());
  OutboxSrcs[Worker].push_back(Id);
}

/// Scratch state for one worker; lives for the whole run so that outbox
/// shards, combiner scratch, and private globals are reused every superstep.
struct Engine::WorkerState {
  /// Destination-sharded outbox: Outbox[w] holds this worker's records
  /// bound for worker w. Cleared (capacity kept) by the receiving worker
  /// once delivered.
  std::vector<std::vector<std::byte>> Outbox;
  /// Source ids parallel to Outbox, one per record: the canonical
  /// ascending-source merge at delivery needs the sender, and records don't
  /// carry it on the wire.
  std::vector<std::vector<NodeId>> OutboxSrcs;
  /// LALP broadcast channel, per destination worker: one record per
  /// high-degree broadcast (bytes + parallel sources), expanded via the
  /// mirror lists by the receiving worker.
  std::vector<std::vector<std::byte>> BcastShards;
  std::vector<std::vector<NodeId>> BcastSrcs;
  GlobalObjects PrivateGlobals;
  uint64_t GlobalsRevision = ~0ull; ///< revision PrivateGlobals was cloned at
  /// The first message this worker's vertices sent that did not match the
  /// program's MessageLayout ("" = none); reported when the run ends.
  std::string Drift;

  // Combiner scratch, reused across shards and supersteps: dense
  // destination-indexed tables instead of a hash map. DenseSlot[ord * N +
  // dst] is the kept-record index for the (combinable tag ord, destination)
  // pair; a matching DenseEpoch stamp says the entry is live for the
  // current shard, so per-shard clearing is one counter bump instead of an
  // O(N) wipe.
  std::vector<std::byte> Kept;
  std::vector<NodeId> KeptSrcs; ///< OutboxSrcs compacted alongside Kept
  std::vector<uint32_t> DenseSlot;
  std::vector<uint32_t> DenseEpoch;
  uint32_t Epoch = 0;

  // Tallies for the current superstep, summed into RunStats in worker order
  // at the barrier (so threaded and sequential runs accumulate identically).
  uint64_t StepMessages = 0;
  uint64_t StepNetworkMessages = 0;
  uint64_t StepNetworkBytes = 0;
  /// LALP tallies: BcastExpanded[w] is how many deliveries this worker's
  /// broadcast records expand to on worker w (the inbox layout needs it
  /// before delivery runs); StepMirrorSaved the network bytes the sender
  /// avoided; StepMirrorHits the mirror deliveries this worker fanned out
  /// as a receiver.
  std::vector<uint64_t> BcastExpanded;
  uint64_t StepMirrorSaved = 0;
  uint64_t StepMirrorHits = 0;

  /// Number of this worker's vertices with Active set; maintained in the
  /// compute phase so quiescence needs an O(W) sum, not an O(N) scan.
  uint64_t ActiveCount = 0;

  /// Base of this worker's region in Engine::Inbox for the upcoming
  /// superstep.
  uint32_t RegionStart = 0;

  // Frontier bookkeeping for sparse supersteps (docs/scheduling.md). All
  // lists hold owned vertices in ascending id, so a sparse vertex loop
  // visits them in the same order forEachOwned would.
  /// The vertices this worker's sparse compute iterates (active or received
  /// a message last delivery). Rebuilt at each sparse-style delivery.
  std::vector<NodeId> Frontier;
  /// Vertices still active after this step's voting, collected when the
  /// upcoming step is sparse (by the sparse vertex loop, or by a full scan
  /// at delivery when this step's compute was dense).
  std::vector<NodeId> Survivors;
  /// Vertices that received >= 1 message in the latest delivery; valid only
  /// while Engine::ReceivedTracked, used to reset stale InboxCount entries
  /// without an O(owned) sweep. NewReceived is its under-construction twin.
  std::vector<NodeId> Received;
  std::vector<NodeId> NewReceived;
};

namespace {

/// makePartition / buildLalpPlan with setup spans on the main lane when a
/// trace session is active (Engine's init list calls these, so the timing
/// wraps member construction).
Partition makePartitionTraced(const Graph &G, PartitionStrategy Strategy,
                              unsigned NumWorkers) {
  trace::Session *TS = trace::current();
  const uint64_t T0 = TS ? TS->nowNs() : 0;
  Partition P = makePartition(G, Strategy, NumWorkers);
  if (TS)
    trace::complete(0, "partition-build", tracecat::Setup, T0, TS->nowNs());
  return P;
}

LalpPlan buildLalpPlanTraced(const Graph &G, const Partition &Part,
                             uint32_t Threshold) {
  trace::Session *TS = trace::current();
  const uint64_t T0 = TS ? TS->nowNs() : 0;
  LalpPlan Plan = buildLalpPlan(G, Part, Threshold);
  if (TS)
    trace::complete(0, "lalp-plan", tracecat::Setup, T0, TS->nowNs());
  return Plan;
}

} // namespace

Engine::Engine(const Graph &G, Config Cfg)
    : G(G), Cfg(Cfg),
      Part(makePartitionTraced(G, Cfg.Partition, Cfg.NumWorkers)),
      Lalp(buildLalpPlanTraced(G, Part, Cfg.LalpThreshold)),
      Rng(Cfg.RandomSeed) {
  assert(Cfg.NumWorkers > 0 && "need at least one worker");
}

Engine::~Engine() = default;

void Engine::combineOutbox(WorkerState &WS, std::vector<std::byte> &Shard,
                           std::vector<NodeId> &Srcs) {
  const size_t RS = RecordBytes;
  const NodeId N = G.numNodes();
  std::vector<std::byte> &Kept = WS.Kept;
  std::vector<NodeId> &KeptSrcs = WS.KeptSrcs;
  Kept.clear();
  Kept.reserve(Shard.size());
  KeptSrcs.clear();
  KeptSrcs.reserve(Srcs.size());
  if (++WS.Epoch == 0) {
    // Epoch counter wrapped: stale stamps could alias, wipe them once.
    std::fill(WS.DenseEpoch.begin(), WS.DenseEpoch.end(), 0u);
    WS.Epoch = 1;
  }
  const uint32_t Epoch = WS.Epoch;
  size_t Idx = 0;
  for (const std::byte *P = Shard.data(), *E = P + Shard.size(); P != E;
       P += RS, ++Idx) {
    const int32_t Tag = Layout.recordTag(P);
    const int32_t Ord = CombineOrd[Tag];
    if (Ord < 0) {
      Kept.insert(Kept.end(), P, P + RS);
      KeptSrcs.push_back(Srcs[Idx]);
      continue;
    }
    const size_t Key = size_t(Ord) * N + MessageLayout::recordDst(P);
    if (WS.DenseEpoch[Key] != Epoch) {
      // First message of this (tag, dst) pair: keep it in arrival position,
      // so delivery order is unchanged.
      WS.DenseEpoch[Key] = Epoch;
      WS.DenseSlot[Key] = static_cast<uint32_t>(Kept.size() / RS);
      Kept.insert(Kept.end(), P, P + RS);
      KeptSrcs.push_back(Srcs[Idx]);
      continue;
    }
    const MsgTypeLayout &T = Layout.type(Tag);
    std::byte *Acc = Kept.data() + size_t(WS.DenseSlot[Key]) * RS + T.Offset[0];
    applyReduceRaw(CombineOpByTag[Tag], T.Slots[0], Acc, P + T.Offset[0]);
  }
  Shard.swap(Kept); // Kept keeps the old buffer for reuse
  Srcs.swap(KeptSrcs);
}

bool Engine::decideSparse(uint64_t Estimate) const {
  switch (Cfg.Schedule) {
  case ScheduleMode::Dense:
    return false;
  case ScheduleMode::Sparse:
    return true;
  case ScheduleMode::Auto:
    break;
  }
  // Ligra/GraphIt-style direction threshold: frontier iteration only pays
  // when the step touches well under an eighth of the graph; the estimate
  // (active after voting + delivered messages) upper-bounds the vertices
  // the step will run.
  return Estimate < uint64_t(G.numNodes()) / 8;
}

size_t Engine::shardCount(unsigned Sender, unsigned Dst) const {
  return Workers[Sender].Outbox[Dst].size() / RecordBytes;
}

void Engine::computePhase(unsigned WorkerId, VertexProgram &Program,
                          uint64_t Step, SuperstepMetrics *SM) {
  const unsigned W = Cfg.NumWorkers;
  WorkerState &WS = Workers[WorkerId];
  WorkerStepMetrics *WM = SM ? &SM->Workers[WorkerId] : nullptr;

  if (WS.GlobalsRevision != Globals.revision()) {
    WS.PrivateGlobals = Globals.cloneDeclarations();
    WS.GlobalsRevision = Globals.revision();
  }

  Clock::time_point T0;
  if (WM)
    T0 = Clock::now();
  const bool Sparse = CurSparse;
  const char *SpanName = Sparse ? "compute-sparse" : "compute";
  trace::begin(traceLaneOf(WorkerId), SpanName, tracecat::Phase);
  uint64_t Ran = 0;
  auto RunVertex = [&](NodeId V) -> uint8_t {
    const uint32_t InCount = InboxCount[V];
    VertexContext Ctx(V, Step, G, Globals, WS.PrivateGlobals);
    // Wire the inbox cursor up only when there is something to read: a
    // vertex that received nothing can carry a stale offset after a
    // sparse-style delivery (offsets are laid out per receiver only).
    if (InCount > 0) {
      Ctx.Inbox = Inbox.data() + size_t(InboxOffset[V]) * RecordBytes;
      Ctx.InboxN = InCount;
    }
    Ctx.Outbox = WS.Outbox.data();
    Ctx.OutboxSrcs = WS.OutboxSrcs.data();
    Ctx.Layout = &Layout;
    Ctx.Drift = &WS.Drift;
    if (Lalp.enabled()) {
      Ctx.Lalp = &Lalp;
      Ctx.BcastShards = WS.BcastShards.data();
      Ctx.BcastSrcs = WS.BcastSrcs.data();
    }
    Ctx.Part = &Part;
    Ctx.NumWorkers = W;
    Program.compute(Ctx);
    uint8_t NowActive = Ctx.VotedHalt ? 0 : 1;
    WS.ActiveCount += NowActive;
    WS.ActiveCount -= Active[V];
    Active[V] = NowActive;
    ++Ran;
    return NowActive;
  };
  if (Sparse) {
    // The frontier holds exactly the owned vertices that are active or
    // received a message, ascending — the same set, in the same order, the
    // dense scan below would run. Survivors feed the next frontier.
    WS.Survivors.clear();
    for (NodeId V : WS.Frontier)
      if (RunVertex(V))
        WS.Survivors.push_back(V);
  } else {
    forEachOwned(WorkerId, [&](NodeId V) {
      if (!Active[V] && InboxCount[V] == 0)
        return;
      RunVertex(V);
    });
  }
  trace::end(traceLaneOf(WorkerId), SpanName, tracecat::Phase);
  Clock::time_point CombineT0;
  if (WM) {
    WM->RanVertices = Ran;
    WM->ActiveAfter = WS.ActiveCount;
    WM->ComputeSeconds = secondsSince(T0);
    CombineT0 = Clock::now();
  }
  trace::begin(traceLaneOf(WorkerId), "combine", tracecat::Phase);

  // Sender-side combining and wire accounting, per destination shard. A
  // (dst, type) pair lives in exactly one shard, so per-shard combining
  // folds the same messages the old whole-outbox pass did.
  WS.StepMessages = WS.StepNetworkMessages = WS.StepNetworkBytes = 0;
  WS.StepMirrorSaved = 0;
  uint64_t CombineIn = 0, CombineOut = 0;
  for (unsigned Dst = 0; Dst < W; ++Dst) {
    std::vector<std::byte> &Shard = WS.Outbox[Dst];
    if (!Cfg.Combiners.empty()) {
      CombineIn += Shard.size() / RecordBytes;
      combineOutbox(WS, Shard, WS.OutboxSrcs[Dst]);
      CombineOut += Shard.size() / RecordBytes;
    }
    const uint64_t Count = Shard.size() / RecordBytes;
    WS.StepMessages += Count;
    // Empty shards skip the tally: a layout without exactly one type has
    // no soleTag (the empty layout of a program that sends nothing).
    if (Dst == WorkerId || Count == 0)
      continue;
    WS.StepNetworkMessages += Count;
    // Wire bytes are a per-type constant (WireBytesByTag); an untagged
    // layout needs no per-record walk at all.
    if (!Layout.storesTag())
      WS.StepNetworkBytes += Count * WireBytesByTag[Layout.soleTag()];
    else
      for (const std::byte *P = Shard.data(), *E = P + Shard.size(); P != E;
           P += RecordBytes)
        WS.StepNetworkBytes += WireBytesByTag[Layout.recordTag(P)];
  }

  // LALP broadcast channel: each record counts as one sent message; the
  // deliveries it expands to are tallied into BcastExpanded so the barrier
  // can size inbox regions, and the per-edge sends it replaced are credited
  // as saved network bytes on remote shards. Broadcast records are never
  // combined at the sender — the receiver folds them after expansion.
  if (Lalp.enabled()) {
    WS.BcastExpanded.assign(W, 0);
    for (unsigned Dst = 0; Dst < W; ++Dst) {
      const std::vector<std::byte> &Shard = WS.BcastShards[Dst];
      const std::vector<NodeId> &Srcs = WS.BcastSrcs[Dst];
      const uint64_t Count = Shard.size() / RecordBytes;
      WS.StepMessages += Count;
      if (Dst != WorkerId)
        WS.StepNetworkMessages += Count;
      const std::byte *P = Shard.data();
      for (uint64_t I = 0; I < Count; ++I, P += RecordBytes) {
        const uint64_t F = Lalp.fanout(Lalp.HDIndex[Srcs[I]], Dst);
        WS.BcastExpanded[Dst] += F;
        if (Dst != WorkerId) {
          const uint32_t WB = !Layout.storesTag()
                                  ? WireBytesByTag[Layout.soleTag()]
                                  : WireBytesByTag[Layout.recordTag(P)];
          WS.StepNetworkBytes += WB;
          WS.StepMirrorSaved += (F - 1) * WB;
        }
      }
    }
  }

  trace::end(traceLaneOf(WorkerId), "combine", tracecat::Phase);
  if (WM) {
    WM->CombineSeconds = secondsSince(CombineT0);
    WM->MessagesSent = WS.StepMessages;
    WM->NetworkMessagesSent = WS.StepNetworkMessages;
    WM->BytesSent = WS.StepNetworkBytes;
    WM->MirrorBytesSaved = WS.StepMirrorSaved;
    if (!Cfg.Combiners.empty()) {
      WM->CombinerInput = CombineIn;
      WM->CombinerOutput = CombineOut;
    }
  }
}

void Engine::deliverPhase(unsigned WorkerId, SuperstepMetrics *SM) {
  trace::ScopedSpan Span(traceLaneOf(WorkerId),
                         NextSparse ? "deliver-sparse" : "deliver",
                         tracecat::Phase);
  Clock::time_point T0;
  if (SM)
    T0 = Clock::now();
  deliverPhaseImpl(WorkerId, SM);
  if (SM)
    SM->Workers[WorkerId].DeliverSeconds = secondsSince(T0);
}

void Engine::deliverPhaseImpl(unsigned WorkerId, SuperstepMetrics *SM) {
  const unsigned W = Cfg.NumWorkers;
  const NodeId N = G.numNodes();
  WorkerState &WS = Workers[WorkerId];
  WS.StepMirrorHits = 0;

  // Merge of this worker's inbound shards (shard WorkerId of every sender —
  // normal channel first, then the LALP broadcast channel) into its region
  // of the inbox, in canonical order: per destination vertex, messages
  // land in ascending source id, ties in the source's emission order (its
  // normal sends before its broadcast). Every shard is already
  // source-ascending because vertex loops walk owned vertices in ascending
  // order, so a multi-run merge suffices — and because the order no longer
  // depends on which worker sent what, delivery (and therefore every
  // result) is invariant under the partition strategy and worker count.

  // Reset stale inbox counts from the previous superstep. Nonzero entries
  // are confined to the previous delivery's receiver list whenever that
  // list was tracked, so resetting per receiver beats the O(owned) sweep
  // regardless of this step's schedule.
  if (ReceivedTracked) {
    for (NodeId V : WS.Received)
      InboxCount[V] = 0;
  } else {
    forEachOwned(WorkerId, [&](NodeId V) { InboxCount[V] = 0; });
  }

  // When the next superstep runs sparse, this delivery also builds its
  // frontier: receivers tracked on each 0->1 count transition, unioned with
  // the vertices still active after this step's voting. A sparse compute
  // already collected its survivors; after a dense compute, collect them
  // here with one owned scan.
  const bool TrackNext = NextSparse;
  WS.NewReceived.clear();
  if (TrackNext && !CurSparse) {
    WS.Survivors.clear();
    forEachOwned(WorkerId, [&](NodeId V) {
      if (Active[V])
        WS.Survivors.push_back(V);
    });
  }
  // Frontier = Survivors ∪ NewReceived (both ascending); swap in the new
  // receiver list for the next step's stale reset. Runs on every exit path.
  auto Finish = [&] {
    if (TrackNext) {
      WS.Frontier.clear();
      std::set_union(WS.Survivors.begin(), WS.Survivors.end(),
                     WS.NewReceived.begin(), WS.NewReceived.end(),
                     std::back_inserter(WS.Frontier));
    }
    WS.Received.swap(WS.NewReceived);
  };

  const bool HasLalp = Lalp.enabled();

  // A worker with nothing inbound (common on thin frontiers) skips the
  // counting sort, layout, and merge outright — its counts are already
  // reset and its region is empty.
  bool AnyInbound = false;
  for (unsigned Sender = 0; Sender < W && !AnyInbound; ++Sender) {
    const WorkerState &SS = Workers[Sender];
    AnyInbound = !SS.Outbox[WorkerId].empty() ||
                 (HasLalp && !SS.BcastSrcs[WorkerId].empty());
  }
  if (!AnyInbound) {
    Finish();
    return;
  }

  const size_t RS = RecordBytes;
  // Count deliveries per destination vertex (broadcasts count once per
  // mirror). The frontier-tracking variants are split out so the dense
  // counting loop stays branch-free.
  auto CountDst = [&](NodeId Dst) {
    if (++InboxCount[Dst] == 1)
      WS.NewReceived.push_back(Dst);
  };
  for (unsigned Sender = 0; Sender < W; ++Sender) {
    const std::vector<std::byte> &Shard = Workers[Sender].Outbox[WorkerId];
    if (TrackNext)
      for (const std::byte *P = Shard.data(), *E = P + Shard.size(); P != E;
           P += RS)
        CountDst(MessageLayout::recordDst(P));
    else
      for (const std::byte *P = Shard.data(), *E = P + Shard.size(); P != E;
           P += RS)
        ++InboxCount[MessageLayout::recordDst(P)];
    if (!HasLalp)
      continue;
    for (NodeId Src : Workers[Sender].BcastSrcs[WorkerId]) {
      const int32_t HD = Lalp.HDIndex[Src];
      const uint32_t F = Lalp.fanout(HD, WorkerId);
      const NodeId *Mir = Lalp.mirrors(HD, WorkerId);
      for (uint32_t J = 0; J < F; ++J) {
        if (TrackNext)
          CountDst(Mir[J]);
        else
          ++InboxCount[Mir[J]];
      }
    }
  }

  // Region layout. On a frontier-tracking delivery only the receivers get
  // fresh offsets: laid out over the sorted receiver list, they come out
  // identical to the full owned scan's, since zero-count vertices advance
  // Base by nothing (compute reads offsets only when InboxCount > 0).
  uint32_t Base = WS.RegionStart;
  if (TrackNext) {
    std::sort(WS.NewReceived.begin(), WS.NewReceived.end());
    for (NodeId V : WS.NewReceived) {
      InboxOffset[V] = Base;
      Cursor[V] = Base;
      Base += InboxCount[V];
    }
  } else {
    forEachOwned(WorkerId, [&](NodeId V) {
      InboxOffset[V] = Base;
      Cursor[V] = Base;
      Base += InboxCount[V];
    });
  }

  // Receive-side combining: with LALP on, a broadcast expands into many
  // same-payload deliveries, so combiners must also fold after expansion
  // to keep inboxes small. LALP-off runs skip this entirely and stay
  // bit-identical to the historical sender-combined behaviour.
  const bool RecvCombine = HasLalp && NumCombinable > 0;
  if (RecvCombine && ++WS.Epoch == 0) {
    std::fill(WS.DenseEpoch.begin(), WS.DenseEpoch.end(), 0u);
    WS.Epoch = 1;
  }
  const uint32_t Epoch = WS.Epoch;

  auto Deliver = [&](const std::byte *P, NodeId Dst) {
    if (RecvCombine) {
      const int32_t Tag = Layout.recordTag(P);
      const int32_t Ord = CombineOrd[Tag];
      if (Ord >= 0) {
        const size_t Key = size_t(Ord) * N + Dst;
        if (WS.DenseEpoch[Key] == Epoch) {
          const MsgTypeLayout &T = Layout.type(Tag);
          std::byte *Acc =
              Inbox.data() + size_t(WS.DenseSlot[Key]) * RS + T.Offset[0];
          applyReduceRaw(CombineOpByTag[Tag], T.Slots[0], Acc,
                         P + T.Offset[0]);
          return;
        }
        WS.DenseEpoch[Key] = Epoch;
        WS.DenseSlot[Key] = Cursor[Dst];
      }
    }
    std::byte *Out = Inbox.data() + size_t(Cursor[Dst]++) * RS;
    std::memcpy(Out, P, RS);
    MessageLayout::writeDst(Out, Dst);
  };

  // Merge runs in a fixed scan order (normal shards by sender, then
  // broadcast shards by sender); the earliest run wins head ties, which
  // is exactly the canonical tie-break since one source's normal sends
  // live in a single run and its broadcasts in a single later run.
  struct Run {
    const std::byte *P, *E;
    const NodeId *S;
    bool Bcast;
  };
  std::vector<Run> Runs;
  Runs.reserve(2 * W);
  for (unsigned Sender = 0; Sender < W; ++Sender) {
    const std::vector<std::byte> &Shard = Workers[Sender].Outbox[WorkerId];
    if (!Shard.empty())
      Runs.push_back({Shard.data(), Shard.data() + Shard.size(),
                      Workers[Sender].OutboxSrcs[WorkerId].data(), false});
  }
  if (HasLalp)
    for (unsigned Sender = 0; Sender < W; ++Sender) {
      const std::vector<std::byte> &Shard =
          Workers[Sender].BcastShards[WorkerId];
      if (!Shard.empty())
        Runs.push_back({Shard.data(), Shard.data() + Shard.size(),
                        Workers[Sender].BcastSrcs[WorkerId].data(), true});
    }

  uint64_t Received = 0;
  while (!Runs.empty()) {
    size_t Best = 0;
    for (size_t R = 1; R < Runs.size(); ++R)
      if (*Runs[R].S < *Runs[Best].S)
        Best = R;
    Run &Rn = Runs[Best];
    const NodeId Src = *Rn.S;
    do {
      if (!Rn.Bcast) {
        const NodeId Dst = MessageLayout::recordDst(Rn.P);
        assert(Part.workerOf(Dst) == WorkerId && "message in wrong shard");
        Deliver(Rn.P, Dst);
        ++Received;
      } else {
        const int32_t HD = Lalp.HDIndex[Src];
        const uint32_t F = Lalp.fanout(HD, WorkerId);
        const NodeId *Mir = Lalp.mirrors(HD, WorkerId);
        for (uint32_t J = 0; J < F; ++J)
          Deliver(Rn.P, Mir[J]);
        Received += F;
        WS.StepMirrorHits += F;
      }
      Rn.P += RS;
      ++Rn.S;
    } while (Rn.P != Rn.E && *Rn.S == Src);
    if (Rn.P == Rn.E)
      Runs.erase(Runs.begin() + Best); // keep scan order for tie-breaks
  }

  // Combining shortened some vertices' inboxes in place (a combined
  // vertex still holds >= 1 message, so receiver membership is unchanged).
  if (RecvCombine) {
    if (TrackNext)
      for (NodeId V : WS.NewReceived)
        InboxCount[V] = Cursor[V] - InboxOffset[V];
    else
      forEachOwned(
          WorkerId,
          [&](NodeId V) { InboxCount[V] = Cursor[V] - InboxOffset[V]; });
  }

  for (unsigned Sender = 0; Sender < W; ++Sender) {
    // Capacity kept; the sender refills them next superstep.
    Workers[Sender].Outbox[WorkerId].clear();
    Workers[Sender].OutboxSrcs[WorkerId].clear();
    if (HasLalp) {
      Workers[Sender].BcastShards[WorkerId].clear();
      Workers[Sender].BcastSrcs[WorkerId].clear();
    }
  }
  if (SM) {
    SM->Workers[WorkerId].MessagesReceived = Received;
    SM->Workers[WorkerId].MirrorHits = WS.StepMirrorHits;
  }
  Finish();
}

RunStats Engine::run(VertexProgram &Program) {
  auto Start = Clock::now();
  RunStats Stats;

  const NodeId N = G.numNodes();
  const unsigned W = Cfg.NumWorkers;
  Active.assign(N, 1);
  InboxOffset.assign(N, 0);
  InboxCount.assign(N, 0);
  Cursor.assign(N, 0);
  Inbox.clear();
  PendingMessageCount = 0;
  Globals = GlobalObjects();

  // Per-tag wire bytes and combiner dispatch are resolved here, once per
  // run, off the hot path.
  Layout = Program.messageLayout();
  RecordBytes = Layout.recordSize();
  WireBytesByTag.assign(Layout.maxTag() + 1, 0);
  CombineOrd.assign(Layout.maxTag() + 1, -1);
  CombineOpByTag.assign(Layout.maxTag() + 1, ReduceKind::Sum);
  NumCombinable = 0;
  for (int32_t Tag = 0; Tag <= Layout.maxTag(); ++Tag) {
    if (!Layout.hasType(Tag))
      continue;
    WireBytesByTag[Tag] = Layout.wireBytes(Tag);
    auto It = Cfg.Combiners.find(Tag);
    if (It != Cfg.Combiners.end() && Layout.type(Tag).Slots.size() == 1) {
      CombineOrd[Tag] = static_cast<int32_t>(NumCombinable++);
      CombineOpByTag[Tag] = It->second;
    }
  }

  Workers.resize(W);
  for (unsigned WorkerId = 0; WorkerId < W; ++WorkerId) {
    WorkerState &WS = Workers[WorkerId];
    WS.Outbox.resize(W);
    for (std::vector<std::byte> &S : WS.Outbox)
      S.clear();
    WS.OutboxSrcs.resize(W);
    for (std::vector<NodeId> &S : WS.OutboxSrcs)
      S.clear();
    WS.Kept.clear();
    WS.KeptSrcs.clear();
    if (NumCombinable > 0) {
      WS.DenseEpoch.assign(size_t(NumCombinable) * N, 0);
      WS.DenseSlot.resize(size_t(NumCombinable) * N);
      WS.Epoch = 0;
    }
    if (Lalp.enabled()) {
      WS.BcastShards.resize(W);
      for (std::vector<std::byte> &S : WS.BcastShards)
        S.clear();
      WS.BcastSrcs.resize(W);
      for (std::vector<NodeId> &S : WS.BcastSrcs)
        S.clear();
    }
    WS.BcastExpanded.assign(W, 0);
    WS.ActiveCount = Part.ownedCount(WorkerId);
    WS.GlobalsRevision = ~0ull;
    WS.Drift.clear();
    WS.Frontier.clear();
    WS.Survivors.clear();
    WS.Received.clear();
    WS.NewReceived.clear();
  }

  // Schedule state (docs/scheduling.md). Superstep 0 runs every vertex (all
  // start active), so its frontier estimate is N and Auto starts dense; a
  // forced-sparse run seeds each worker's frontier with every vertex it owns.
  // Received lists are empty and every InboxCount is zero, so the first
  // delivery's per-receiver reset is vacuous and correct.
  ReceivedTracked = true;
  NextSparse = false;
  CurSparse = decideSparse(N);
  if (CurSparse)
    for (unsigned WorkerId = 0; WorkerId < W; ++WorkerId) {
      WorkerState &WS = Workers[WorkerId];
      forEachOwned(WorkerId, [&](NodeId V) { WS.Frontier.push_back(V); });
    }

  const bool UseThreads = Cfg.Threaded && W > 1;
  if (UseThreads && (!Pool || Pool->size() != W))
    Pool = std::make_unique<ThreadPool>(W);
  auto ForEachWorker = [&](const std::function<void(unsigned)> &Task) {
    if (UseThreads) {
      Pool->runOnWorkers(Task);
      return;
    }
    for (unsigned WorkerId = 0; WorkerId < W; ++WorkerId)
      Task(WorkerId);
  };

  {
    MasterContext InitCtx(0, G, Globals, Rng);
    Program.init(G, InitCtx);
  }

  // The two parallel phases as fixed tasks (built once; per-step inputs
  // flow through CurStep / CurSM so the loop body allocates nothing).
  uint64_t CurStep = 0;
  SuperstepMetrics *CurSM = nullptr;
  const std::function<void(unsigned)> ComputeTask = [&](unsigned WorkerId) {
    computePhase(WorkerId, Program, CurStep, CurSM);
  };
  const std::function<void(unsigned)> DeliverTask = [&](unsigned WorkerId) {
    deliverPhase(WorkerId, CurSM);
  };

  // The frontier estimate that selected the in-flight step's schedule; N
  // for superstep 0 (every vertex starts active).
  uint64_t NextEstimate = N;

  for (uint64_t Step = 0; Step < Cfg.MaxSupersteps; ++Step) {
    SuperstepMetrics SM;
    SuperstepMetrics *SMp = Cfg.CollectMetrics ? &SM : nullptr;
    const bool StepSparse = CurSparse;
    const uint64_t StepEstimate = NextEstimate;
    trace::ScopedSpan StepSpan(0, "superstep", tracecat::Superstep, Step);

    Clock::time_point MasterT0;
    if (SMp)
      MasterT0 = Clock::now();
    MasterContext MC(Step, G, Globals, Rng);
    {
      trace::ScopedSpan MasterSpan(0, "master", tracecat::Phase);
      Program.masterCompute(MC);
    }
    if (SMp)
      SM.MasterSeconds = secondsSince(MasterT0);
    if (MC.halted()) {
      Stats.Halt = HaltReason::MasterHalt;
      break;
    }

    // Quiescence: every vertex has voted to halt and nothing is in flight.
    // Checked after masterCompute so the master always gets one superstep in
    // which to observe the final aggregator values (GPS behaviour). The
    // workers maintain their active-vertex counts, so this is O(W).
    if (PendingMessageCount == 0) {
      uint64_t AnyActive = 0;
      for (const WorkerState &WS : Workers)
        AnyActive += WS.ActiveCount;
      if (AnyActive == 0) {
        Stats.Halt = HaltReason::Quiescence;
        break;
      }
    }

    if (SMp)
      SM.Workers.assign(W, WorkerStepMetrics{});
    CurStep = Step;
    CurSM = SMp;

    // Compute phase: vertex loops, sender-side combining, wire tallies —
    // all worker-parallel.
    Clock::time_point PhaseT0;
    if (SMp)
      PhaseT0 = Clock::now();
    ForEachWorker(ComputeTask);
    Clock::time_point BarrierT0;
    if (SMp) {
      SM.ComputeSeconds = secondsSince(PhaseT0);
      BarrierT0 = Clock::now();
    }

    // Barrier, sequential part: merge worker-private global contributions
    // and sum the wire tallies in worker order (deterministic, identical to
    // the single-threaded accumulation), then lay out each worker's region
    // of the next inbox. Sent counts (a LALP broadcast record counts once)
    // feed the stats; delivered counts (broadcasts expanded per mirror)
    // size the inbox regions. They coincide whenever LALP is off.
    uint64_t StepSent = 0, ActiveAfterTotal = 0;
    for (unsigned WorkerId = 0; WorkerId < W; ++WorkerId) {
      WorkerState &WS = Workers[WorkerId];
      Globals.mergePendingFrom(WS.PrivateGlobals);
      Stats.TotalMessages += WS.StepMessages;
      Stats.NetworkMessages += WS.StepNetworkMessages;
      Stats.NetworkBytes += WS.StepNetworkBytes;
      Stats.MirrorBytesSaved += WS.StepMirrorSaved;
      StepSent += WS.StepMessages;
      ActiveAfterTotal += WS.ActiveCount;
    }
    uint64_t StepDelivered = 0;
    for (unsigned WorkerId = 0; WorkerId < W; ++WorkerId) {
      uint64_t Inbound = 0;
      for (unsigned Sender = 0; Sender < W; ++Sender)
        Inbound += shardCount(Sender, WorkerId) +
                   Workers[Sender].BcastExpanded[WorkerId];
      assert(StepDelivered + Inbound <= UINT32_MAX &&
             "inbox offsets overflow uint32");
      Workers[WorkerId].RegionStart = static_cast<uint32_t>(StepDelivered);
      StepDelivered += Inbound;
    }
    Stats.Supersteps = Step + 1;
    if (StepSparse)
      ++Stats.SparseSupersteps;
    Stats.MessagesPerStep.push_back(StepSent);

    // Pick the next superstep's schedule from global sums only (active after
    // this step's voting + deliveries about to land), so the choice — and
    // therefore every downstream iteration order — is identical under any
    // worker count, partition strategy, or threading mode. The upcoming
    // delivery also builds the frontier when the choice is sparse
    // (NextSparse is read by the parallel delivery tasks; written only
    // here, in the sequential slice).
    NextEstimate = ActiveAfterTotal + StepDelivered;
    NextSparse = decideSparse(NextEstimate);
    Globals.resolveBarrier();
    Inbox.resize(size_t(StepDelivered) * RecordBytes);

    // Barrier, parallel part: every worker merges its own inbound messages
    // into its inbox region in canonical source order. BarrierSeconds covers
    // only the sequential coordination above (schema v2); the delivery merge
    // is its own phase slice.
    Clock::time_point DeliverT0;
    if (SMp) {
      SM.BarrierSeconds = secondsSince(BarrierT0);
      DeliverT0 = Clock::now();
    }
    ForEachWorker(DeliverTask);
    if (SMp)
      SM.DeliverSeconds = secondsSince(DeliverT0);
    PendingMessageCount = StepDelivered;
    // The delivery that just ran tracked receivers (and built frontiers) iff
    // it was sparse-style; the next compute follows the same choice.
    ReceivedTracked = NextSparse;
    CurSparse = NextSparse;
    if (Lalp.enabled())
      for (const WorkerState &WS : Workers)
        Stats.MirrorHits += WS.StepMirrorHits;

    if (trace::enabled()) {
      uint64_t ActiveNow = 0, StepNetBytes = 0, StepMirrorSaved = 0;
      for (const WorkerState &WS : Workers) {
        ActiveNow += WS.ActiveCount;
        StepNetBytes += WS.StepNetworkBytes;
        StepMirrorSaved += WS.StepMirrorSaved;
      }
      traceStepCounters(ActiveNow, StepSent, StepNetBytes, StepMirrorSaved,
                        StepEstimate, StepSparse);
    }

    if (SMp) {
      SM.Step = Step;
      SM.Label = MC.phaseLabel();
      SM.Messages = StepSent;
      SM.Sparse = StepSparse;
      SM.FrontierSize = StepEstimate;
      for (const WorkerStepMetrics &WM : SM.Workers) {
        SM.RanVertices += WM.RanVertices;
        SM.ActiveAfter += WM.ActiveAfter;
        SM.NetworkMessages += WM.NetworkMessagesSent;
        SM.NetworkBytes += WM.BytesSent;
        SM.CombinerInput += WM.CombinerInput;
        SM.CombinerOutput += WM.CombinerOutput;
        SM.MirrorHits += WM.MirrorHits;
        SM.MirrorBytesSaved += WM.MirrorBytesSaved;
        if (WM.CombineSeconds > SM.CombineSeconds)
          SM.CombineSeconds = WM.CombineSeconds;
      }
      Stats.Steps.push_back(std::move(SM));
    }
  }

  // Falling out of the loop without a halt means the runaway guard tripped:
  // the caller must be able to tell this apart from convergence.
  if (Stats.Halt == HaltReason::None) {
    Stats.Halt = HaltReason::MaxSupersteps;
    if (Cfg.Diags)
      Cfg.Diags->warning(
          SourceLocation(),
          "pregel engine: MaxSupersteps guard halted the run after " +
              std::to_string(Stats.Supersteps) +
              " supersteps without convergence (vertices still active or "
              "messages in flight)");
  }

  if (Cfg.Diags)
    for (const WorkerState &WS : Workers)
      if (!WS.Drift.empty())
        Cfg.Diags->error(SourceLocation(), "message layout drift: " + WS.Drift);

  Stats.WallSeconds = secondsSince(Start);
  Stats.PeakRssBytes = trace::peakRssBytes();
  return Stats;
}

std::string pregel::checkDeclaredMessageLayout(VertexProgram &Program,
                                               const Graph &G, Config Cfg) {
  DiagnosticEngine Diags;
  Cfg.Diags = &Diags;
  Engine(G, Cfg).run(Program);
  const std::string Prefix = "message layout drift: ";
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.rfind(Prefix, 0) == 0)
      return D.Message.substr(Prefix.size());
  return "";
}
