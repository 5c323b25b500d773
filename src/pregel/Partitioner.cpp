//===- pregel/Partitioner.cpp ----------------------------------------------===//

#include "pregel/Partitioner.h"

#include <algorithm>

using namespace gm;
using namespace gm::pregel;

const char *gm::pregel::partitionStrategyName(PartitionStrategy S) {
  switch (S) {
  case PartitionStrategy::Hash:
    return "hash";
  case PartitionStrategy::Range:
    return "range";
  case PartitionStrategy::EdgeBalanced:
    return "edge-balanced";
  }
  return "hash";
}

std::optional<PartitionStrategy>
gm::pregel::parsePartitionStrategy(std::string_view Name) {
  if (Name == "hash")
    return PartitionStrategy::Hash;
  if (Name == "range")
    return PartitionStrategy::Range;
  if (Name == "edge-balanced")
    return PartitionStrategy::EdgeBalanced;
  return std::nullopt;
}

std::vector<uint64_t> Partition::edgeCounts(const Graph &G) const {
  assert(G.numNodes() == N && "partition built for a different graph");
  std::vector<uint64_t> Counts(W, 0);
  for (unsigned Worker = 0; Worker < W; ++Worker) {
    const Slice S = slice(Worker);
    for (NodeId V = S.First; V < S.End; V += S.Stride)
      Counts[Worker] += G.outDegree(V);
  }
  return Counts;
}

namespace {

/// Contiguous id ranges of (near-)equal vertex count: the first N % W
/// workers own one extra vertex.
std::vector<NodeId> rangeCuts(const Graph &G, unsigned NumWorkers) {
  const NodeId N = G.numNodes();
  std::vector<NodeId> Cuts(NumWorkers + 1, 0);
  for (unsigned Worker = 0; Worker < NumWorkers; ++Worker)
    Cuts[Worker + 1] =
        Cuts[Worker] + N / NumWorkers + (Worker < N % NumWorkers ? 1 : 0);
  return Cuts;
}

/// Contiguous id ranges cut so each worker's share of vertex weight
/// (out-degree + 1; the +1 keeps edgeless graphs splittable) tracks the
/// ideal k/W fraction. Boundaries are clamped so every worker owns at least
/// one vertex whenever N >= W.
std::vector<NodeId> edgeBalancedCuts(const Graph &G, unsigned NumWorkers) {
  const NodeId N = G.numNodes();
  const uint64_t Total = G.numEdges() + N;
  std::vector<NodeId> Cuts(NumWorkers + 1, 0);
  NodeId V = 0;
  uint64_t Cum = 0;
  for (unsigned Worker = 0; Worker < NumWorkers; ++Worker) {
    // Take vertices until the cumulative weight reaches this worker's
    // share of the total.
    const uint64_t Target = Total * (Worker + 1) / NumWorkers;
    const NodeId First = V;
    while (V < N && (Cum < Target || V == First)) {
      // Leave enough vertices for the remaining workers.
      if (V > First && N - V <= NumWorkers - Worker - 1)
        break;
      Cum += G.outDegree(V++) + 1;
    }
    Cuts[Worker + 1] = V;
  }
  // Weight rounding can leave a tail; the last worker absorbs it.
  Cuts[NumWorkers] = N;
  return Cuts;
}

} // namespace

Partition gm::pregel::makePartition(const Graph &G, PartitionStrategy S,
                                    unsigned NumWorkers) {
  assert(NumWorkers > 0 && "need at least one worker");
  Partition P;
  P.W = NumWorkers;
  P.N = G.numNodes();
  if (S == PartitionStrategy::Hash)
    return P;
  P.Cuts = S == PartitionStrategy::Range ? rangeCuts(G, NumWorkers)
                                         : edgeBalancedCuts(G, NumWorkers);
  P.Owner.resize(P.N);
  for (unsigned Worker = 0; Worker < NumWorkers; ++Worker)
    std::fill(P.Owner.begin() + P.Cuts[Worker],
              P.Owner.begin() + P.Cuts[Worker + 1], Worker);
  return P;
}

LalpPlan gm::pregel::buildLalpPlan(const Graph &G, const Partition &P,
                                   uint32_t Threshold) {
  LalpPlan Plan;
  if (Threshold == 0)
    return Plan;
  Plan.Threshold = Threshold;
  const unsigned W = P.numWorkers();
  Plan.NumWorkers = W;
  const NodeId N = G.numNodes();
  Plan.HDIndex.assign(N, -1);

  int32_t NumHD = 0;
  for (NodeId V = 0; V < N; ++V)
    if (G.outDegree(V) >= Threshold)
      Plan.HDIndex[V] = NumHD++;

  Plan.Fanout.assign(size_t(NumHD) * W, 0);
  for (NodeId V = 0; V < N; ++V) {
    const int32_t HD = Plan.HDIndex[V];
    if (HD < 0)
      continue;
    for (NodeId Nbr : G.outNeighbors(V))
      ++Plan.Fanout[size_t(HD) * W + P.workerOf(Nbr)];
  }

  Plan.MirrorOff.assign(size_t(NumHD) * W, 0);
  uint64_t Off = 0;
  for (size_t I = 0; I < Plan.Fanout.size(); ++I) {
    Plan.MirrorOff[I] = static_cast<uint32_t>(Off);
    Off += Plan.Fanout[I];
  }
  assert(Off <= UINT32_MAX && "mirror table offsets overflow uint32");

  Plan.MirrorNbrs.resize(Off);
  std::vector<uint32_t> Cursor(Plan.MirrorOff);
  for (NodeId V = 0; V < N; ++V) {
    const int32_t HD = Plan.HDIndex[V];
    if (HD < 0)
      continue;
    for (NodeId Nbr : G.outNeighbors(V))
      Plan.MirrorNbrs[Cursor[size_t(HD) * W + P.workerOf(Nbr)]++] = Nbr;
  }
  return Plan;
}
