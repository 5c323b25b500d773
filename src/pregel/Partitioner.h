//===- pregel/Partitioner.h - Vertex-to-worker partitioning strategies ----===//
///
/// \file
/// The partitioning subsystem of the simulated GPS runtime. GPS's headline
/// runtime features beyond vanilla Pregel are smarter vertex partitioning
/// and large-adjacency-list partitioning (LALP) for high-degree vertices;
/// this header makes both first-class:
///
///  - three strategies (hash — the classic Pregel default, contiguous range,
///    edge-balanced contiguous cuts) producing an immutable Partition the
///    engine routes every message through: a stride for hash, W+1 cut
///    points for the other two;
///  - a LalpPlan: per-worker mirror adjacency lists for vertices whose
///    out-degree reaches a threshold, so a neighborhood broadcast ships one
///    record per worker instead of one per out-edge and the receiving
///    worker fans it out locally.
///
/// Partition choice must never leak into results: the engine delivers
/// messages to each vertex in canonical ascending-source order regardless
/// of the partition (see docs/partitioning.md).
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGEL_PARTITIONER_H
#define GM_PREGEL_PARTITIONER_H

#include "graph/Graph.h"

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace gm::pregel {

/// The bundled vertex-partitioning strategies.
enum class PartitionStrategy : uint8_t {
  Hash,         ///< worker(v) = v mod W (the Pregel/GPS default)
  Range,        ///< contiguous id ranges with equal vertex counts
  EdgeBalanced, ///< contiguous id ranges with balanced out-edge counts
};

/// Canonical CLI/report name of \p S ("hash", "range", "edge-balanced").
const char *partitionStrategyName(PartitionStrategy S);

/// Inverse of partitionStrategyName; nullopt for unknown names.
std::optional<PartitionStrategy> parsePartitionStrategy(std::string_view Name);

/// An immutable vertex -> worker assignment. Every worker owns an
/// arithmetic progression of ids: a stride of W from its own id for hash
/// (no per-vertex state, so the lookup stays one modulo), or one contiguous
/// run between two of W+1 cut points, with a per-vertex owner array keeping
/// the lookup O(1) on the send path.
class Partition {
public:
  Partition() = default;

  unsigned numWorkers() const { return W; }
  NodeId numNodes() const { return N; }

  unsigned workerOf(NodeId V) const {
    assert(V < N && "vertex out of partition range");
    return Owner.empty() ? V % W : Owner[V];
  }

  /// Worker \p Worker owns First, First + Stride, ... below End, ascending.
  struct Slice {
    NodeId First, End, Stride;
  };
  Slice slice(unsigned Worker) const {
    assert(Worker < W && "worker out of range");
    if (Cuts.empty())
      return {Worker, N, W};
    return {Cuts[Worker], Cuts[Worker + 1], 1};
  }

  size_t ownedCount(unsigned Worker) const {
    const Slice S = slice(Worker);
    return S.First < S.End
               ? (size_t(S.End) - S.First + S.Stride - 1) / S.Stride
               : 0;
  }

  /// Out-edges owned by each worker (sum of owned vertices' out-degrees).
  std::vector<uint64_t> edgeCounts(const Graph &G) const;

private:
  friend Partition makePartition(const Graph &G, PartitionStrategy S,
                                 unsigned NumWorkers);

  unsigned W = 1;
  NodeId N = 0;
  std::vector<NodeId> Cuts;    ///< W+1 ascending cut points; empty for hash
  std::vector<uint32_t> Owner; ///< worker per vertex; empty for hash
};

/// Partitions \p G's vertices over \p NumWorkers workers with strategy \p S.
Partition makePartition(const Graph &G, PartitionStrategy S,
                        unsigned NumWorkers);

/// Large-adjacency-list partitioning tables (GPS §LALP). For every
/// high-degree vertex (out-degree >= Threshold) the plan holds, per worker,
/// the slice of its out-neighbors that worker owns — in out-edge order, with
/// duplicate edges kept — so a broadcast can be shipped once per worker and
/// fanned out at the receiver with per-edge fidelity.
struct LalpPlan {
  uint32_t Threshold = 0; ///< 0 = LALP off (empty tables)
  unsigned NumWorkers = 0;
  /// Dense high-degree index per vertex; -1 = not high-degree.
  std::vector<int32_t> HDIndex;
  /// Fanout[hd * NumWorkers + w]: mirrors of high-degree vertex #hd on w.
  std::vector<uint32_t> Fanout;
  /// MirrorOff[hd * NumWorkers + w]: start of that mirror list in
  /// MirrorNbrs (its length is the matching Fanout entry).
  std::vector<uint32_t> MirrorOff;
  /// All mirror lists, grouped by (hd, worker), each in out-edge order.
  std::vector<NodeId> MirrorNbrs;

  bool enabled() const { return Threshold != 0; }
  bool isHighDegree(NodeId V) const { return HDIndex[V] >= 0; }

  uint32_t fanout(int32_t HD, unsigned Worker) const {
    return Fanout[size_t(HD) * NumWorkers + Worker];
  }
  const NodeId *mirrors(int32_t HD, unsigned Worker) const {
    return MirrorNbrs.data() + MirrorOff[size_t(HD) * NumWorkers + Worker];
  }
};

/// Builds the LALP tables for \p G under \p P. \p Threshold == 0 returns a
/// disabled (empty) plan.
LalpPlan buildLalpPlan(const Graph &G, const Partition &P, uint32_t Threshold);

} // namespace gm::pregel

#endif // GM_PREGEL_PARTITIONER_H
