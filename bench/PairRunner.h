//===- bench/PairRunner.h - Manual vs. generated program pairs --------------===//
///
/// \file
/// Runs the compiler-generated Pregel program and the hand-written baseline
/// of one algorithm on one graph under identical engine configuration, and
/// reports both runs' statistics. Shared by the Figure 6 runtime benchmark
/// and the §5.2 equivalence benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef GM_BENCH_PAIRRUNNER_H
#define GM_BENCH_PAIRRUNNER_H

#include "BenchCommon.h"

#include "algorithms/manual/ManualPrograms.h"

namespace gm::bench {

struct PairResult {
  pregel::RunStats Manual;
  pregel::RunStats Generated;
  bool HasManual = true;
};

struct PairSettings {
  unsigned Workers = 8;
  /// Use the vote-to-halt SSSP baseline (hand-tuned; Figure 6) instead of
  /// the aggregator-terminated one (like-for-like; equivalence bench).
  bool SSSPVoteToHalt = false;
  int PageRankIters = 10;
  int64_t AvgTeenK = 35;
  int64_t ConductanceNum = 0;
  NodeId SSSPRoot = 0;
};

/// Input data shared between the two implementations of one algorithm.
struct AlgoInputs {
  std::vector<int64_t> Age;
  std::vector<int64_t> Member;
  std::vector<int64_t> Len;
  std::vector<uint8_t> Left;
};

inline AlgoInputs makeInputs(const BenchGraph &BG, uint64_t Seed) {
  AlgoInputs In;
  const Graph &G = BG.G;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> AgeDist(5, 70);
  std::uniform_int_distribution<int64_t> LenDist(1, 10);
  In.Age.resize(G.numNodes());
  In.Member.resize(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    In.Age[N] = AgeDist(Rng);
    In.Member[N] = N % 4;
  }
  In.Len.resize(G.numEdges());
  for (auto &L : In.Len)
    L = LenDist(Rng);
  In.Left.assign(G.numNodes(), 0);
  for (NodeId N = 0; N < BG.BipartiteLeft; ++N)
    In.Left[N] = 1;
  return In;
}

inline std::vector<Value> toValues(const std::vector<int64_t> &In) {
  std::vector<Value> Out;
  Out.reserve(In.size());
  for (int64_t V : In)
    Out.push_back(Value::makeInt(V));
  return Out;
}

/// Runs the generated program for \p Algo; fills Args per algorithm.
inline pregel::RunStats
runGenerated(const pir::PregelProgram &Prog, const std::string &Algo,
             const BenchGraph &BG, const AlgoInputs &In,
             const PairSettings &S) {
  exec::ExecArgs Args;
  if (Algo == "avg_teen") {
    Args.Scalars["K"] = Value::makeInt(S.AvgTeenK);
    Args.NodeProps["age"] = toValues(In.Age);
  } else if (Algo == "pagerank") {
    Args.Scalars["e"] = Value::makeDouble(0.0);
    Args.Scalars["d"] = Value::makeDouble(0.85);
    Args.Scalars["max_iter"] = Value::makeInt(S.PageRankIters);
  } else if (Algo == "conductance") {
    Args.Scalars["num"] = Value::makeInt(S.ConductanceNum);
    Args.NodeProps["member"] = toValues(In.Member);
  } else if (Algo == "sssp") {
    Args.Scalars["root"] = Value::makeInt(S.SSSPRoot);
    Args.EdgeProps["len"] = toValues(In.Len);
  } else if (Algo == "bipartite_matching") {
    std::vector<Value> IsLeft(In.Left.size());
    for (size_t I = 0; I < In.Left.size(); ++I)
      IsLeft[I] = Value::makeBool(In.Left[I] != 0);
    Args.NodeProps["is_left"] = IsLeft;
  } else if (Algo == "bc_approx") {
    Args.Scalars["K"] = Value::makeInt(2);
  }
  pregel::Config Cfg;
  Cfg.NumWorkers = S.Workers;
  return exec::runProgram(Prog, BG.G, std::move(Args), Cfg);
}

/// Runs the hand-written baseline; HasManual=false for BC (paper: N/A).
inline pregel::RunStats runManual(const std::string &Algo,
                                  const BenchGraph &BG, const AlgoInputs &In,
                                  const PairSettings &S, bool &HasManual) {
  pregel::Config Cfg;
  Cfg.NumWorkers = S.Workers;
  HasManual = true;
  if (Algo == "avg_teen") {
    manual::AvgTeenProgram P(In.Age, S.AvgTeenK);
    return pregel::Engine(BG.G, Cfg).run(P);
  }
  if (Algo == "pagerank") {
    manual::PageRankProgram P(0.85, 0.0, S.PageRankIters);
    return pregel::Engine(BG.G, Cfg).run(P);
  }
  if (Algo == "conductance") {
    manual::ConductanceProgram P(In.Member, S.ConductanceNum);
    return pregel::Engine(BG.G, Cfg).run(P);
  }
  if (Algo == "sssp") {
    if (S.SSSPVoteToHalt) {
      manual::SSSPVoteToHaltProgram P(S.SSSPRoot, In.Len);
      return pregel::Engine(BG.G, Cfg).run(P);
    }
    manual::SSSPProgram P(S.SSSPRoot, In.Len);
    return pregel::Engine(BG.G, Cfg).run(P);
  }
  if (Algo == "bipartite_matching") {
    manual::BipartiteMatchingProgram P(In.Left);
    return pregel::Engine(BG.G, Cfg).run(P);
  }
  HasManual = false;
  return {};
}

inline PairResult runPair(const std::string &Algo, const BenchGraph &BG,
                          const PairSettings &S = {}) {
  CompileResult C = compileAlgorithm(Algo);
  AlgoInputs In = makeInputs(BG, 1234);
  PairResult R;
  R.Generated = runGenerated(*C.Program, Algo, BG, In, S);
  R.Manual = runManual(Algo, BG, In, S, R.HasManual);
  return R;
}

} // namespace gm::bench

#endif // GM_BENCH_PAIRRUNNER_H
