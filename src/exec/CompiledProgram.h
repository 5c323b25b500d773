//===- exec/CompiledProgram.h - Base class for generated native programs ----===//
///
/// \file
/// The runtime surface shared by natively compiled vertex programs. The C++
/// codegen backend (pregelir/CppCodegen) emits one translation unit per
/// program containing a subclass of CompiledProgram: vertex state in typed
/// columns, compute/receive/masterCompute as straight-line code, no Value
/// boxing and no IR walks on the hot path. This header is the *only* header
/// a generated source includes, so it also hosts the small inline helpers
/// the generated code calls (argument loading, checked integer division,
/// the shared vertex RNG) — all written to match exec::IRExecutor
/// bit-for-bit, which the equivalence tests enforce.
///
//===----------------------------------------------------------------------===//

#ifndef GM_EXEC_COMPILEDPROGRAM_H
#define GM_EXEC_COMPILEDPROGRAM_H

#include "exec/IRExecutor.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gm::exec {

//===----------------------------------------------------------------------===//
// Helpers shared between the interpreter and generated code
//===----------------------------------------------------------------------===//

/// Deterministic per-(vertex, superstep) RNG for vertex-side randomness.
/// Shared by IRExecutor::eval and generated code so both backends draw the
/// same node for the same (vertex, superstep) pair regardless of worker
/// count, partitioning or thread schedule.
inline NodeId vertexRandomNode(NodeId Id, uint64_t Step, NodeId NumNodes) {
  uint64_t X = (uint64_t(Id) << 32) ^ (Step * 0x9E3779B97F4A7C15ull) ^
               0xD1B54A32D192ED03ull;
  X ^= X >> 33;
  X *= 0xFF51AFD7ED558CCDull;
  X ^= X >> 33;
  X *= 0xC4CEB9FE1A85EC53ull;
  X ^= X >> 33;
  return static_cast<NodeId>(X % NumNodes);
}

/// Integer division with the interpreter's division-by-zero assert.
inline int64_t intDiv(int64_t A, int64_t B) {
  assert(B != 0 && "integer division by zero");
  return A / B;
}

/// Integer modulo with the interpreter's modulo-by-zero assert.
inline int64_t intMod(int64_t A, int64_t B) {
  assert(B != 0 && "modulo by zero");
  return A % B;
}

/// Typed reads of a master global for the generated global cache. A global
/// that is still Undef (declared, never written) reads as zero — a verified
/// program never consumes such a value, so the choice is unobservable.
inline int64_t globalAsInt(const Value &V) { return V.isUndef() ? 0 : V.asInt(); }
inline double globalAsDouble(const Value &V) {
  return V.isUndef() ? 0.0 : V.asDouble();
}
inline bool globalAsBool(const Value &V) { return !V.isUndef() && V.asBool(); }

/// Preloads one node-property column from ExecArgs, converting through the
/// same Value conversions Column::set applies. Missing arguments leave the
/// zero-initialized column untouched (IRExecutor::init behavior).
inline void loadNodeColumn(const ExecArgs &Args, const char *Name,
                           std::vector<int64_t> &Col) {
  auto It = Args.NodeProps.find(Name);
  if (It == Args.NodeProps.end())
    return;
  assert(It->second.size() == Col.size() && "node property size mismatch");
  for (size_t N = 0; N < Col.size(); ++N)
    Col[N] = It->second[N].asInt();
}
inline void loadNodeColumn(const ExecArgs &Args, const char *Name,
                           std::vector<double> &Col) {
  auto It = Args.NodeProps.find(Name);
  if (It == Args.NodeProps.end())
    return;
  assert(It->second.size() == Col.size() && "node property size mismatch");
  for (size_t N = 0; N < Col.size(); ++N)
    Col[N] = It->second[N].asDouble();
}
inline void loadNodeColumn(const ExecArgs &Args, const char *Name,
                           std::vector<uint8_t> &Col) {
  auto It = Args.NodeProps.find(Name);
  if (It == Args.NodeProps.end())
    return;
  assert(It->second.size() == Col.size() && "node property size mismatch");
  for (size_t N = 0; N < Col.size(); ++N)
    Col[N] = It->second[N].asBool() ? 1 : 0;
}

/// Loads one edge-property column from ExecArgs (always argument-supplied,
/// like IRExecutor::init's edge-property handling).
template <typename ElemT>
inline void loadEdgeColumn(const ExecArgs &Args, const char *Name,
                           size_t NumEdges, std::vector<ElemT> &Col) {
  auto It = Args.EdgeProps.find(Name);
  assert(It != Args.EdgeProps.end() && "missing edge property argument");
  assert(It->second.size() == NumEdges && "edge property size mismatch");
  Col.resize(NumEdges);
  for (size_t E = 0; E < NumEdges; ++E) {
    if constexpr (std::is_same_v<ElemT, uint8_t>)
      Col[E] = It->second[E].asBool() ? 1 : 0;
    else if constexpr (std::is_same_v<ElemT, double>)
      Col[E] = It->second[E].asDouble();
    else
      Col[E] = It->second[E].asInt();
  }
}

/// Declares one master global: program-declared initial value, overridden
/// by a scalar argument when one was passed (IRExecutor::init behavior).
inline void declareGlobalFromArgs(pregel::MasterContext &Master,
                                  const ExecArgs &Args, const char *Name,
                                  ReduceKind Reduce, Value Init) {
  auto It = Args.Scalars.find(Name);
  if (It != Args.Scalars.end())
    Init = It->second;
  Master.declareGlobal(Name, Reduce, Init);
}

//===----------------------------------------------------------------------===//
// CompiledProgram
//===----------------------------------------------------------------------===//

/// Base class for natively compiled vertex programs. Generated subclasses
/// hold the typed columns and state-machine code; the shared result surface
/// (return value, final globals, finished flag) lives here so runners can
/// read results without knowing the concrete program. Mirrors the
/// IRExecutor results API.
class CompiledProgram : public pregel::VertexProgram {
public:
  ~CompiledProgram() override;

  /// Identity of the PregelIR this program was generated from
  /// (pir::programFingerprint over the printed IR).
  virtual const char *fingerprint() const = 0;

  /// Final value of node property \p Prop for node \p N. Asserts on unknown
  /// property names, like IRExecutor::nodeProp.
  virtual Value nodeValue(const std::string &Prop, NodeId N) const = 0;

  /// Final value of a master global once the program reached its end state.
  Value globalValue(const std::string &Name) const;

  /// The program's declared return value, if any.
  std::optional<Value> returnValue() const { return ReturnVal; }

  /// True once the state machine reached the end state.
  bool finished() const { return Finished; }

protected:
  /// Current state-machine state (index into the program's states).
  int CurState = 0;
  /// In-neighbor setup phase: 0/1 during the §4.3 preamble supersteps,
  /// 2 once the program's own state machine runs.
  int SetupPhase = 2;
  bool Finished = false;
  std::optional<Value> ReturnVal;
  /// Snapshot of every global at the moment the program halted itself.
  std::unordered_map<std::string, Value> FinalGlobals;
};

} // namespace gm::exec

#endif // GM_EXEC_COMPILEDPROGRAM_H
