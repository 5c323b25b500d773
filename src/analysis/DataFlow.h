//===- analysis/DataFlow.h - Worklist dataflow analyses over PregelIR -------===//
///
/// \file
/// A monotone-framework worklist solver over the PregelIR state machine,
/// plus the four analyses the optimizer and the runtime consume
/// (docs/analysis.md "Dataflow analyses"):
///
///  (a) slot liveness — which node properties are live at each state
///      boundary, and which are never read at all (DeadSlotElim fuel),
///  (b) message-field liveness — per message channel, which payload fields
///      any reachable handler reads (MessageFieldPrune fuel),
///  (c) reaching definitions + sparse conditional constant propagation over
///      slots, globals and message fields (ConstFoldDataflow fuel),
///  (d) halt reachability + frontier-shape classification — does a state
///      only activate message receivers? (`gmpc --analyze` reports it.)
///
/// The CFG is the state graph (states as nodes, MGoto transitions as
/// edges); message channels add def-use edges from each send site to the
/// OnMessage handlers of CFG successors (GPS timing: messages sent in state
/// S are consumed by the state running in the next superstep).
///
//===----------------------------------------------------------------------===//

#ifndef GM_ANALYSIS_DATAFLOW_H
#define GM_ANALYSIS_DATAFLOW_H

#include "analysis/PIRLint.h" // StateGraph

#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gm::pir {

//===----------------------------------------------------------------------===//
// Generic worklist solver
//===----------------------------------------------------------------------===//

enum class FlowDirection { Forward, Backward };

/// Solved facts per state, named in flow order: Entry[S] is the join over
/// the flow-predecessors' Exit facts (CFG predecessors for Forward, CFG
/// successors for Backward); Exit[S] = Transfer(S, Entry[S]). For a
/// backward liveness instance, Entry is live-out and Exit is live-in.
template <typename Fact> struct DataFlowResult {
  std::vector<Fact> Entry;
  std::vector<Fact> Exit;
};

/// Iterates Transfer over the state CFG to a fixpoint. Fact must be
/// default-constructible (the lattice bottom) and provide
/// `bool join(const Fact &)` returning whether the fact grew; Transfer is
/// `Fact(int State, const Fact &Entry)` and must be monotone. Termination
/// follows from join-only growth over a finite lattice.
template <typename Fact, typename TransferFn>
DataFlowResult<Fact> solveDataFlow(const StateGraph &G, FlowDirection Dir,
                                   TransferFn Transfer) {
  const int N = static_cast<int>(G.Succ.size());
  std::vector<std::vector<int>> Pred(N);
  for (int S = 0; S < N; ++S)
    for (int T : G.Succ[S])
      Pred[T].push_back(S);

  DataFlowResult<Fact> R;
  R.Entry.resize(N);
  R.Exit.resize(N);
  std::deque<int> Work;
  std::vector<bool> Queued(N, true);
  for (int S = 0; S < N; ++S)
    Work.push_back(S);

  while (!Work.empty()) {
    int S = Work.front();
    Work.pop_front();
    Queued[S] = false;
    const std::vector<int> &In = Dir == FlowDirection::Forward ? Pred[S]
                                                               : G.Succ[S];
    Fact Entry;
    for (int Q : In)
      Entry.join(R.Exit[Q]);
    Fact Exit = Transfer(S, Entry);
    R.Entry[S] = std::move(Entry);
    if (R.Exit[S].join(Exit)) {
      const std::vector<int> &Out =
          Dir == FlowDirection::Forward ? G.Succ[S] : Pred[S];
      for (int T : Out)
        if (!Queued[T]) {
          Queued[T] = true;
          Work.push_back(T);
        }
    }
  }
  return R;
}

/// Set-of-slot-indices fact (used by liveness and reaching definitions).
struct SlotSet {
  std::set<int> Slots;
  bool join(const SlotSet &O) {
    size_t Before = Slots.size();
    Slots.insert(O.Slots.begin(), O.Slots.end());
    return Slots.size() != Before;
  }
  bool count(int I) const { return Slots.count(I) != 0; }
};

//===----------------------------------------------------------------------===//
// Constant lattice
//===----------------------------------------------------------------------===//

/// The three-level SCCP lattice: Top (no value seen yet), Const (every
/// write observed so far agrees), Bottom (conflicting or runtime-dependent
/// values).
struct ConstVal {
  enum class State : uint8_t { Top, Const, Bottom };
  State S = State::Top;
  Value V;

  static ConstVal top() { return {}; }
  static ConstVal bottom() {
    ConstVal C;
    C.S = State::Bottom;
    return C;
  }
  static ConstVal of(Value V) {
    ConstVal C;
    C.S = State::Const;
    C.V = V;
    return C;
  }
  bool isConst() const { return S == State::Const; }
  bool isBottom() const { return S == State::Bottom; }

  /// Lattice meet; returns true when this value moved down.
  bool meet(const ConstVal &O);
};

/// Constant folding with exactly the interpreter's arithmetic (see
/// IRExecutor::evalBinary and the generated-code helpers — all three
/// backends agree bit for bit, which is what makes compile-time folding
/// legal). Returns nullopt where the runtime would assert (div/mod by a
/// zero constant) or short-circuiting makes the result operand-dependent.
std::optional<Value> foldBinary(BinaryOpKind Op, const Value &L,
                                const Value &R, ValueKind Ty);
std::optional<Value> foldUnary(UnaryOpKind Op, const Value &A);
std::optional<Value> foldCast(const Value &A, ValueKind Ty);

//===----------------------------------------------------------------------===//
// Analysis results
//===----------------------------------------------------------------------===//

/// Def-use facts of one message channel (IR message type): where it is
/// sent, which CFG successors handle it, and what the handlers read.
struct ChannelFacts {
  std::vector<int> SendStates; ///< states containing a send of this type
  std::vector<int> RecvStates; ///< states with an OnMessage handler
  /// Per payload field: some handler reads it. A field nobody reads can be
  /// pruned from the wire record.
  std::vector<bool> FieldRead;
  /// Per payload field: SCCP verdict over every send site's payload
  /// expression. A Const field makes its reads foldable, after which the
  /// field goes dead and the send shrinks toward a zero-byte signal.
  std::vector<ConstVal> FieldVal;
  /// Some send of this type can reach some handler along a CFG edge.
  bool Live = false;
};

/// Frontier shape of one state's vertex phase.
enum class StateShape : uint8_t {
  MasterOnly,   ///< no vertex code at all
  ReceiverOnly, ///< every vertex effect sits under an OnMessage handler
  Flood         ///< some top-level effect runs on every vertex
};

const char *stateShapeName(StateShape S);

/// Everything the four analyses derive from one program. Computed by
/// analyzeDataFlow; consumed by the opt passes, `gmpc --analyze` and the
/// dead-slot / dead-message-field lints.
struct DataFlowInfo {
  StateGraph CFG;
  /// SCCP-executable states: reachable from the entry following only
  /// branches whose conditions are not constant-false.
  std::vector<bool> Reachable;
  /// Halt reachability: the state can reach EndState in the CFG.
  std::vector<bool> ReachesEnd;

  // (a) slot liveness over node properties. LiveOut[S] is the live set at
  // the state's exit (joined from successors; parameter props are pinned
  // live at END since they are observable outputs), LiveIn[S] at its entry.
  std::vector<SlotSet> LiveIn;
  std::vector<SlotSet> LiveOut;
  /// Per node prop: some expression anywhere reads it. A slot that is
  /// never read (and not a parameter) is dead weight — its writes included.
  std::vector<bool> SlotRead;
  std::vector<bool> SlotWritten;

  // (b) message-field liveness, per IR message type.
  std::vector<ChannelFacts> Channels;

  // (c) reaching definitions + SCCP. ReachingDefs[S] holds the slots some
  // CFG-reachable write may have touched before state S's vertex phase
  // runs (state granularity; the statement-level forwarding inside
  // ConstFoldDataflow refines this within a block).
  std::vector<SlotSet> ReachingDefs;
  std::vector<ConstVal> GlobalVal; ///< per global
  std::vector<ConstVal> SlotVal;   ///< per node prop
  std::vector<ConstVal> EdgePropVal; ///< per edge prop (always Bottom: args)

  // (d) frontier shape.
  std::vector<StateShape> Shapes;

  /// Dead-slot / dead-field convenience queries used by the passes, the
  /// lints and the counters.
  bool slotDead(const PregelProgram &P, int I) const {
    return !SlotRead[I] && !P.NodeProps[I].Param;
  }
  size_t countDeadSlots(const PregelProgram &P) const;
  size_t countDeadMsgFields() const;
};

/// Runs all four analyses. The program must already be structurally valid
/// (verifyProgramStrict clean): the analyses index declaration tables
/// without re-checking bounds.
DataFlowInfo analyzeDataFlow(const PregelProgram &P);

/// Renders the facts as the human table behind `gmpc --analyze`.
std::string renderDataFlow(const PregelProgram &P, const DataFlowInfo &I);

} // namespace gm::pir

#endif // GM_ANALYSIS_DATAFLOW_H
