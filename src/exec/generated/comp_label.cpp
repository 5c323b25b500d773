//===-- Native VertexProgram for 'comp_label' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-f43201196fc3185c
//
//===----------------------------------------------------------------------===//

#include "exec/CompiledProgram.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

namespace {

using namespace gm;

/// Straight-line native program for 'comp_label' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-f43201196fc3185c";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(0, {ValueKind::Int}); // in-neighbor setup broadcast
    L.addType(1, {ValueKind::Int}); // m0_n_to_t
    L.addType(2, {ValueKind::Int}); // m1_n_to_s
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_comp.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "comp", NP_comp);
    NP_comp_nxt.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "comp_nxt", NP_comp_nxt);
    NP_updated.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "updated", NP_updated);
    exec::declareGlobalFromArgs(Master, Args, "_ret", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "fin", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red0", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red0_or", ReduceKind::Or, Value::makeBool(false));
    exec::declareGlobalFromArgs(Master, Args, "_red1", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red1_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "roots", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_is_first_s2", ReduceKind::None, Value::makeBool(true));
    CurState = 0;
    SetupPhase = 0;
    Finished = false;
    ReturnVal.reset();
  }
  
  void compute(pregel::VertexContext &Ctx) override {
    if (SetupPhase == 0) {
      // In-neighbor setup, step 1: broadcast own id along out-edges.
      pregel::Message M;
      M.Type = 0; // setup tag
      M.push(Value::makeInt(Ctx.id()));
      Ctx.sendToAllOutNeighbors(M);
      return;
    }
    if (SetupPhase == 1) {
      return; // setup step 2: in-neighbor indexes already exist
    }
    switch (CurState) {
      case 1:
        state1(Ctx);
        return;
      case 2:
        state2(Ctx);
        return;
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1_n>s2_n*s2_n_recv+s4_n+s5_n').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (GC__is_first_s2) {
      NP_comp[Ctx.id()] = (int64_t)Ctx.id();
      NP_comp_nxt[Ctx.id()] = (int64_t)Ctx.id();
      NP_updated[Ctx.id()] = true ? 1 : 0;
    }
    if ((!GC__is_first_s2)) {
      for (pregel::MsgRef M0 : Ctx.messages()) {
        if (M0.type() != 1) {
          continue;
        }
        NP_comp_nxt[Ctx.id()] = std::min(NP_comp_nxt[Ctx.id()], M0.getInt(0));
      }
      for (pregel::MsgRef M1 : Ctx.messages()) {
        if (M1.type() != 2) {
          continue;
        }
        NP_comp_nxt[Ctx.id()] = std::min(NP_comp_nxt[Ctx.id()], M1.getInt(0));
      }
      if ((NP_comp_nxt[Ctx.id()] < NP_comp[Ctx.id()])) {
        NP_comp[Ctx.id()] = NP_comp_nxt[Ctx.id()];
        NP_updated[Ctx.id()] = true ? 1 : 0;
      }
      else {
        NP_updated[Ctx.id()] = false ? 1 : 0;
      }
      if ((NP_updated[Ctx.id()] != 0)) {
        Ctx.putGlobal("__red0_or", Value::makeBool(true));
      }
    }
    if ((NP_updated[Ctx.id()] != 0)) {
      {
        pregel::Message M2;
        M2.Type = 1;
        M2.push(Value::makeInt(NP_comp[Ctx.id()]));
        Ctx.sendToAllOutNeighbors(M2);
      }
      {
        pregel::Message M3;
        M3.Type = 2;
        M3.push(Value::makeInt(NP_comp[Ctx.id()]));
        for (NodeId Src4 : G.inNeighbors(Ctx.id())) {
          Ctx.sendTo(Src4, M3);
        }
      }
    }
  }
  
  /// Vertex phase of state s2 ('s6_n').
  void state2(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if ((NP_comp[Ctx.id()] == (int64_t)Ctx.id())) {
      Ctx.putGlobal("__red1_sum", Value::makeInt(INT64_C(1)));
    }
  }
  
  void masterCompute(pregel::MasterContext &Master) override {
    // In-neighbor setup preamble: supersteps 0/1 broadcast and
    // collect ids; the program's own state machine starts at 2.
    if (Master.superstep() == 0) {
      SetupPhase = 0;
      Master.setPhaseLabel("in-nbr-setup-0");
      refreshGlobals(Master);
      return;
    }
    if (Master.superstep() == 1) {
      SetupPhase = 1;
      Master.setPhaseLabel("in-nbr-setup-1");
      refreshGlobals(Master);
      return;
    }
    SetupPhase = 2;
    int Target = -2;
    switch (CurState) {
      case 0:
        Target = trans0(Master);
        break;
      case 1:
        Target = trans1(Master);
        break;
      case 2:
        Target = trans2(Master);
        break;
      default:
        assert(false && "invalid state");
        break;
    }
    if (Target == -1) {
      Finished = true;
      ReturnVal = Master.getGlobal("_ret");
      FinalGlobals["_ret"] = Master.getGlobal("_ret");
      FinalGlobals["fin"] = Master.getGlobal("fin");
      FinalGlobals["_red0"] = Master.getGlobal("_red0");
      FinalGlobals["__red0_or"] = Master.getGlobal("__red0_or");
      FinalGlobals["_red1"] = Master.getGlobal("_red1");
      FinalGlobals["__red1_sum"] = Master.getGlobal("__red1_sum");
      FinalGlobals["roots"] = Master.getGlobal("roots");
      FinalGlobals["_is_first_s2"] = Master.getGlobal("_is_first_s2");
      Master.haltAll();
      refreshGlobals(Master);
      return;
    }
    CurState = Target;
    // Trace annotation: the state whose vertex phase runs next.
    switch (CurState) {
      case 0:
        Master.setPhaseLabel("s0:entry");
        break;
      case 1:
        Master.setPhaseLabel("s1:s1_n>s2_n*s2_n_recv+s4_n+s5_n");
        break;
      case 2:
        Master.setPhaseLabel("s2:s6_n");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("fin", Value::makeBool(false));
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1_n>s2_n*s2_n_recv+s4_n+s5_n'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    if (exec::globalAsBool(Master.getGlobal("_is_first_s2"))) {
      Master.setGlobal("_is_first_s2", Value::makeBool(false));
      return 1;
    }
    else {
      Master.setGlobal("_red0", Value::makeBool(false));
      Master.setGlobal("_red0", Value::makeBool((exec::globalAsBool(Master.getGlobal("_red0")) || exec::globalAsBool(Master.getGlobal("__red0_or")))));
      Master.setGlobal("__red0_or", Value::makeBool(false));
      Master.setGlobal("fin", Value::makeBool((!exec::globalAsBool(Master.getGlobal("_red0")))));
      if ((!exec::globalAsBool(Master.getGlobal("fin")))) {
        Master.setGlobal("_is_first_s2", Value::makeBool(false));
        return 1;
      }
      else {
        Master.setGlobal("_red1", Value::makeInt(INT64_C(0)));
        Master.setGlobal("_is_first_s2", Value::makeBool(true));
        return 2;
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s2 ('s6_n'); returns the next state id, -1 for END.
  int trans2(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_red1", Value::makeInt((exec::globalAsInt(Master.getGlobal("_red1")) + exec::globalAsInt(Master.getGlobal("__red1_sum")))));
    Master.setGlobal("__red1_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("roots", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red1"))));
    Master.setGlobal("_ret", Value::makeInt(exec::globalAsInt(Master.getGlobal("roots"))));
    return -1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC__ret = exec::globalAsInt(Master.getGlobal("_ret"));
    GC_fin = exec::globalAsBool(Master.getGlobal("fin"));
    GC__red0 = exec::globalAsBool(Master.getGlobal("_red0"));
    GC___red0_or = exec::globalAsBool(Master.getGlobal("__red0_or"));
    GC__red1 = exec::globalAsInt(Master.getGlobal("_red1"));
    GC___red1_sum = exec::globalAsInt(Master.getGlobal("__red1_sum"));
    GC_roots = exec::globalAsInt(Master.getGlobal("roots"));
    GC__is_first_s2 = exec::globalAsBool(Master.getGlobal("_is_first_s2"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "comp") {
      return Value::makeInt(NP_comp[N]);
    }
    if (Prop == "comp_nxt") {
      return Value::makeInt(NP_comp_nxt[N]);
    }
    if (Prop == "updated") {
      return Value::makeBool(NP_updated[N] != 0);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<int64_t> NP_comp; ///< node property 'comp'
  std::vector<int64_t> NP_comp_nxt; ///< node property 'comp_nxt'
  std::vector<uint8_t> NP_updated; ///< node property 'updated'
  int64_t GC__ret = 0; ///< superstep cache of global '_ret'
  bool GC_fin = false; ///< superstep cache of global 'fin'
  bool GC__red0 = false; ///< superstep cache of global '_red0'
  bool GC___red0_or = false; ///< superstep cache of global '__red0_or'
  int64_t GC__red1 = 0; ///< superstep cache of global '_red1'
  int64_t GC___red1_sum = 0; ///< superstep cache of global '__red1_sum'
  int64_t GC_roots = 0; ///< superstep cache of global 'roots'
  bool GC__is_first_s2 = false; ///< superstep cache of global '_is_first_s2'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_comp_label(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_comp_label() {
  return Program::Fingerprint;
}

#ifdef GM_COMPILED_SHARED_OBJECT
// Fixed-name entry points for the dlopen loader (exec::NativeModule).
// They construct the internal-linkage Program class directly: routing
// through the named symbol above would let ELF interposition resolve it
// against a same-named registry program in the host binary.
extern "C" gm::exec::CompiledProgram *
gm_compiled_create(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint() {
  return Program::Fingerprint;
}
#endif // GM_COMPILED_SHARED_OBJECT
