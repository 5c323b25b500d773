//===-- Native VertexProgram for 'sssp' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-8bb6ae57078a826c
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

/// Straight-line native program for 'sssp' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-8bb6ae57078a826c";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(1, {ValueKind::Int}); // m0_n_to_s
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_dist.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "dist", NP_dist);
    NP_updated.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "updated", NP_updated);
    NP_dist_nxt.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "dist_nxt", NP_dist_nxt);
    exec::loadEdgeColumn(Args, "len", G.numEdges(), EP_len);
    exec::declareGlobalFromArgs(Master, Args, "root", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "fin", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red0", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red0_or", ReduceKind::Or, Value::makeBool(false));
    exec::declareGlobalFromArgs(Master, Args, "_is_first_s2", ReduceKind::None, Value::makeBool(true));
    CurState = 0;
    SetupPhase = 2;
    Finished = false;
    ReturnVal.reset();
  }
  
  void compute(pregel::VertexContext &Ctx) override {
    switch (CurState) {
      case 1:
        state1(Ctx);
        return;
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1_n>s2_n*s2_n_recv+s4_n+s5_n').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (GC__is_first_s2) {
      NP_dist[Ctx.id()] = (((int64_t)Ctx.id() == GC_root) ? INT64_C(0) : std::numeric_limits<int64_t>::max());
      NP_updated[Ctx.id()] = (((int64_t)Ctx.id() == GC_root) ? true : false) ? 1 : 0;
      NP_dist_nxt[Ctx.id()] = NP_dist[Ctx.id()];
    }
    if ((!GC__is_first_s2)) {
      for (pregel::MsgRef M0 : Ctx.messages()) {
        if (M0.type() != 1) {
          continue;
        }
        NP_dist_nxt[Ctx.id()] = std::min(NP_dist_nxt[Ctx.id()], M0.getInt(0));
      }
      if ((NP_dist_nxt[Ctx.id()] < NP_dist[Ctx.id()])) {
        NP_dist[Ctx.id()] = NP_dist_nxt[Ctx.id()];
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
        EdgeId E1 = G.outEdgeBegin(Ctx.id());
        for (NodeId Nbr2 : G.outNeighbors(Ctx.id())) {
          pregel::Message M3;
          M3.Type = 1;
          M3.push(Value::makeInt((NP_dist[Ctx.id()] + EP_len[E1])));
          Ctx.sendTo(Nbr2, M3);
          ++E1;
        }
      }
    }
  }
  
  void masterCompute(pregel::MasterContext &Master) override {
    int Target = -2;
    switch (CurState) {
      case 0:
        Target = trans0(Master);
        break;
      case 1:
        Target = trans1(Master);
        break;
      default:
        assert(false && "invalid state");
        break;
    }
    if (Target == -1) {
      Finished = true;
      FinalGlobals["root"] = Master.getGlobal("root");
      FinalGlobals["fin"] = Master.getGlobal("fin");
      FinalGlobals["_red0"] = Master.getGlobal("_red0");
      FinalGlobals["__red0_or"] = Master.getGlobal("__red0_or");
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
        Master.setGlobal("_is_first_s2", Value::makeBool(true));
        return -1;
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC_root = exec::globalAsInt(Master.getGlobal("root"));
    GC_fin = exec::globalAsBool(Master.getGlobal("fin"));
    GC__red0 = exec::globalAsBool(Master.getGlobal("_red0"));
    GC___red0_or = exec::globalAsBool(Master.getGlobal("__red0_or"));
    GC__is_first_s2 = exec::globalAsBool(Master.getGlobal("_is_first_s2"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "dist") {
      return Value::makeInt(NP_dist[N]);
    }
    if (Prop == "updated") {
      return Value::makeBool(NP_updated[N] != 0);
    }
    if (Prop == "dist_nxt") {
      return Value::makeInt(NP_dist_nxt[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<int64_t> NP_dist; ///< node property 'dist'
  std::vector<uint8_t> NP_updated; ///< node property 'updated'
  std::vector<int64_t> NP_dist_nxt; ///< node property 'dist_nxt'
  std::vector<int64_t> EP_len; ///< edge property 'len'
  int64_t GC_root = 0; ///< superstep cache of global 'root'
  bool GC_fin = false; ///< superstep cache of global 'fin'
  bool GC__red0 = false; ///< superstep cache of global '_red0'
  bool GC___red0_or = false; ///< superstep cache of global '__red0_or'
  bool GC__is_first_s2 = false; ///< superstep cache of global '_is_first_s2'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_sssp(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_sssp() {
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
