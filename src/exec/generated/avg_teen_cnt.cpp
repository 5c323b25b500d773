//===-- Native VertexProgram for 'avg_teen_cnt' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-63657a6946473487
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

/// Straight-line native program for 'avg_teen_cnt' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-63657a6946473487";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(1, {}); // m0_t_to_n
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_age.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "age", NP_age);
    NP_teen_cnt.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "teen_cnt", NP_teen_cnt);
    NP__tmp__red01.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "_tmp__red01", NP__tmp__red01);
    exec::declareGlobalFromArgs(Master, Args, "K", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_ret", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "S", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "C", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_S_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "_C_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "avg", ReduceKind::None, Value());
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
      case 2:
        state2(Ctx);
        return;
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1_n+s2_t').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    NP__tmp__red01[Ctx.id()] = INT64_C(0);
    if (((NP_age[Ctx.id()] >= INT64_C(13)) && (NP_age[Ctx.id()] <= INT64_C(19)))) {
      {
        pregel::Message M0;
        M0.Type = 1;
        Ctx.sendToAllOutNeighbors(M0);
      }
    }
  }
  
  /// Vertex phase of state s2 ('s2_t_recv+s4_n+s5_n').
  void state2(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M1 : Ctx.messages()) {
      if (M1.type() != 1) {
        continue;
      }
      NP__tmp__red01[Ctx.id()] = NP__tmp__red01[Ctx.id()] + INT64_C(1);
    }
    NP_teen_cnt[Ctx.id()] = NP__tmp__red01[Ctx.id()];
    if ((NP_age[Ctx.id()] > GC_K)) {
      Ctx.putGlobal("_S_sum", Value::makeInt(NP__tmp__red01[Ctx.id()]));
      Ctx.putGlobal("_C_sum", Value::makeInt(INT64_C(1)));
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
      FinalGlobals["K"] = Master.getGlobal("K");
      FinalGlobals["_ret"] = Master.getGlobal("_ret");
      FinalGlobals["S"] = Master.getGlobal("S");
      FinalGlobals["C"] = Master.getGlobal("C");
      FinalGlobals["_S_sum"] = Master.getGlobal("_S_sum");
      FinalGlobals["_C_sum"] = Master.getGlobal("_C_sum");
      FinalGlobals["avg"] = Master.getGlobal("avg");
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
        Master.setPhaseLabel("s1:s1_n+s2_t");
        break;
      case 2:
        Master.setPhaseLabel("s2:s2_t_recv+s4_n+s5_n");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("S", Value::makeInt(INT64_C(0)));
    Master.setGlobal("C", Value::makeInt(INT64_C(0)));
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1_n+s2_t'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    return 2;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s2 ('s2_t_recv+s4_n+s5_n'); returns the next state id, -1 for END.
  int trans2(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("S", Value::makeInt((exec::globalAsInt(Master.getGlobal("S")) + exec::globalAsInt(Master.getGlobal("_S_sum")))));
    Master.setGlobal("_S_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("C", Value::makeInt((exec::globalAsInt(Master.getGlobal("C")) + exec::globalAsInt(Master.getGlobal("_C_sum")))));
    Master.setGlobal("_C_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("avg", Value::makeDouble(((exec::globalAsInt(Master.getGlobal("C")) == INT64_C(0)) ? 0.0 : ((double)exec::globalAsInt(Master.getGlobal("S")) / (double)exec::globalAsInt(Master.getGlobal("C"))))));
    Master.setGlobal("_ret", Value::makeDouble(exec::globalAsDouble(Master.getGlobal("avg"))));
    return -1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC_K = exec::globalAsInt(Master.getGlobal("K"));
    GC__ret = exec::globalAsDouble(Master.getGlobal("_ret"));
    GC_S = exec::globalAsInt(Master.getGlobal("S"));
    GC_C = exec::globalAsInt(Master.getGlobal("C"));
    GC__S_sum = exec::globalAsInt(Master.getGlobal("_S_sum"));
    GC__C_sum = exec::globalAsInt(Master.getGlobal("_C_sum"));
    GC_avg = exec::globalAsDouble(Master.getGlobal("avg"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "age") {
      return Value::makeInt(NP_age[N]);
    }
    if (Prop == "teen_cnt") {
      return Value::makeInt(NP_teen_cnt[N]);
    }
    if (Prop == "_tmp__red01") {
      return Value::makeInt(NP__tmp__red01[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<int64_t> NP_age; ///< node property 'age'
  std::vector<int64_t> NP_teen_cnt; ///< node property 'teen_cnt'
  std::vector<int64_t> NP__tmp__red01; ///< node property '_tmp__red01'
  int64_t GC_K = 0; ///< superstep cache of global 'K'
  double GC__ret = 0.0; ///< superstep cache of global '_ret'
  int64_t GC_S = 0; ///< superstep cache of global 'S'
  int64_t GC_C = 0; ///< superstep cache of global 'C'
  int64_t GC__S_sum = 0; ///< superstep cache of global '_S_sum'
  int64_t GC__C_sum = 0; ///< superstep cache of global '_C_sum'
  double GC_avg = 0.0; ///< superstep cache of global 'avg'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_avg_teen_cnt(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_avg_teen_cnt() {
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
