//===-- Native VertexProgram for 'conductance' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-b66ac8b499c4fc3b
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

/// Straight-line native program for 'conductance' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-b66ac8b499c4fc3b";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(1, {}); // m0_u_to_j
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_member.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "member", NP_member);
    NP__tmp__red34.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "_tmp__red34", NP__tmp__red34);
    exec::declareGlobalFromArgs(Master, Args, "num", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_ret", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red0", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red0_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "Din", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red1", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red1_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "Dout", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red2", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red2_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "Cross", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "m", ReduceKind::None, Value());
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
  
  /// Vertex phase of state s1 ('s1_u+s2_u+s3_j+s4_u').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if ((NP_member[Ctx.id()] == GC_num)) {
      Ctx.putGlobal("__red0_sum", Value::makeInt((int64_t)G.outDegree(Ctx.id())));
    }
    if ((NP_member[Ctx.id()] != GC_num)) {
      Ctx.putGlobal("__red1_sum", Value::makeInt((int64_t)G.outDegree(Ctx.id())));
    }
    if ((NP_member[Ctx.id()] != GC_num)) {
      NP__tmp__red34[Ctx.id()] = INT64_C(0);
    }
    if ((NP_member[Ctx.id()] == GC_num)) {
      {
        pregel::Message M0;
        M0.Type = 1;
        Ctx.sendToAllOutNeighbors(M0);
      }
    }
  }
  
  /// Vertex phase of state s2 ('s4_u_recv+s6_j').
  void state2(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M1 : Ctx.messages()) {
      if (M1.type() != 1) {
        continue;
      }
      if ((NP_member[Ctx.id()] != GC_num)) {
        NP__tmp__red34[Ctx.id()] = NP__tmp__red34[Ctx.id()] + INT64_C(1);
      }
    }
    if ((NP_member[Ctx.id()] != GC_num)) {
      Ctx.putGlobal("__red2_sum", Value::makeInt(NP__tmp__red34[Ctx.id()]));
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
      FinalGlobals["num"] = Master.getGlobal("num");
      FinalGlobals["_ret"] = Master.getGlobal("_ret");
      FinalGlobals["_red0"] = Master.getGlobal("_red0");
      FinalGlobals["__red0_sum"] = Master.getGlobal("__red0_sum");
      FinalGlobals["Din"] = Master.getGlobal("Din");
      FinalGlobals["_red1"] = Master.getGlobal("_red1");
      FinalGlobals["__red1_sum"] = Master.getGlobal("__red1_sum");
      FinalGlobals["Dout"] = Master.getGlobal("Dout");
      FinalGlobals["_red2"] = Master.getGlobal("_red2");
      FinalGlobals["__red2_sum"] = Master.getGlobal("__red2_sum");
      FinalGlobals["Cross"] = Master.getGlobal("Cross");
      FinalGlobals["m"] = Master.getGlobal("m");
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
        Master.setPhaseLabel("s1:s1_u+s2_u+s3_j+s4_u");
        break;
      case 2:
        Master.setPhaseLabel("s2:s4_u_recv+s6_j");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_red0", Value::makeInt(INT64_C(0)));
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1_u+s2_u+s3_j+s4_u'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_red0", Value::makeInt((exec::globalAsInt(Master.getGlobal("_red0")) + exec::globalAsInt(Master.getGlobal("__red0_sum")))));
    Master.setGlobal("__red0_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("Din", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red0"))));
    Master.setGlobal("_red1", Value::makeInt(INT64_C(0)));
    Master.setGlobal("_red1", Value::makeInt((exec::globalAsInt(Master.getGlobal("_red1")) + exec::globalAsInt(Master.getGlobal("__red1_sum")))));
    Master.setGlobal("__red1_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("Dout", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red1"))));
    Master.setGlobal("_red2", Value::makeInt(INT64_C(0)));
    return 2;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s2 ('s4_u_recv+s6_j'); returns the next state id, -1 for END.
  int trans2(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_red2", Value::makeInt((exec::globalAsInt(Master.getGlobal("_red2")) + exec::globalAsInt(Master.getGlobal("__red2_sum")))));
    Master.setGlobal("__red2_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("Cross", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red2"))));
    Master.setGlobal("m", Value::makeDouble(((exec::globalAsInt(Master.getGlobal("Din")) < exec::globalAsInt(Master.getGlobal("Dout"))) ? (double)exec::globalAsInt(Master.getGlobal("Din")) : (double)exec::globalAsInt(Master.getGlobal("Dout")))));
    if ((exec::globalAsDouble(Master.getGlobal("m")) == 0.0)) {
      Master.setGlobal("_ret", Value::makeDouble(((exec::globalAsInt(Master.getGlobal("Cross")) == INT64_C(0)) ? 0.0 : std::numeric_limits<double>::infinity())));
      return -1;
    }
    else {
      Master.setGlobal("_ret", Value::makeDouble(((double)exec::globalAsInt(Master.getGlobal("Cross")) / exec::globalAsDouble(Master.getGlobal("m")))));
      return -1;
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC_num = exec::globalAsInt(Master.getGlobal("num"));
    GC__ret = exec::globalAsDouble(Master.getGlobal("_ret"));
    GC__red0 = exec::globalAsInt(Master.getGlobal("_red0"));
    GC___red0_sum = exec::globalAsInt(Master.getGlobal("__red0_sum"));
    GC_Din = exec::globalAsInt(Master.getGlobal("Din"));
    GC__red1 = exec::globalAsInt(Master.getGlobal("_red1"));
    GC___red1_sum = exec::globalAsInt(Master.getGlobal("__red1_sum"));
    GC_Dout = exec::globalAsInt(Master.getGlobal("Dout"));
    GC__red2 = exec::globalAsInt(Master.getGlobal("_red2"));
    GC___red2_sum = exec::globalAsInt(Master.getGlobal("__red2_sum"));
    GC_Cross = exec::globalAsInt(Master.getGlobal("Cross"));
    GC_m = exec::globalAsDouble(Master.getGlobal("m"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "member") {
      return Value::makeInt(NP_member[N]);
    }
    if (Prop == "_tmp__red34") {
      return Value::makeInt(NP__tmp__red34[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<int64_t> NP_member; ///< node property 'member'
  std::vector<int64_t> NP__tmp__red34; ///< node property '_tmp__red34'
  int64_t GC_num = 0; ///< superstep cache of global 'num'
  double GC__ret = 0.0; ///< superstep cache of global '_ret'
  int64_t GC__red0 = 0; ///< superstep cache of global '_red0'
  int64_t GC___red0_sum = 0; ///< superstep cache of global '__red0_sum'
  int64_t GC_Din = 0; ///< superstep cache of global 'Din'
  int64_t GC__red1 = 0; ///< superstep cache of global '_red1'
  int64_t GC___red1_sum = 0; ///< superstep cache of global '__red1_sum'
  int64_t GC_Dout = 0; ///< superstep cache of global 'Dout'
  int64_t GC__red2 = 0; ///< superstep cache of global '_red2'
  int64_t GC___red2_sum = 0; ///< superstep cache of global '__red2_sum'
  int64_t GC_Cross = 0; ///< superstep cache of global 'Cross'
  double GC_m = 0.0; ///< superstep cache of global 'm'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_conductance(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_conductance() {
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
