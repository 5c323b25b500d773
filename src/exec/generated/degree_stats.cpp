//===-- Native VertexProgram for 'degree_stats' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-37c5c5304cf98ff1
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

/// Straight-line native program for 'degree_stats' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-37c5c5304cf98ff1";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_deg.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "deg", NP_deg);
    exec::declareGlobalFromArgs(Master, Args, "hub_bar", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_ret", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red0", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red0_max", ReduceKind::Max, Value::makeInt(std::numeric_limits<int64_t>::min()));
    exec::declareGlobalFromArgs(Master, Args, "mx", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red1", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red1_min", ReduceKind::Min, Value::makeInt(std::numeric_limits<int64_t>::max()));
    exec::declareGlobalFromArgs(Master, Args, "mn", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red2", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red2_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "isolated", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red3", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red3_or", ReduceKind::Or, Value::makeBool(false));
    exec::declareGlobalFromArgs(Master, Args, "any_hub", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_red4", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__red4_and", ReduceKind::And, Value::makeBool(true));
    exec::declareGlobalFromArgs(Master, Args, "all_connected", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_avg_s5", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_avg_c6", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__avg_s5_sum", ReduceKind::Sum, Value::makeDouble(0.0));
    exec::declareGlobalFromArgs(Master, Args, "__avg_c6_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
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
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1_n+s2_n+s3_n+s4_n+s5_n+s6_n+s7_n').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    NP_deg[Ctx.id()] = (int64_t)G.outDegree(Ctx.id());
    Ctx.putGlobal("__red0_max", Value::makeInt(NP_deg[Ctx.id()]));
    Ctx.putGlobal("__red1_min", Value::makeInt(NP_deg[Ctx.id()]));
    if ((NP_deg[Ctx.id()] == INT64_C(0))) {
      Ctx.putGlobal("__red2_sum", Value::makeInt(INT64_C(1)));
    }
    if ((NP_deg[Ctx.id()] > GC_hub_bar)) {
      Ctx.putGlobal("__red3_or", Value::makeBool(true));
    }
    Ctx.putGlobal("__red4_and", Value::makeBool((NP_deg[Ctx.id()] > INT64_C(0))));
    Ctx.putGlobal("__avg_s5_sum", Value::makeInt(NP_deg[Ctx.id()]));
    Ctx.putGlobal("__avg_c6_sum", Value::makeInt(INT64_C(1)));
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
      ReturnVal = Master.getGlobal("_ret");
      FinalGlobals["hub_bar"] = Master.getGlobal("hub_bar");
      FinalGlobals["_ret"] = Master.getGlobal("_ret");
      FinalGlobals["_red0"] = Master.getGlobal("_red0");
      FinalGlobals["__red0_max"] = Master.getGlobal("__red0_max");
      FinalGlobals["mx"] = Master.getGlobal("mx");
      FinalGlobals["_red1"] = Master.getGlobal("_red1");
      FinalGlobals["__red1_min"] = Master.getGlobal("__red1_min");
      FinalGlobals["mn"] = Master.getGlobal("mn");
      FinalGlobals["_red2"] = Master.getGlobal("_red2");
      FinalGlobals["__red2_sum"] = Master.getGlobal("__red2_sum");
      FinalGlobals["isolated"] = Master.getGlobal("isolated");
      FinalGlobals["_red3"] = Master.getGlobal("_red3");
      FinalGlobals["__red3_or"] = Master.getGlobal("__red3_or");
      FinalGlobals["any_hub"] = Master.getGlobal("any_hub");
      FinalGlobals["_red4"] = Master.getGlobal("_red4");
      FinalGlobals["__red4_and"] = Master.getGlobal("__red4_and");
      FinalGlobals["all_connected"] = Master.getGlobal("all_connected");
      FinalGlobals["_avg_s5"] = Master.getGlobal("_avg_s5");
      FinalGlobals["_avg_c6"] = Master.getGlobal("_avg_c6");
      FinalGlobals["__avg_s5_sum"] = Master.getGlobal("__avg_s5_sum");
      FinalGlobals["__avg_c6_sum"] = Master.getGlobal("__avg_c6_sum");
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
        Master.setPhaseLabel("s1:s1_n+s2_n+s3_n+s4_n+s5_n+s6_n+s7_n");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1_n+s2_n+s3_n+s4_n+s5_n+s6_n+s7_n'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_red0", Value::makeInt(INT64_C(-9223372036854775807)));
    Master.setGlobal("_red0", Value::makeInt(((exec::globalAsInt(Master.getGlobal("_red0")) > exec::globalAsInt(Master.getGlobal("__red0_max"))) ? exec::globalAsInt(Master.getGlobal("_red0")) : exec::globalAsInt(Master.getGlobal("__red0_max")))));
    Master.setGlobal("__red0_max", Value::makeInt(std::numeric_limits<int64_t>::min()));
    Master.setGlobal("mx", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red0"))));
    Master.setGlobal("_red1", Value::makeInt(std::numeric_limits<int64_t>::max()));
    Master.setGlobal("_red1", Value::makeInt(((exec::globalAsInt(Master.getGlobal("_red1")) < exec::globalAsInt(Master.getGlobal("__red1_min"))) ? exec::globalAsInt(Master.getGlobal("_red1")) : exec::globalAsInt(Master.getGlobal("__red1_min")))));
    Master.setGlobal("__red1_min", Value::makeInt(std::numeric_limits<int64_t>::max()));
    Master.setGlobal("mn", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red1"))));
    Master.setGlobal("_red2", Value::makeInt(INT64_C(0)));
    Master.setGlobal("_red2", Value::makeInt((exec::globalAsInt(Master.getGlobal("_red2")) + exec::globalAsInt(Master.getGlobal("__red2_sum")))));
    Master.setGlobal("__red2_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("isolated", Value::makeInt(exec::globalAsInt(Master.getGlobal("_red2"))));
    Master.setGlobal("_red3", Value::makeBool(false));
    Master.setGlobal("_red3", Value::makeBool((exec::globalAsBool(Master.getGlobal("_red3")) || exec::globalAsBool(Master.getGlobal("__red3_or")))));
    Master.setGlobal("__red3_or", Value::makeBool(false));
    Master.setGlobal("any_hub", Value::makeBool(exec::globalAsBool(Master.getGlobal("_red3"))));
    Master.setGlobal("_red4", Value::makeBool(true));
    Master.setGlobal("_red4", Value::makeBool((exec::globalAsBool(Master.getGlobal("_red4")) && exec::globalAsBool(Master.getGlobal("__red4_and")))));
    Master.setGlobal("__red4_and", Value::makeBool(true));
    Master.setGlobal("all_connected", Value::makeBool(exec::globalAsBool(Master.getGlobal("_red4"))));
    Master.setGlobal("_avg_s5", Value::makeDouble(0.0));
    Master.setGlobal("_avg_c6", Value::makeInt(INT64_C(0)));
    Master.setGlobal("_avg_s5", Value::makeDouble((exec::globalAsDouble(Master.getGlobal("_avg_s5")) + exec::globalAsDouble(Master.getGlobal("__avg_s5_sum")))));
    Master.setGlobal("__avg_s5_sum", Value::makeDouble(0.0));
    Master.setGlobal("_avg_c6", Value::makeInt((exec::globalAsInt(Master.getGlobal("_avg_c6")) + exec::globalAsInt(Master.getGlobal("__avg_c6_sum")))));
    Master.setGlobal("__avg_c6_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("avg", Value::makeDouble(((exec::globalAsInt(Master.getGlobal("_avg_c6")) == INT64_C(0)) ? 0.0 : (exec::globalAsDouble(Master.getGlobal("_avg_s5")) / (double)exec::globalAsInt(Master.getGlobal("_avg_c6"))))));
    Master.setGlobal("_ret", Value::makeDouble(exec::globalAsDouble(Master.getGlobal("avg"))));
    return -1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC_hub_bar = exec::globalAsInt(Master.getGlobal("hub_bar"));
    GC__ret = exec::globalAsDouble(Master.getGlobal("_ret"));
    GC__red0 = exec::globalAsInt(Master.getGlobal("_red0"));
    GC___red0_max = exec::globalAsInt(Master.getGlobal("__red0_max"));
    GC_mx = exec::globalAsInt(Master.getGlobal("mx"));
    GC__red1 = exec::globalAsInt(Master.getGlobal("_red1"));
    GC___red1_min = exec::globalAsInt(Master.getGlobal("__red1_min"));
    GC_mn = exec::globalAsInt(Master.getGlobal("mn"));
    GC__red2 = exec::globalAsInt(Master.getGlobal("_red2"));
    GC___red2_sum = exec::globalAsInt(Master.getGlobal("__red2_sum"));
    GC_isolated = exec::globalAsInt(Master.getGlobal("isolated"));
    GC__red3 = exec::globalAsBool(Master.getGlobal("_red3"));
    GC___red3_or = exec::globalAsBool(Master.getGlobal("__red3_or"));
    GC_any_hub = exec::globalAsBool(Master.getGlobal("any_hub"));
    GC__red4 = exec::globalAsBool(Master.getGlobal("_red4"));
    GC___red4_and = exec::globalAsBool(Master.getGlobal("__red4_and"));
    GC_all_connected = exec::globalAsBool(Master.getGlobal("all_connected"));
    GC__avg_s5 = exec::globalAsDouble(Master.getGlobal("_avg_s5"));
    GC__avg_c6 = exec::globalAsInt(Master.getGlobal("_avg_c6"));
    GC___avg_s5_sum = exec::globalAsDouble(Master.getGlobal("__avg_s5_sum"));
    GC___avg_c6_sum = exec::globalAsInt(Master.getGlobal("__avg_c6_sum"));
    GC_avg = exec::globalAsDouble(Master.getGlobal("avg"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "deg") {
      return Value::makeInt(NP_deg[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<int64_t> NP_deg; ///< node property 'deg'
  int64_t GC_hub_bar = 0; ///< superstep cache of global 'hub_bar'
  double GC__ret = 0.0; ///< superstep cache of global '_ret'
  int64_t GC__red0 = 0; ///< superstep cache of global '_red0'
  int64_t GC___red0_max = 0; ///< superstep cache of global '__red0_max'
  int64_t GC_mx = 0; ///< superstep cache of global 'mx'
  int64_t GC__red1 = 0; ///< superstep cache of global '_red1'
  int64_t GC___red1_min = 0; ///< superstep cache of global '__red1_min'
  int64_t GC_mn = 0; ///< superstep cache of global 'mn'
  int64_t GC__red2 = 0; ///< superstep cache of global '_red2'
  int64_t GC___red2_sum = 0; ///< superstep cache of global '__red2_sum'
  int64_t GC_isolated = 0; ///< superstep cache of global 'isolated'
  bool GC__red3 = false; ///< superstep cache of global '_red3'
  bool GC___red3_or = false; ///< superstep cache of global '__red3_or'
  bool GC_any_hub = false; ///< superstep cache of global 'any_hub'
  bool GC__red4 = false; ///< superstep cache of global '_red4'
  bool GC___red4_and = false; ///< superstep cache of global '__red4_and'
  bool GC_all_connected = false; ///< superstep cache of global 'all_connected'
  double GC__avg_s5 = 0.0; ///< superstep cache of global '_avg_s5'
  int64_t GC__avg_c6 = 0; ///< superstep cache of global '_avg_c6'
  double GC___avg_s5_sum = 0.0; ///< superstep cache of global '__avg_s5_sum'
  int64_t GC___avg_c6_sum = 0; ///< superstep cache of global '__avg_c6_sum'
  double GC_avg = 0.0; ///< superstep cache of global 'avg'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_degree_stats(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_degree_stats() {
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
