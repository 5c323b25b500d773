//===-- Native VertexProgram for 'pagerank' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-3aa95ae19b7dfdfa
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

/// Straight-line native program for 'pagerank' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-3aa95ae19b7dfdfa";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(1, {ValueKind::Double}); // m0_w_to_t
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_pg_rank.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "pg_rank", NP_pg_rank);
    NP__tmp__red12.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "_tmp__red12", NP__tmp__red12);
    NP__local_val.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "_local_val", NP__local_val);
    exec::declareGlobalFromArgs(Master, Args, "e", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "d", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "max_iter", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "diff", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "cnt", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "N", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_diff_sum", ReduceKind::Sum, Value::makeDouble(0.0));
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
  
  /// Vertex phase of state s1 ('s1__gn0>s2_t+s3_w*s3_w_recv+s5_t+s6_t').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (GC__is_first_s2) {
      NP_pg_rank[Ctx.id()] = ((double)INT64_C(1) / GC_N);
    }
    if ((!GC__is_first_s2)) {
      for (pregel::MsgRef M0 : Ctx.messages()) {
        if (M0.type() != 1) {
          continue;
        }
        NP__tmp__red12[Ctx.id()] = NP__tmp__red12[Ctx.id()] + M0.getDouble(0);
      }
      NP__local_val[Ctx.id()] = ((((double)INT64_C(1) - GC_d) / GC_N) + (GC_d * NP__tmp__red12[Ctx.id()]));
      Ctx.putGlobal("_diff_sum", Value::makeDouble(((NP__local_val[Ctx.id()] > NP_pg_rank[Ctx.id()]) ? (NP__local_val[Ctx.id()] - NP_pg_rank[Ctx.id()]) : (NP_pg_rank[Ctx.id()] - NP__local_val[Ctx.id()]))));
      NP_pg_rank[Ctx.id()] = NP__local_val[Ctx.id()];
    }
    NP__tmp__red12[Ctx.id()] = 0.0;
    {
      pregel::Message M1;
      M1.Type = 1;
      M1.push(Value::makeDouble((NP_pg_rank[Ctx.id()] / (double)(int64_t)G.outDegree(Ctx.id()))));
      Ctx.sendToAllOutNeighbors(M1);
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
      FinalGlobals["e"] = Master.getGlobal("e");
      FinalGlobals["d"] = Master.getGlobal("d");
      FinalGlobals["max_iter"] = Master.getGlobal("max_iter");
      FinalGlobals["diff"] = Master.getGlobal("diff");
      FinalGlobals["cnt"] = Master.getGlobal("cnt");
      FinalGlobals["N"] = Master.getGlobal("N");
      FinalGlobals["_diff_sum"] = Master.getGlobal("_diff_sum");
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
        Master.setPhaseLabel("s1:s1__gn0>s2_t+s3_w*s3_w_recv+s5_t+s6_t");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("diff", Value::makeDouble(0.0));
    Master.setGlobal("cnt", Value::makeInt(INT64_C(0)));
    Master.setGlobal("N", Value::makeDouble((double)(int64_t)G.numNodes()));
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1__gn0>s2_t+s3_w*s3_w_recv+s5_t+s6_t'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    if (exec::globalAsBool(Master.getGlobal("_is_first_s2"))) {
      Master.setGlobal("diff", Value::makeDouble(0.0));
      Master.setGlobal("_is_first_s2", Value::makeBool(false));
      return 1;
    }
    else {
      Master.setGlobal("diff", Value::makeDouble((exec::globalAsDouble(Master.getGlobal("diff")) + exec::globalAsDouble(Master.getGlobal("_diff_sum")))));
      Master.setGlobal("_diff_sum", Value::makeDouble(0.0));
      Master.setGlobal("cnt", Value::makeInt((exec::globalAsInt(Master.getGlobal("cnt")) + INT64_C(1))));
      if (((exec::globalAsDouble(Master.getGlobal("diff")) > exec::globalAsDouble(Master.getGlobal("e"))) && (exec::globalAsInt(Master.getGlobal("cnt")) < exec::globalAsInt(Master.getGlobal("max_iter"))))) {
        Master.setGlobal("diff", Value::makeDouble(0.0));
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
    GC_e = exec::globalAsDouble(Master.getGlobal("e"));
    GC_d = exec::globalAsDouble(Master.getGlobal("d"));
    GC_max_iter = exec::globalAsInt(Master.getGlobal("max_iter"));
    GC_diff = exec::globalAsDouble(Master.getGlobal("diff"));
    GC_cnt = exec::globalAsInt(Master.getGlobal("cnt"));
    GC_N = exec::globalAsDouble(Master.getGlobal("N"));
    GC__diff_sum = exec::globalAsDouble(Master.getGlobal("_diff_sum"));
    GC__is_first_s2 = exec::globalAsBool(Master.getGlobal("_is_first_s2"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "pg_rank") {
      return Value::makeDouble(NP_pg_rank[N]);
    }
    if (Prop == "_tmp__red12") {
      return Value::makeDouble(NP__tmp__red12[N]);
    }
    if (Prop == "_local_val") {
      return Value::makeDouble(NP__local_val[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<double> NP_pg_rank; ///< node property 'pg_rank'
  std::vector<double> NP__tmp__red12; ///< node property '_tmp__red12'
  std::vector<double> NP__local_val; ///< node property '_local_val'
  double GC_e = 0.0; ///< superstep cache of global 'e'
  double GC_d = 0.0; ///< superstep cache of global 'd'
  int64_t GC_max_iter = 0; ///< superstep cache of global 'max_iter'
  double GC_diff = 0.0; ///< superstep cache of global 'diff'
  int64_t GC_cnt = 0; ///< superstep cache of global 'cnt'
  double GC_N = 0.0; ///< superstep cache of global 'N'
  double GC__diff_sum = 0.0; ///< superstep cache of global '_diff_sum'
  bool GC__is_first_s2 = false; ///< superstep cache of global '_is_first_s2'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_pagerank(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_pagerank() {
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
