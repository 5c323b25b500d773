//===-- Native VertexProgram for 'bipartite_matching' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-707eb8ab2b4fc866
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

/// Straight-line native program for 'bipartite_matching' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-707eb8ab2b4fc866";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(1, {ValueKind::Int}); // m0_b_to_g
    L.addType(2, {ValueKind::Int}); // m1_rw_suitor
    L.addType(3, {ValueKind::Int}); // m2_rw_match
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_is_left.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "is_left", NP_is_left);
    NP_match.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "match", NP_match);
    NP_suitor.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "suitor", NP_suitor);
    exec::declareGlobalFromArgs(Master, Args, "_ret", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "count", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "fin", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_count_sum", ReduceKind::Sum, Value::makeInt(INT64_C(0)));
    exec::declareGlobalFromArgs(Master, Args, "_fin_and", ReduceKind::And, Value::makeBool(true));
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
      case 2:
        state2(Ctx);
        return;
      case 3:
        state3(Ctx);
        return;
      case 4:
        state4(Ctx);
        return;
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1_n').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    NP_match[Ctx.id()] = INT64_C(-1);
    NP_suitor[Ctx.id()] = INT64_C(-1);
  }
  
  /// Vertex phase of state s2 ('s2_b*s6_b_recv').
  void state2(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if ((!GC__is_first_s2)) {
      for (pregel::MsgRef M0 : Ctx.messages()) {
        if (M0.type() != 3) {
          continue;
        }
        NP_match[Ctx.id()] = M0.getInt(0);
      }
    }
    if (((NP_is_left[Ctx.id()] != 0) && (NP_match[Ctx.id()] == INT64_C(-1)))) {
      {
        pregel::Message M1;
        M1.Type = 1;
        M1.push(Value::makeInt((int64_t)Ctx.id()));
        Ctx.sendToAllOutNeighbors(M1);
      }
    }
  }
  
  /// Vertex phase of state s3 ('s2_b_recv+s4_g').
  void state3(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M2 : Ctx.messages()) {
      if (M2.type() != 1) {
        continue;
      }
      if ((NP_match[Ctx.id()] == INT64_C(-1))) {
        NP_suitor[Ctx.id()] = M2.getInt(0);
      }
    }
    if ((((!(NP_is_left[Ctx.id()] != 0)) && (NP_match[Ctx.id()] == INT64_C(-1))) && (NP_suitor[Ctx.id()] != INT64_C(-1)))) {
      {
        const int64_t Target3 = NP_suitor[Ctx.id()];
        if (Target3 >= 0) {
          pregel::Message M4;
          M4.Type = 2;
          M4.push(Value::makeInt((int64_t)Ctx.id()));
          Ctx.sendTo((NodeId)Target3, M4);
        }
      }
      NP_suitor[Ctx.id()] = INT64_C(-1);
    }
  }
  
  /// Vertex phase of state s4 ('s4_g_recv+s6_b').
  void state4(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M5 : Ctx.messages()) {
      if (M5.type() != 2) {
        continue;
      }
      NP_suitor[Ctx.id()] = M5.getInt(0);
    }
    if ((((NP_is_left[Ctx.id()] != 0) && (NP_match[Ctx.id()] == INT64_C(-1))) && (NP_suitor[Ctx.id()] != INT64_C(-1)))) {
      NP_match[Ctx.id()] = NP_suitor[Ctx.id()];
      {
        const int64_t Target6 = NP_suitor[Ctx.id()];
        if (Target6 >= 0) {
          pregel::Message M7;
          M7.Type = 3;
          M7.push(Value::makeInt((int64_t)Ctx.id()));
          Ctx.sendTo((NodeId)Target6, M7);
        }
      }
      NP_suitor[Ctx.id()] = INT64_C(-1);
      Ctx.putGlobal("_count_sum", Value::makeInt(INT64_C(1)));
      Ctx.putGlobal("_fin_and", Value::makeBool(false));
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
      case 3:
        Target = trans3(Master);
        break;
      case 4:
        Target = trans4(Master);
        break;
      default:
        assert(false && "invalid state");
        break;
    }
    if (Target == -1) {
      Finished = true;
      ReturnVal = Master.getGlobal("_ret");
      FinalGlobals["_ret"] = Master.getGlobal("_ret");
      FinalGlobals["count"] = Master.getGlobal("count");
      FinalGlobals["fin"] = Master.getGlobal("fin");
      FinalGlobals["_count_sum"] = Master.getGlobal("_count_sum");
      FinalGlobals["_fin_and"] = Master.getGlobal("_fin_and");
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
        Master.setPhaseLabel("s1:s1_n");
        break;
      case 2:
        Master.setPhaseLabel("s2:s2_b*s6_b_recv");
        break;
      case 3:
        Master.setPhaseLabel("s3:s2_b_recv+s4_g");
        break;
      case 4:
        Master.setPhaseLabel("s4:s4_g_recv+s6_b");
        break;
      default:
        break;
    }
    refreshGlobals(Master);
  }
  
  /// State transition of s0 ('entry'); returns the next state id, -1 for END.
  int trans0(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("count", Value::makeInt(INT64_C(0)));
    Master.setGlobal("fin", Value::makeBool(false));
    return 1;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s1 ('s1_n'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    if ((!exec::globalAsBool(Master.getGlobal("fin")))) {
      Master.setGlobal("fin", Value::makeBool(true));
      return 2;
    }
    else {
      Master.setGlobal("_ret", Value::makeInt(exec::globalAsInt(Master.getGlobal("count"))));
      return -1;
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s2 ('s2_b*s6_b_recv'); returns the next state id, -1 for END.
  int trans2(pregel::MasterContext &Master) {
    (void)Master;
    if (exec::globalAsBool(Master.getGlobal("_is_first_s2"))) {
      Master.setGlobal("_is_first_s2", Value::makeBool(false));
      return 3;
    }
    else {
      if ((!exec::globalAsBool(Master.getGlobal("fin")))) {
        Master.setGlobal("fin", Value::makeBool(true));
        Master.setGlobal("_is_first_s2", Value::makeBool(false));
        return 3;
      }
      else {
        Master.setGlobal("_ret", Value::makeInt(exec::globalAsInt(Master.getGlobal("count"))));
        Master.setGlobal("_is_first_s2", Value::makeBool(true));
        return -1;
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s3 ('s2_b_recv+s4_g'); returns the next state id, -1 for END.
  int trans3(pregel::MasterContext &Master) {
    (void)Master;
    return 4;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s4 ('s4_g_recv+s6_b'); returns the next state id, -1 for END.
  int trans4(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("count", Value::makeInt((exec::globalAsInt(Master.getGlobal("count")) + exec::globalAsInt(Master.getGlobal("_count_sum")))));
    Master.setGlobal("_count_sum", Value::makeInt(INT64_C(0)));
    Master.setGlobal("fin", Value::makeBool((exec::globalAsBool(Master.getGlobal("fin")) && exec::globalAsBool(Master.getGlobal("_fin_and")))));
    Master.setGlobal("_fin_and", Value::makeBool(true));
    return 2;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC__ret = exec::globalAsInt(Master.getGlobal("_ret"));
    GC_count = exec::globalAsInt(Master.getGlobal("count"));
    GC_fin = exec::globalAsBool(Master.getGlobal("fin"));
    GC__count_sum = exec::globalAsInt(Master.getGlobal("_count_sum"));
    GC__fin_and = exec::globalAsBool(Master.getGlobal("_fin_and"));
    GC__is_first_s2 = exec::globalAsBool(Master.getGlobal("_is_first_s2"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "is_left") {
      return Value::makeBool(NP_is_left[N] != 0);
    }
    if (Prop == "match") {
      return Value::makeInt(NP_match[N]);
    }
    if (Prop == "suitor") {
      return Value::makeInt(NP_suitor[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<uint8_t> NP_is_left; ///< node property 'is_left'
  std::vector<int64_t> NP_match; ///< node property 'match'
  std::vector<int64_t> NP_suitor; ///< node property 'suitor'
  int64_t GC__ret = 0; ///< superstep cache of global '_ret'
  int64_t GC_count = 0; ///< superstep cache of global 'count'
  bool GC_fin = false; ///< superstep cache of global 'fin'
  int64_t GC__count_sum = 0; ///< superstep cache of global '_count_sum'
  bool GC__fin_and = false; ///< superstep cache of global '_fin_and'
  bool GC__is_first_s2 = false; ///< superstep cache of global '_is_first_s2'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_bipartite_matching(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_bipartite_matching() {
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
