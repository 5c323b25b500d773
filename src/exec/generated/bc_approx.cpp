//===-- Native VertexProgram for 'bc_approx' -------------------*- C++ -*-===//
//
// Generated by the PregelIR C++ backend (gmpc --emit-cpp). DO NOT EDIT:
// regenerate with  gmpc <source>.gm --emit-cpp <this file>  (the tier-1
// codegen_golden_check test compares checked-in files against fresh output).
//
// Fingerprint: gm0-3c264c56e0bba132
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

/// Straight-line native program for 'bc_approx' (see docs/codegen.md).
class Program final : public exec::CompiledProgram {
public:
  Program(const Graph &G, exec::ExecArgs Args)
      : G(G), Args(std::move(Args)) {}
  
  static constexpr const char *Fingerprint = "gm0-3c264c56e0bba132";
  
  const char *fingerprint() const override { return Fingerprint; }
  
  /// pir::deriveMessageLayout of the source IR, baked in.
  pregel::MessageLayout messageLayout() const override {
    pregel::MessageLayout L;
    L.addType(0, {ValueKind::Int}); // in-neighbor setup broadcast
    L.addType(1, {ValueKind::Double}); // m0_w_to_v
    L.addType(2, {}); // m1__ev_lev3_to__et_lev3
    L.addType(3, {ValueKind::Double, ValueKind::Double}); // m2_w_to_v
    return L;
  }
  
  void init(const Graph &G2, pregel::MasterContext &Master) override {
    assert(&G2 == &G && "program bound to a different graph");
    (void)G2;
    NP_BC.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "BC", NP_BC);
    NP_sigma.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "sigma", NP_sigma);
    NP_delta.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "delta", NP_delta);
    NP__lev3.assign(G.numNodes(), 0);
    exec::loadNodeColumn(Args, "_lev3", NP__lev3);
    NP__tmp__red17.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "_tmp__red17", NP__tmp__red17);
    NP__tmp__red28.assign(G.numNodes(), 0.0);
    exec::loadNodeColumn(Args, "_tmp__red28", NP__tmp__red28);
    exec::declareGlobalFromArgs(Master, Args, "K", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "k", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "s", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_root4", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_fin5", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "_curr6", ReduceKind::None, Value());
    exec::declareGlobalFromArgs(Master, Args, "__fin5_and", ReduceKind::And, Value::makeBool(true));
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
      case 3:
        state3(Ctx);
        return;
      case 4:
        state4(Ctx);
        return;
      case 5:
        state5(Ctx);
        return;
      case 6:
        state6(Ctx);
        return;
      case 7:
        state7(Ctx);
        return;
      case 8:
        state8(Ctx);
        return;
      default:
        return; // states without vertex code
    }
  }
  
  /// Vertex phase of state s1 ('s1__gn0').
  void state1(pregel::VertexContext &Ctx) {
    (void)Ctx;
    NP_BC[Ctx.id()] = 0.0;
  }
  
  /// Vertex phase of state s2 ('s2_n+s3__bi_lev3').
  void state2(pregel::VertexContext &Ctx) {
    (void)Ctx;
    NP_sigma[Ctx.id()] = (((int64_t)Ctx.id() == GC_s) ? 1.0 : 0.0);
    NP_delta[Ctx.id()] = 0.0;
    NP__lev3[Ctx.id()] = std::numeric_limits<int64_t>::max();
  }
  
  /// Vertex phase of state s3 ('s4__ra0').
  void state3(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (((int64_t)Ctx.id() == GC__root4)) {
      NP__lev3[Ctx.id()] = INT64_C(0);
    }
  }
  
  /// Vertex phase of state s4 ('s5_v+s6_w').
  void state4(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
      NP__tmp__red17[Ctx.id()] = 0.0;
    }
    if ((NP__lev3[Ctx.id()] == (GC__curr6 - INT64_C(1)))) {
      {
        pregel::Message M0;
        M0.Type = 1;
        M0.push(Value::makeDouble(NP_sigma[Ctx.id()]));
        Ctx.sendToAllOutNeighbors(M0);
      }
    }
  }
  
  /// Vertex phase of state s5 ('s6_w_recv+s8_v+s9__ev_lev3').
  void state5(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M1 : Ctx.messages()) {
      if (M1.type() != 1) {
        continue;
      }
      if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
        NP__tmp__red17[Ctx.id()] = NP__tmp__red17[Ctx.id()] + M1.getDouble(0);
      }
    }
    if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
      NP_sigma[Ctx.id()] = NP__tmp__red17[Ctx.id()];
    }
    if ((NP__lev3[Ctx.id()] == GC__curr6)) {
      {
        pregel::Message M2;
        M2.Type = 2;
        Ctx.sendToAllOutNeighbors(M2);
      }
    }
  }
  
  /// Vertex phase of state s6 ('s9__ev_lev3_recv').
  void state6(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M3 : Ctx.messages()) {
      if (M3.type() != 2) {
        continue;
      }
      if ((NP__lev3[Ctx.id()] == std::numeric_limits<int64_t>::max())) {
        NP__lev3[Ctx.id()] = std::min(NP__lev3[Ctx.id()], (GC__curr6 + INT64_C(1)));
        Ctx.putGlobal("__fin5_and", Value::makeBool(false));
      }
    }
  }
  
  /// Vertex phase of state s7 ('s11_v+s12_w').
  void state7(pregel::VertexContext &Ctx) {
    (void)Ctx;
    if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
      NP__tmp__red28[Ctx.id()] = 0.0;
    }
    if ((NP__lev3[Ctx.id()] == (GC__curr6 + INT64_C(1)))) {
      {
        pregel::Message M4;
        M4.Type = 3;
        M4.push(Value::makeDouble(NP_sigma[Ctx.id()]));
        M4.push(Value::makeDouble((1.0 + NP_delta[Ctx.id()])));
        for (NodeId Src5 : G.inNeighbors(Ctx.id())) {
          Ctx.sendTo(Src5, M4);
        }
      }
    }
  }
  
  /// Vertex phase of state s8 ('s12_w_recv+s14_v').
  void state8(pregel::VertexContext &Ctx) {
    (void)Ctx;
    for (pregel::MsgRef M6 : Ctx.messages()) {
      if (M6.type() != 3) {
        continue;
      }
      if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
        NP__tmp__red28[Ctx.id()] = NP__tmp__red28[Ctx.id()] + ((NP_sigma[Ctx.id()] / M6.getDouble(0)) * M6.getDouble(1));
      }
    }
    if (((NP__lev3[Ctx.id()] == GC__curr6) && ((int64_t)Ctx.id() != GC_s))) {
      NP_delta[Ctx.id()] = NP__tmp__red28[Ctx.id()];
      NP_BC[Ctx.id()] = NP_BC[Ctx.id()] + NP__tmp__red28[Ctx.id()];
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
      case 3:
        Target = trans3(Master);
        break;
      case 4:
        Target = trans4(Master);
        break;
      case 5:
        Target = trans5(Master);
        break;
      case 6:
        Target = trans6(Master);
        break;
      case 7:
        Target = trans7(Master);
        break;
      case 8:
        Target = trans8(Master);
        break;
      default:
        assert(false && "invalid state");
        break;
    }
    if (Target == -1) {
      Finished = true;
      FinalGlobals["K"] = Master.getGlobal("K");
      FinalGlobals["k"] = Master.getGlobal("k");
      FinalGlobals["s"] = Master.getGlobal("s");
      FinalGlobals["_root4"] = Master.getGlobal("_root4");
      FinalGlobals["_fin5"] = Master.getGlobal("_fin5");
      FinalGlobals["_curr6"] = Master.getGlobal("_curr6");
      FinalGlobals["__fin5_and"] = Master.getGlobal("__fin5_and");
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
        Master.setPhaseLabel("s1:s1__gn0");
        break;
      case 2:
        Master.setPhaseLabel("s2:s2_n+s3__bi_lev3");
        break;
      case 3:
        Master.setPhaseLabel("s3:s4__ra0");
        break;
      case 4:
        Master.setPhaseLabel("s4:s5_v+s6_w");
        break;
      case 5:
        Master.setPhaseLabel("s5:s6_w_recv+s8_v+s9__ev_lev3");
        break;
      case 6:
        Master.setPhaseLabel("s6:s9__ev_lev3_recv");
        break;
      case 7:
        Master.setPhaseLabel("s7:s11_v+s12_w");
        break;
      case 8:
        Master.setPhaseLabel("s8:s12_w_recv+s14_v");
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
  
  /// State transition of s1 ('s1__gn0'); returns the next state id, -1 for END.
  int trans1(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("k", Value::makeInt(INT64_C(0)));
    if ((exec::globalAsInt(Master.getGlobal("k")) < exec::globalAsInt(Master.getGlobal("K")))) {
      Master.setGlobal("s", Value::makeInt((int64_t)Master.pickRandomNode()));
      return 2;
    }
    else {
      return -1;
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s2 ('s2_n+s3__bi_lev3'); returns the next state id, -1 for END.
  int trans2(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_root4", Value::makeInt(exec::globalAsInt(Master.getGlobal("s"))));
    return 3;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s3 ('s4__ra0'); returns the next state id, -1 for END.
  int trans3(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_fin5", Value::makeBool(false));
    Master.setGlobal("_curr6", Value::makeInt(INT64_C(0)));
    if ((!exec::globalAsBool(Master.getGlobal("_fin5")))) {
      Master.setGlobal("_fin5", Value::makeBool(true));
      return 4;
    }
    else {
      Master.setGlobal("_curr6", Value::makeInt((exec::globalAsInt(Master.getGlobal("_curr6")) + INT64_C(-1))));
      if ((exec::globalAsInt(Master.getGlobal("_curr6")) >= INT64_C(0))) {
        return 7;
      }
      else {
        Master.setGlobal("k", Value::makeInt((exec::globalAsInt(Master.getGlobal("k")) + INT64_C(1))));
        if ((exec::globalAsInt(Master.getGlobal("k")) < exec::globalAsInt(Master.getGlobal("K")))) {
          Master.setGlobal("s", Value::makeInt((int64_t)Master.pickRandomNode()));
          return 2;
        }
        else {
          return -1;
        }
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s4 ('s5_v+s6_w'); returns the next state id, -1 for END.
  int trans4(pregel::MasterContext &Master) {
    (void)Master;
    return 5;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s5 ('s6_w_recv+s8_v+s9__ev_lev3'); returns the next state id, -1 for END.
  int trans5(pregel::MasterContext &Master) {
    (void)Master;
    return 6;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s6 ('s9__ev_lev3_recv'); returns the next state id, -1 for END.
  int trans6(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_fin5", Value::makeBool((exec::globalAsBool(Master.getGlobal("_fin5")) && exec::globalAsBool(Master.getGlobal("__fin5_and")))));
    Master.setGlobal("__fin5_and", Value::makeBool(true));
    Master.setGlobal("_curr6", Value::makeInt((exec::globalAsInt(Master.getGlobal("_curr6")) + INT64_C(1))));
    if ((!exec::globalAsBool(Master.getGlobal("_fin5")))) {
      Master.setGlobal("_fin5", Value::makeBool(true));
      return 4;
    }
    else {
      Master.setGlobal("_curr6", Value::makeInt((exec::globalAsInt(Master.getGlobal("_curr6")) + INT64_C(-1))));
      if ((exec::globalAsInt(Master.getGlobal("_curr6")) >= INT64_C(0))) {
        return 7;
      }
      else {
        Master.setGlobal("k", Value::makeInt((exec::globalAsInt(Master.getGlobal("k")) + INT64_C(1))));
        if ((exec::globalAsInt(Master.getGlobal("k")) < exec::globalAsInt(Master.getGlobal("K")))) {
          Master.setGlobal("s", Value::makeInt((int64_t)Master.pickRandomNode()));
          return 2;
        }
        else {
          return -1;
        }
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s7 ('s11_v+s12_w'); returns the next state id, -1 for END.
  int trans7(pregel::MasterContext &Master) {
    (void)Master;
    return 8;
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// State transition of s8 ('s12_w_recv+s14_v'); returns the next state id, -1 for END.
  int trans8(pregel::MasterContext &Master) {
    (void)Master;
    Master.setGlobal("_curr6", Value::makeInt((exec::globalAsInt(Master.getGlobal("_curr6")) + INT64_C(-1))));
    if ((exec::globalAsInt(Master.getGlobal("_curr6")) >= INT64_C(0))) {
      return 7;
    }
    else {
      Master.setGlobal("k", Value::makeInt((exec::globalAsInt(Master.getGlobal("k")) + INT64_C(1))));
      if ((exec::globalAsInt(Master.getGlobal("k")) < exec::globalAsInt(Master.getGlobal("K")))) {
        Master.setGlobal("s", Value::makeInt((int64_t)Master.pickRandomNode()));
        return 2;
      }
      else {
        return -1;
      }
    }
    assert(false && "transition did not reach a goto");
    return -1;
  }
  
  /// Re-caches every global for the next vertex phase; called at
  /// each masterCompute exit exactly like the interpreter's snapshot.
  void refreshGlobals(pregel::MasterContext &Master) {
    GC_K = exec::globalAsInt(Master.getGlobal("K"));
    GC_k = exec::globalAsInt(Master.getGlobal("k"));
    GC_s = exec::globalAsInt(Master.getGlobal("s"));
    GC__root4 = exec::globalAsInt(Master.getGlobal("_root4"));
    GC__fin5 = exec::globalAsBool(Master.getGlobal("_fin5"));
    GC__curr6 = exec::globalAsInt(Master.getGlobal("_curr6"));
    GC___fin5_and = exec::globalAsBool(Master.getGlobal("__fin5_and"));
  }
  
  Value nodeValue(const std::string &Prop, NodeId N) const override {
    if (Prop == "BC") {
      return Value::makeDouble(NP_BC[N]);
    }
    if (Prop == "sigma") {
      return Value::makeDouble(NP_sigma[N]);
    }
    if (Prop == "delta") {
      return Value::makeDouble(NP_delta[N]);
    }
    if (Prop == "_lev3") {
      return Value::makeInt(NP__lev3[N]);
    }
    if (Prop == "_tmp__red17") {
      return Value::makeDouble(NP__tmp__red17[N]);
    }
    if (Prop == "_tmp__red28") {
      return Value::makeDouble(NP__tmp__red28[N]);
    }
    assert(false && "unknown node property");
    return Value();
  }
  
private:
  const Graph &G;
  exec::ExecArgs Args;
  std::vector<double> NP_BC; ///< node property 'BC'
  std::vector<double> NP_sigma; ///< node property 'sigma'
  std::vector<double> NP_delta; ///< node property 'delta'
  std::vector<int64_t> NP__lev3; ///< node property '_lev3'
  std::vector<double> NP__tmp__red17; ///< node property '_tmp__red17'
  std::vector<double> NP__tmp__red28; ///< node property '_tmp__red28'
  int64_t GC_K = 0; ///< superstep cache of global 'K'
  int64_t GC_k = 0; ///< superstep cache of global 'k'
  int64_t GC_s = 0; ///< superstep cache of global 's'
  int64_t GC__root4 = 0; ///< superstep cache of global '_root4'
  bool GC__fin5 = false; ///< superstep cache of global '_fin5'
  int64_t GC__curr6 = 0; ///< superstep cache of global '_curr6'
  bool GC___fin5_and = false; ///< superstep cache of global '__fin5_and'
};

} // namespace

extern "C" gm::exec::CompiledProgram *
gm_compiled_create_bc_approx(const gm::Graph *G, gm::exec::ExecArgs *Args) {
  return new Program(*G, std::move(*Args));
}

extern "C" const char *gm_compiled_fingerprint_bc_approx() {
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
