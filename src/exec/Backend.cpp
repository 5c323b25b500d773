//===- exec/Backend.cpp -----------------------------------------------------------===//

#include "exec/Backend.h"

#include "pregel/RuntimeTrace.h"
#include "pregelir/CppCodegen.h"
#include "support/Diagnostics.h"
#include "support/Trace.h"

using namespace gm;
using namespace gm::exec;

const char *gm::exec::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Interp:
    return "interp";
  case BackendKind::NativeRegistry:
    return "native-registry";
  case BackendKind::NativeJit:
    return "native-jit";
  }
  gm_unreachable("invalid backend kind");
}

Value BackendRun::nodeValue(const std::string &Prop, NodeId N) const {
  if (Compiled)
    return Compiled->nodeValue(Prop, N);
  assert(Interp && "run holds no program");
  return Interp->nodeProp(Prop).get(N);
}

Value BackendRun::globalValue(const std::string &Name) const {
  if (Compiled)
    return Compiled->globalValue(Name);
  assert(Interp && "run holds no program");
  return Interp->globalValue(Name);
}

std::optional<Value> BackendRun::returnValue() const {
  if (Compiled)
    return Compiled->returnValue();
  assert(Interp && "run holds no program");
  return Interp->returnValue();
}

bool BackendRun::finished() const {
  if (Compiled)
    return Compiled->finished();
  return Interp && Interp->finished();
}

BackendRun gm::exec::runProgramWithBackend(const pir::PregelProgram &P,
                                           const Graph &G, ExecArgs Args,
                                           pregel::Config Cfg) {
  BackendRun Run;
  if (Cfg.Backend == pregel::ExecBackend::Native) {
    std::string Why;
    {
      // Free when it hits: the registry holds the checked-in generated
      // sources built into this binary, keyed by IR fingerprint.
      trace::ScopedSpan Span(0, "registry-lookup", pregel::tracecat::Setup);
      Run.Compiled = createCompiled(P, G, Args);
    }
    if (Run.Compiled) {
      Run.Used = BackendKind::NativeRegistry;
    } else {
      std::string Source;
      {
        trace::ScopedSpan Span(0, "cpp-codegen", pregel::tracecat::Setup);
        Source = pir::emitCpp(P);
      }
      if (Source.empty()) {
        Why = "program uses constructs outside the native subset";
      } else {
        trace::ScopedSpan Span(0, "native-compile", pregel::tracecat::Setup);
        Run.Module = NativeModule::compileAndLoad(Source, &Why);
      }
      if (Run.Module &&
          pir::programFingerprint(P) != Run.Module->fingerprint()) {
        // Paranoia against loader-level mixups (e.g. symbol interposition
        // binding the module to a different program's code).
        Why = "loaded module reports fingerprint " +
              std::string(Run.Module->fingerprint()) +
              ", expected " + pir::programFingerprint(P);
        Run.Module.reset();
      }
      if (Run.Module) {
        Run.Compiled = Run.Module->create(G, Args);
        Run.Used = BackendKind::NativeJit;
      }
    }
    if (Run.Compiled) {
      pregel::Engine Engine(G, Cfg);
      Run.Stats = Engine.run(*Run.Compiled);
      return Run;
    }
    if (Cfg.Diags)
      Cfg.Diags->warning({}, "native backend unavailable (" + Why +
                                 "); falling back to the interpreter");
  }
  Run.Used = BackendKind::Interp;
  Run.Stats = runProgram(P, G, std::move(Args), Cfg, &Run.Interp);
  return Run;
}
