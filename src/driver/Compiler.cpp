//===- driver/Compiler.cpp -------------------------------------------------------===//

#include "driver/Compiler.h"

#include "analysis/CanonicalChecker.h"
#include "analysis/DataFlow.h"
#include "analysis/PIRLint.h"
#include "analysis/PIRVerifier.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "opt/DataFlowOpt.h"
#include "opt/Optimizer.h"
#include "support/PassStatistics.h"
#include "transform/Transforms.h"

#include <fstream>
#include <sstream>

using namespace gm;

CompileResult gm::compileGreenMarl(const std::string &Source,
                                   const CompileOptions &Options) {
  CompileResult R;
  R.Context = std::make_unique<ASTContext>();
  R.Diags = std::make_unique<DiagnosticEngine>();
  PassStatistics *Stats = Options.Stats;
  using Timer = PassStatistics::ScopedTimer;

  Parser P(Source, *R.Context, *R.Diags);
  Program Prog = [&] {
    Timer T(Stats, "parse");
    return P.parseProgram();
  }();
  if (R.Diags->hasErrors())
    return R;
  if (Prog.Procedures.empty()) {
    R.Diags->error(SourceLocation(), "no procedure found");
    return R;
  }

  ProcedureDecl *Proc = Options.ProcedureName.empty()
                            ? Prog.Procedures.front()
                            : Prog.findProcedure(Options.ProcedureName);
  if (!Proc) {
    R.Diags->error(SourceLocation(),
                   "procedure '" + Options.ProcedureName + "' not found");
    return R;
  }
  R.Proc = Proc;

  Sema S(*R.Context, *R.Diags);
  {
    Timer T(Stats, "sema");
    if (!S.check(Proc))
      return R;
  }

  // §4.1: transform towards Pregel-canonical form (per-pass timings are
  // recorded inside the pipeline; with VerifyEach each pass is followed by
  // an AST sanity check that names it on failure).
  if (!runTransformPipeline(Proc, *R.Context, *R.Diags, S.edgeBindings(),
                            &R.Features, Stats, Options.VerifyEach))
    if (R.Diags->hasErrors())
      return R;

  // The transformations may introduce new edge bindings? They never do,
  // but they do rewrite loops, so re-validate shape.
  {
    Timer T(Stats, "canonical-check");
    CanonicalChecker Checker(*R.Diags, S.edgeBindings());
    if (!Checker.check(Proc))
      return R;
  }

  // §3.1: direct translation.
  {
    Timer T(Stats, "translate");
    Translator T2(*R.Diags, S.edgeBindings(), &R.Features);
    R.Program = T2.translate(Proc);
  }
  if (!R.Program)
    return R;
  if (Stats) {
    Stats->setCounter("ir.states.pre-opt", R.Program->States.size());
    Stats->setCounter("ir.msg-types", R.Program->MsgTypes.size());
    Stats->setCounter("ir.globals", R.Program->Globals.size());
    Stats->setCounter("ir.node-props", R.Program->NodeProps.size());
  }

  // Re-verify the IR after each producing/rewriting pass; a failure names
  // the pass so the offending rewrite is immediately identifiable.
  auto VerifyAfter = [&](const char *Pass) {
    if (!Options.VerifyEach)
      return true;
    if (pir::verifyAfterPass(*R.Program, Pass, *R.Diags, Stats))
      return true;
    R.Program.reset();
    return false;
  };
  if (!VerifyAfter("translate"))
    return R;

  // §4.2: optimizations.
  if (Options.StateMerging) {
    {
      Timer T(Stats, "state-merging");
      if (mergeStates(*R.Program, Stats))
        R.Features.insert(feature::StateMerging);
    }
    if (!VerifyAfter("state-merging"))
      return R;
  }
  if (Options.IntraLoopMerging) {
    {
      Timer T(Stats, "intra-loop-merging");
      if (mergeIntraLoop(*R.Program, Stats))
        R.Features.insert(feature::IntraLoopMerge);
    }
    if (!VerifyAfter("intra-loop-merging"))
      return R;
  }
  if (Options.DataflowOpts) {
    // Fold -> prune -> eliminate, iterated: folding exposes dead message
    // fields (constant payloads read nowhere) and copy-forwarding exposes
    // write-only slots, so each pass can feed the next. Four rounds bound
    // the fixpoint comfortably for every bundled program.
    for (int Round = 0; Round < 4; ++Round) {
      bool Changed = false;
      {
        Timer T(Stats, "const-fold-dataflow");
        Changed |= constFoldDataflow(*R.Program, Stats);
      }
      if (!VerifyAfter("const-fold-dataflow"))
        return R;
      {
        Timer T(Stats, "msg-field-prune");
        Changed |= pruneMessageFields(*R.Program, Stats);
      }
      if (!VerifyAfter("msg-field-prune"))
        return R;
      {
        Timer T(Stats, "dead-slot-elim");
        Changed |= eliminateDeadSlots(*R.Program, Stats);
      }
      if (!VerifyAfter("dead-slot-elim"))
        return R;
      if (Changed)
        R.Features.insert(feature::DataflowOpts);
      else
        break;
    }
  }
  if (Stats)
    Stats->setCounter("ir.states.post-opt", R.Program->States.size());

  // Final analysis sweep: surface the analysis verdicts as counters.
  if (Stats) {
    Timer T(Stats, "dataflow-analysis");
    pir::DataFlowInfo Info = pir::analyzeDataFlow(*R.Program);
    Stats->setCounter("analysis.dead-slots", Info.countDeadSlots(*R.Program));
    Stats->setCounter("analysis.dead-msg-fields", Info.countDeadMsgFields());
    size_t ConstGlobals = 0, ConstSlots = 0, ReachableStates = 0;
    for (const pir::ConstVal &C : Info.GlobalVal)
      ConstGlobals += C.isConst();
    for (const pir::ConstVal &C : Info.SlotVal)
      ConstSlots += C.isConst();
    for (bool B : Info.Reachable)
      ReachableStates += B;
    Stats->setCounter("analysis.const-globals", ConstGlobals);
    Stats->setCounter("analysis.const-slots", ConstSlots);
    Stats->setCounter("analysis.reachable-states", ReachableStates);
  }

  {
    Timer T(Stats, "verify-ir");
    std::string Problem = pir::verifyProgram(*R.Program);
    if (!Problem.empty()) {
      R.Diags->error(SourceLocation(),
                     "internal error: optimized IR is invalid: " + Problem);
      R.Program.reset();
      return R;
    }
  }

  if (Options.Lint) {
    Timer T(Stats, "lint");
    for (const pir::CheckFinding &F : pir::lintProgram(*R.Program)) {
      if (Stats)
        Stats->addCounter("lint." + F.Rule);
      if (F.isError() || Options.WarningsAsErrors)
        R.Diags->error(SourceLocation(), "lint: " + F.toString());
      else
        R.Diags->warning(SourceLocation(), "lint: " + F.toString());
    }
    if (R.Diags->hasErrors())
      R.Program.reset();
  }
  return R;
}

CompileResult gm::compileGreenMarlFile(const std::string &Path,
                                       const CompileOptions &Options) {
  std::ifstream In(Path);
  if (!In) {
    CompileResult R;
    R.Context = std::make_unique<ASTContext>();
    R.Diags = std::make_unique<DiagnosticEngine>();
    R.Diags->error(SourceLocation(), "cannot open " + Path);
    return R;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return compileGreenMarl(SS.str(), Options);
}
