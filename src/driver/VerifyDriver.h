//===- driver/VerifyDriver.h - End-to-end ASL verification ---------*- C++ -*-===//
///
/// \file
/// The push-button pipeline behind the `isq-verify` tool: compile an ASL
/// module, derive the IS artifacts from a declared sequentialization
/// order (schedule invariant + minimum-rank choice function), attach
/// ASL-declared abstractions, check every IS condition, and — on
/// acceptance — summarize the sequential reduction and empirically
/// cross-check P ≼ P'.
///
/// This mirrors the paper's CIVL integration (§5.1): the user supplies
/// the program and the proof artifacts; the tool compiles the rule's
/// conditions to discharged obligations and produces targeted error
/// messages per condition.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_DRIVER_VERIFYDRIVER_H
#define ISQ_DRIVER_VERIFYDRIVER_H

#include "engine/ObligationCache.h"
#include "is/ISCheck.h"
#include "lang/Frontend.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isq {
namespace driver {

/// One verification request.
struct VerifyOptions {
  /// ASL module text.
  std::string Source;
  /// Path the source was read from. Display name of the main input in
  /// diagnostics and the base directory for resolving its imports; empty
  /// for sources without a file (imports are then unavailable).
  std::string SourcePath;
  /// Bindings for the module's integer constants and parameters
  /// (--const binds both).
  std::map<std::string, int64_t> Consts;
  /// The frontend pipeline; V2 is the only value (see lang/Frontend.h).
  asl::frontend::FrontendVersion Frontend =
      asl::frontend::FrontendVersion::V2;
  /// The action to rewrite (defaults to Main).
  std::string RewriteAction = "Main";
  /// The eliminated actions in sequentialization order. This determines
  /// the schedule invariant and choice function.
  std::vector<std::string> Eliminate;
  /// How pending asyncs are ranked within the schedule:
  ///  - ActionMajor (default): all PAs of the first eliminated action run
  ///    before any of the second, ...; ties order by argument tuple.
  ///    Fits phase-structured protocols (broadcast: all Broadcasts, then
  ///    all Collects).
  ///  - ArgMajor: PAs order by their first integer argument first, then
  ///    by elimination position. Fits alternating protocols
  ///    (Ping(1), Pong(1), Ping(2), ...).
  enum class RankOrder { ActionMajor, ArgMajor };
  RankOrder Order = RankOrder::ActionMajor;
  /// Optional left-mover abstractions: eliminated action name → name of
  /// an action declared in the same module (e.g. using pending()-gates).
  std::map<std::string, std::string> Abstractions;
  /// Optional cooperation weights per action name (default 1 each). The
  /// measure is the lexicographic pair (weighted pending-async count,
  /// remaining schedule work), so a task chain that re-creates its
  /// successor (constant count) still decreases via the second component,
  /// while fan-out phases need weights that dominate what they spawn.
  std::map<std::string, uint64_t> Weights;
  /// Also explore P' and cross-check refinement when the proof is
  /// accepted.
  bool CrossCheck = true;
  /// The unified engine configuration: thread budget, symmetry
  /// reduction, frontier steal granularity, and store shape. Every engine knob flows through here — the
  /// explorations, the obligation scheduler, and the IS checker read no
  /// thread/symmetry/steal settings from anywhere else. Results are
  /// bit-identical for every setting (see engine/EngineConfig.h).
  engine::EngineConfig Engine;
  /// Externally owned obligation verdict cache shared across requests
  /// (isq-serve plugs its process-wide instance here). Null makes the
  /// driver create a request-local cache from Engine.CacheDir (persisted
  /// after checking) or a memory-only one. The caller owns persistence of
  /// a shared cache; the driver never save()s it. Ignored when
  /// Engine.Incremental is false.
  engine::ObligationCache *SharedCache = nullptr;
};

/// Outcome of the empirical P ≼ P' cross-check.
struct CrossCheckInfo {
  /// True when the cross-check actually ran (proof accepted and
  /// VerifyOptions::CrossCheck set).
  bool Ran = false;
  /// The program-refinement result.
  CheckResult Refines;
  /// Explored configuration counts of P and of the sequentialization P'.
  size_t ConfigsP = 0;
  size_t ConfigsPPrime = 0;
  /// Wall-clock of the cross-check phase (exploring P' and comparing; P's
  /// summary comes from the universe build).
  double Seconds = 0;
};

/// The verification verdict. This is the stable, versioned surface the
/// renderers (driver/ReportRender.h) serialize: text and JSON output are
/// both pure functions of this struct.
struct VerifyResult {
  bool CompileOk = false;
  /// True when the request validated against the compiled module (action
  /// names exist, no duplicate eliminations, abstractions well-formed).
  /// Validation failures land in Diags — verifyModule never asserts on
  /// bad driver input.
  bool InputOk = false;
  bool Accepted = false;
  /// Per-condition report (valid when CompileOk && InputOk). Carries the
  /// obligation-scheduler statistics of the checking phase.
  ISCheckReport Report;
  /// Human-readable summary of the whole run; equals
  /// renderText(*this) (kept as a field for convenience).
  std::string Summary;
  /// Compiler and driver-input diagnostics. Compiler diagnostics carry
  /// source locations; driver-input diagnostics use line 0.
  std::vector<asl::Diagnostic> Diags;
  /// Aggregated engine statistics across every exploration the run
  /// performed: P, and P[M ↦ I] when the universe needed it, plus P'
  /// (the cross-check).
  engine::EngineStats Engine;
  /// Empirical P ≼ P' cross-check outcome.
  CrossCheckInfo CrossCheck;
  /// Wall-clock of the whole pipeline.
  double TotalSeconds = 0;

  /// The documented process exit code: 0 proof accepted, 1 proof
  /// rejected, 2 compilation or driver-input error.
  int exitCode() const {
    if (!CompileOk || !InputOk)
      return 2;
    return Accepted ? 0 : 1;
  }
};

/// Derives the IS application from \p Options over the compiled program
/// \p P: the schedule invariant and minimum-rank choice function from the
/// declared elimination order, the named abstractions, and the weighted
/// cooperation measure. \p Options must have validated against \p P.
ISApplication deriveApplication(const VerifyOptions &Options,
                                const Program &P);

/// Runs the pipeline.
VerifyResult verifyModule(const VerifyOptions &Options);

} // namespace driver
} // namespace isq

#endif // ISQ_DRIVER_VERIFYDRIVER_H
