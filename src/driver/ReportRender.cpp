//===- driver/ReportRender.cpp - Verdict report renderers ---------------------===//

#include "driver/ReportRender.h"

#include "support/Json.h"

using namespace isq;
using namespace isq::driver;
using namespace isq::engine;

std::string driver::renderText(const VerifyResult &Result) {
  std::string Out;
  if (!Result.CompileOk) {
    Out = "compilation failed:\n";
    for (const asl::Diagnostic &D : Result.Diags)
      Out += "  " + D.str() + "\n";
    return Out;
  }
  if (!Result.InputOk) {
    for (const asl::Diagnostic &D : Result.Diags)
      Out += "error: " + D.Message + "\n";
    return Out;
  }
  Out += Result.Report.str();
  if (Result.CrossCheck.Ran) {
    Out += "sequential reduction: " +
           std::to_string(Result.CrossCheck.ConfigsP) +
           " configurations -> " +
           std::to_string(Result.CrossCheck.ConfigsPPrime) + "\n";
    Out += "P ≼ P' (empirical): " + Result.CrossCheck.Refines.str() + "\n";
  }
  Out += "engine: " + Result.Engine.str() + "\n";
  // The serial reference path never runs the scheduler; suppress the
  // all-zero line so the two modes render their own shapes.
  if (Result.Report.Scheduler.totals().Jobs)
    Out += "checker: " + Result.Report.Scheduler.str() + "\n";
  Out += "total time: " + std::to_string(Result.TotalSeconds) + "s\n";
  return Out;
}

namespace {

/// Emits one member of the "conditions" array.
void emitCondition(json::JsonWriter &W, ObCondition Cond,
                   const CheckResult &R, const ObligationStats &Sched) {
  const ObligationStats::Bucket &B =
      Sched.PerCondition[static_cast<size_t>(Cond)];
  W.beginObject();
  W.key("name").value(obConditionName(Cond));
  W.key("label").value(obConditionLabel(Cond));
  W.key("ok").value(R.ok());
  W.key("obligations").value(R.obligations());
  W.key("failures").value(R.failures());
  W.key("issues").beginArray();
  for (const std::string &Issue : R.issues())
    W.value(Issue);
  W.endArray();
  W.key("jobs").value(B.Jobs);
  W.key("orbit_configs").value(B.OrbitConfigs);
  W.key("orbit_states").value(B.OrbitStates);
  W.key("seconds").value(B.JobSeconds);
  W.endObject();
}

} // namespace

std::string driver::renderJson(const VerifyResult &Result) {
  json::JsonWriter W;
  W.beginObject();
  W.key("schema_version").value(JsonSchemaVersion);
  W.key("tool").value("isq-verify");
  W.key("exit_code").value(Result.exitCode());
  W.key("compile_ok").value(Result.CompileOk);
  W.key("input_ok").value(Result.InputOk);
  W.key("accepted").value(Result.Accepted);

  const ISCheckReport &Rep = Result.Report;
  const ObligationStats &Sched = Rep.Scheduler;
  W.key("conditions").beginArray();
  if (Result.CompileOk && Result.InputOk) {
    emitCondition(W, ObCondition::SideConditions, Rep.SideConditions, Sched);
    emitCondition(W, ObCondition::AbstractionRefinement,
                  Rep.AbstractionRefinement, Sched);
    emitCondition(W, ObCondition::BaseCase, Rep.BaseCase, Sched);
    emitCondition(W, ObCondition::Conclusion, Rep.Conclusion, Sched);
    emitCondition(W, ObCondition::InductiveStep, Rep.InductiveStep, Sched);
    emitCondition(W, ObCondition::LeftMovers, Rep.LeftMovers, Sched);
    emitCondition(W, ObCondition::Cooperation, Rep.Cooperation, Sched);
  }
  W.endArray();

  W.key("cross_check").beginObject();
  W.key("ran").value(Result.CrossCheck.Ran);
  W.key("ok").value(Result.CrossCheck.Refines.ok());
  W.key("obligations").value(Result.CrossCheck.Refines.obligations());
  W.key("failures").value(Result.CrossCheck.Refines.failures());
  W.key("issues").beginArray();
  for (const std::string &Issue : Result.CrossCheck.Refines.issues())
    W.value(Issue);
  W.endArray();
  W.key("configs_p").value(Result.CrossCheck.ConfigsP);
  W.key("configs_p_prime").value(Result.CrossCheck.ConfigsPPrime);
  W.key("seconds").value(Result.CrossCheck.Seconds);
  W.endObject();

  const EngineStats &E = Result.Engine;
  W.key("engine").beginObject();
  W.key("configurations").value(E.NumConfigurations);
  W.key("transitions").value(E.NumTransitions);
  W.key("truncated").value(E.Truncated);
  W.key("interned_stores").value(E.InternedStores);
  W.key("interned_pas").value(E.InternedPas);
  W.key("interned_pa_sets").value(E.InternedPaSets);
  W.key("interned_configs").value(E.InternedConfigs);
  W.key("hash_cons_lookups").value(E.HashConsLookups);
  W.key("hash_cons_hits").value(E.HashConsHits);
  W.key("transition_cache_lookups").value(E.TransitionCacheLookups);
  W.key("transition_cache_hits").value(E.TransitionCacheHits);
  W.key("symmetry_reduced").value(E.SymmetryReduced);
  W.key("canon_calls").value(E.CanonCalls);
  W.key("canon_cache_hits").value(E.CanonCacheHits);
  W.key("orbit_states_represented").value(E.OrbitStatesRepresented);
  W.key("frontier_peak").value(E.FrontierPeak);
  W.key("threads").value(E.Threads);
  W.key("steal_chunk").value(E.StealChunk);
  W.key("steals").value(E.Steals);
  W.key("shards").value(E.Shards);
  W.key("shard_occupancy").value(E.ShardOccupancy);
  W.key("compressed_bytes").value(E.CompressedBytes);
  W.key("spill_enabled").value(E.SpillEnabled);
  W.key("mem_budget").value(E.MemBudget);
  W.key("bytes_hot").value(E.BytesHot);
  W.key("bytes_cold").value(E.BytesCold);
  W.key("blocks_evicted").value(E.BlocksEvicted);
  W.key("blocks_faulted").value(E.BlocksFaulted);
  W.key("fault_stall_ns").value(E.FaultStallNanos);
  W.key("expand_seconds").value(E.ExpandSeconds);
  W.key("merge_seconds").value(E.MergeSeconds);
  W.key("total_seconds").value(E.TotalSeconds);
  W.endObject();

  ObligationStats::Bucket T = Sched.totals();
  W.key("scheduler").beginObject();
  W.key("threads").value(Sched.Threads);
  W.key("jobs").value(T.Jobs);
  W.key("units").value(T.Units);
  W.key("cpu_seconds").value(T.JobSeconds);
  W.key("wall_seconds").value(Sched.WallSeconds);
  W.endObject();

  W.key("obligations").beginObject();
  W.key("total").value(Rep.totalObligations());
  W.key("cache_enabled").value(Sched.Cache.Enabled);
  W.key("cache_hits").value(Sched.Cache.Hits);
  W.key("cache_misses").value(Sched.Cache.Misses);
  W.key("disk_hits").value(Sched.Cache.DiskHits);
  W.endObject();

  W.key("diagnostics").beginArray();
  for (const asl::Diagnostic &D : Result.Diags) {
    W.beginObject();
    W.key("severity").value(asl::severityName(D.Sev));
    W.key("message").value(D.Message);
    W.key("file").value(D.FileName);
    W.key("line").value(D.Line);
    W.key("col").value(D.Column);
    W.key("end_line").value(D.EndLine);
    W.key("end_col").value(D.EndColumn);
    W.key("note").value(D.Note);
    W.endObject();
  }
  W.endArray();

  W.key("total_seconds").value(Result.TotalSeconds);
  W.endObject();
  return W.take() + "\n";
}
