//===- driver/ReportRender.h - Verdict report renderers ----------*- C++ -*-===//
///
/// \file
/// Rendering of the structured verification verdict (VerifyResult) for
/// the isq-verify surface. Both renderers are pure functions of the
/// verdict struct: the text form is the human-readable summary the tool
/// has always printed, the JSON form is the machine-readable report
/// behind `isq-verify --format json`.
///
/// JSON schema (version 9):
///   {
///     "schema_version": 9,
///     "tool": "isq-verify",
///     "exit_code": 0|1|2,
///     "compile_ok": bool, "input_ok": bool, "accepted": bool,
///     "conditions": [ { "name", "label", "ok", "obligations",
///                       "failures", "issues": [string], "jobs",
///                       "orbit_configs", "orbit_states",
///                       "seconds" } ],  // one per IS condition;
///                                       // "seconds" is its jobs'
///                                       // thread CPU time summed over
///                                       // workers, so at threads>1
///                                       // it is not wall time
///     "cross_check": { "ran", "ok", "obligations", "failures",
///                      "issues": [string], "configs_p",
///                      "configs_p_prime", "seconds" },
///     "engine":  { exploration statistics incl. "symmetry_reduced",
///                  "canon_calls", "canon_cache_hits",
///                  "orbit_states_represented", "steal_chunk",
///                  "steals", "shards", "shard_occupancy" },
///     "scheduler": { "threads", "jobs", "units", "cpu_seconds",
///                    "wall_seconds" },  // cpu_seconds: every job's
///                                       // thread CPU time, summed
///     "obligations": { "total", "cache_enabled", "cache_hits",
///                      "cache_misses", "disk_hits" },
///     "diagnostics": [ { "severity", "message", "file", "line", "col",
///                        "end_line", "end_col", "note" } ],
///     "total_seconds": number
///   }
/// The schema_version field only changes on breaking changes; adding
/// fields is not breaking. Version 2 added the symmetry-reduction
/// observability: per-condition "orbit_configs"/"orbit_states" (the
/// condition's quantifier universe in orbit representatives and the
/// unreduced states those stand for) and the engine's symmetry counters.
/// Version 3 restructured "diagnostics": every entry now carries the
/// severity, the owning file, a location span and an optional note, and
/// the "column" key was renamed to "col" (the breaking part).
/// Version 4 added the work-stealing/arena observability to "engine":
/// "work_stealing", "steal_chunk", "steals" (scheduling; the steal count
/// is nondeterministic), "shards", "shard_occupancy" (state sharding;
/// both deterministic), and the compact store's encoded-byte total.
/// Consumers that treated unknown engine keys as errors must opt in,
/// hence the version bump.
/// Version 5 added the top-level "obligations" object — the incremental
/// re-verification observability: "total" (discharged obligations across
/// all conditions, always), and the obligation-weighted verdict-cache
/// counters "cache_hits"/"cache_misses"/"disk_hits" with "cache_enabled"
/// saying whether a cache was attached (all zero when disabled). Counters
/// are obligation-weighted, not slice-weighted, so hits+misses equals the
/// obligations the scheduler discharges.
/// Verdict fields are unchanged; the bump marks that two
/// reports differing only under "obligations" are the same verdict.
/// Version 6 added seven tiered-store telemetry fields to "engine"; the
/// verdict fields were unchanged.
/// Version 7 removed "engine"."work_stealing": the work-stealing frontier
/// is the only exploration engine, so the flag always read true. With
/// one frontier, "engine"."expand_seconds" has one meaning: worker
/// expansion time summed across threads, which can exceed
/// "engine"."total_seconds" (wall time) when threaded. Every other field
/// is unchanged. (expand_seconds and the per-job times behind "seconds"
/// and "cpu_seconds" are thread CPU time, CLOCK_THREAD_CPUTIME_ID; they
/// were summed wall time before, under the same keys and schema.)
/// Version 8 removed the scheduler's count of discarded speculative
/// units: the checkers slice their universes at store boundaries, so no
/// obligation is checked twice and nothing is discarded.
/// "scheduler"."units" now counts the points checked — each deduplicated
/// point once, plus each run of keyless obligations within one point —
/// and is identical for every thread count. Obligation counts and every
/// verdict field are unchanged.
/// Version 9 removed the eight "engine" fields that versions 4 and 6
/// added for the compact and tiered state store (README.md names them):
/// the interning arena has one representation, so they could only read
/// zero or false. Every other field is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_DRIVER_REPORTRENDER_H
#define ISQ_DRIVER_REPORTRENDER_H

#include "driver/VerifyDriver.h"

#include <string>

namespace isq {
namespace driver {

/// The version of the JSON report schema emitted by renderJson.
constexpr int JsonSchemaVersion = 9;

/// Renders the human-readable summary (the `--format text` output).
std::string renderText(const VerifyResult &Result);

/// Renders the schema-versioned JSON report (the `--format json`
/// output), terminated by a newline.
std::string renderJson(const VerifyResult &Result);

} // namespace driver
} // namespace isq

#endif // ISQ_DRIVER_REPORTRENDER_H
