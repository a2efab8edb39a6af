//===- engine/EngineConfig.h - Unified engine configuration ------*- C++ -*-===//
///
/// \file
/// The single configuration surface for every engine knob: thread budget,
/// symmetry reduction, the frontier's steal granularity, the interning
/// arena's shard count and the obligation cache. One EngineConfig is
/// threaded from the CLI (or the serve wire protocol) through
/// driver::VerifyOptions into the explorer, the frontier engine, the
/// obligation scheduler, and the IS checker — no component reads
/// thread/symmetry/steal settings from anywhere else.
///
/// The textual form is a comma-separated key=value list (the `--engine`
/// flag): `threads=4,steal-chunk=64,shards=8`. The same
/// key/value pairs travel the serve wire protocol as an explicit-keys-only
/// map, so a request's verdict-cache key covers exactly the settings the
/// client set. Unknown keys and malformed values are parse errors with a
/// targeted message, never silently ignored.
///
/// Every knob preserves the engine's determinism contract: verdicts,
/// counts, and diagnostics are bit-identical for every value of every
/// knob (timing fields and the steal/telemetry counters excepted).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_ENGINECONFIG_H
#define ISQ_ENGINE_ENGINECONFIG_H

#include <map>
#include <string>

namespace isq {
namespace engine {

/// All engine tuning knobs, with their defaults.
struct EngineConfig {
  /// Worker threads for exploration and obligation checking. Results are
  /// identical for any value.
  unsigned NumThreads = 1;
  /// Orbit-canonical symmetry reduction when the module declares a
  /// symmetric sort. False explores the full state space (differential
  /// oracle; same verdicts).
  bool Symmetry = true;
  /// Nodes per frontier chunk (the steal granularity).
  unsigned StealChunk = 64;
  /// Interning-arena shards. Must be a power of two in [1, 16] (the
  /// handle layout reserves four shard bits).
  unsigned Shards = 16;
  /// Consult the content-addressed obligation verdict cache before
  /// discharging scheduler slices. False keeps the uncached path alive as
  /// the differential oracle (same verdicts, recomputed).
  bool Incremental = true;
  /// Directory of the persistent obligation-cache tier; empty keeps the
  /// cache in-memory only (still useful under isq-serve, where one
  /// process serves many requests).
  std::string CacheDir;

  /// Maximum supported shard count (the handle layout's shard bits).
  static constexpr unsigned MaxShards = 16;

  bool operator==(const EngineConfig &O) const {
    return NumThreads == O.NumThreads && Symmetry == O.Symmetry &&
           StealChunk == O.StealChunk && Shards == O.Shards &&
           Incremental == O.Incremental && CacheDir == O.CacheDir;
  }
  bool operator!=(const EngineConfig &O) const { return !(*this == O); }

  /// Applies one `key=value` setting. Returns false with \p Error set on
  /// an unknown key or malformed value. Valid keys: threads, symmetry,
  /// steal-chunk, shards, incremental, cache-dir. Booleans accept
  /// true/false/on/off/1/0.
  bool set(const std::string &Key, const std::string &Value,
           std::string &Error);

  /// Applies a comma-separated `key=value[,key=value...]` list (the
  /// `--engine` argument). Empty items between commas are errors.
  bool setList(const std::string &Spec, std::string &Error);

  /// The settings that differ from the defaults, as a sorted key→value
  /// map (the wire/cache-key form). `threads`, `incremental` and
  /// `cache-dir` are deliberately excluded: verdicts are independent of
  /// all of them (caching is bit-identical to the plain path), so they
  /// are local tuning knobs, never request inputs — including them would
  /// fragment the serve-side verdict cache for no semantic difference.
  std::map<std::string, std::string> toKeyValues() const;

  /// Applies a wire key→value map on top of this config. Rejects unknown
  /// keys and malformed values like set(); additionally rejects the
  /// server-side knobs `threads`, `incremental` and `cache-dir` (see
  /// toKeyValues()).
  bool applyKeyValues(const std::map<std::string, std::string> &KeyValues,
                      std::string &Error);
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_ENGINECONFIG_H
