//===- engine/EngineConfig.h - Unified engine configuration ------*- C++ -*-===//
///
/// \file
/// The single configuration surface for every engine knob: thread budget,
/// symmetry reduction, the frontier's steal granularity, and the compact
/// state store (shard count, compressed encodings). One EngineConfig is
/// threaded from the CLI (or the serve wire protocol) through
/// driver::VerifyOptions into the explorer, the frontier engine, the
/// obligation scheduler, and the IS checker — no component reads
/// thread/symmetry/steal settings from anywhere else.
///
/// The textual form is a comma-separated key=value list (the `--engine`
/// flag): `threads=4,steal-chunk=64,shards=8,compress=true`. The same
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

#include <cstdint>
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
  /// Store interned stores and PA-bags as delta/varint-compressed byte
  /// encodings instead of materialized values (the compact state store).
  bool Compress = false;
  /// Consult the content-addressed obligation verdict cache before
  /// discharging scheduler slices. False keeps the uncached path alive as
  /// the differential oracle (same verdicts, recomputed).
  bool Incremental = true;
  /// Directory of the persistent obligation-cache tier; empty keeps the
  /// cache in-memory only (still useful under isq-serve, where one
  /// process serves many requests).
  std::string CacheDir;
  /// Spill sealed compact-store blocks to an mmap-backed cold tier when
  /// hot encoded bytes exceed the memory budget. Requires compress=true,
  /// spill-dir and mem-budget (see validate()). Verdicts, counts and
  /// diagnostics are bit-identical with spilling on or off.
  bool Spill = false;
  /// Directory for cold-tier segment files (per-run scratch; stale
  /// segments are deleted at startup, live ones on exit).
  std::string SpillDir;
  /// Hot-tier byte budget across all spilling arenas in the process;
  /// eviction starts once hot encoded bytes exceed it. Accepts K/M/G
  /// suffixes in the textual form. 0 means no budget.
  uint64_t MemBudget = 0;

  /// Maximum supported shard count (the handle layout's shard bits).
  static constexpr unsigned MaxShards = 16;

  bool operator==(const EngineConfig &O) const {
    return NumThreads == O.NumThreads && Symmetry == O.Symmetry &&
           StealChunk == O.StealChunk && Shards == O.Shards &&
           Compress == O.Compress &&
           Incremental == O.Incremental && CacheDir == O.CacheDir &&
           Spill == O.Spill && SpillDir == O.SpillDir &&
           MemBudget == O.MemBudget;
  }
  bool operator!=(const EngineConfig &O) const { return !(*this == O); }

  /// Applies one `key=value` setting. Returns false with \p Error set on
  /// an unknown key or malformed value. Valid keys: threads, symmetry,
  /// steal-chunk, shards, compress, incremental, cache-dir, spill,
  /// spill-dir, mem-budget.
  /// Booleans accept true/false/on/off/1/0; mem-budget accepts a byte
  /// count with an optional K/M/G suffix.
  bool set(const std::string &Key, const std::string &Value,
           std::string &Error);

  /// Cross-knob coherence checks that set() cannot make (it sees one key
  /// at a time): spill=true requires compress=true, spill-dir and
  /// mem-budget; spill-dir/mem-budget require spill=true; cache-dir and
  /// spill-dir must differ. Returns false with \p Error set on the first
  /// conflict. Called after the whole --engine list (or server flag set)
  /// is parsed.
  bool validate(std::string &Error) const;

  /// Applies a comma-separated `key=value[,key=value...]` list (the
  /// `--engine` argument). Empty items between commas are errors.
  bool setList(const std::string &Spec, std::string &Error);

  /// The settings that differ from the defaults, as a sorted key→value
  /// map (the wire/cache-key form). `threads`, `incremental`,
  /// `cache-dir`, `spill`, `spill-dir` and `mem-budget` are deliberately
  /// excluded: verdicts are independent of all of them (caching and
  /// spilling are bit-identical to the plain paths), so they are local
  /// tuning knobs, never request inputs — including them would fragment
  /// the serve-side verdict cache for no semantic difference.
  std::map<std::string, std::string> toKeyValues() const;

  /// Applies a wire key→value map on top of this config. Rejects unknown
  /// keys and malformed values like set(); additionally rejects the
  /// server-side knobs `threads`, `incremental`, `cache-dir`, `spill`,
  /// `spill-dir` and `mem-budget` (see toKeyValues()).
  bool applyKeyValues(const std::map<std::string, std::string> &KeyValues,
                      std::string &Error);

  /// Human-readable one-line rendering of the non-default settings
  /// ("defaults" when none).
  std::string str() const;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_ENGINECONFIG_H
