//===- engine/ObligationCache.h - Obligation verdict cache -------*- C++ -*-===//
///
/// \file
/// The content-addressed obligation verdict cache: the memoization layer
/// that turns re-verification into an incremental build. Each scheduler
/// job (one contiguous slice of a quantifier universe) is keyed by a
/// stable 128-bit fingerprint of *exactly* the inputs its obligations
/// depend on — the semantic content of the slice's points in iteration
/// order and the bodies of every action the slice executes (see
/// semantics/Fingerprint.h and the key builders in is/ISCheck.cpp) — and
/// its recorded value is the job's per-channel aggregate: obligation and
/// failure counts plus the retained diagnostics with their slice-relative
/// positions. Folding a cached aggregate is bit-identical to re-running
/// the job, for every thread count, because nothing in it depends on the
/// run that recorded it (see engine/ObligationScheduler.h).
///
/// Two tiers share one mutex:
///
///  - the in-memory tier: aggregates inserted by this process, stored as
///    serialized blobs (compact, and ready to persist);
///  - the on-disk tier: a compacted base image (`<dir>/obcache.bin`) plus
///    an append journal (`<dir>/obcache.jrnl`), both mmap'd, each with a
///    versioned header carrying the serialization format version, the
///    fingerprint format version, and the builder's git sha. Entries
///    decode lazily out of the mappings on first lookup (a *disk hit*);
///    journal records shadow base entries. Any validation failure in the
///    base — bad magic, short file, version or sha mismatch,
///    out-of-bounds entry — discards it and the run proceeds cold; the
///    journal is prefix-valid: records are accepted up to the first
///    malformed byte, so a torn append costs only the tail. Every record
///    carries a checksum of its payload, verified before decode, so
///    interior corruption that spares the framing degrades to a re-run
///    of the affected slices. A corrupted cache can cost time, never
///    correctness.
///
/// save() is incremental: a run that inserted nothing writes nothing; a
/// run with few inserts appends just those records to the journal
/// (truncating any torn tail first); only when the journal would outgrow
/// half the base — or the base itself was rejected — does save() compact
/// both tiers into a fresh base with crash-safe write-to-temporary +
/// atomic rename, evicting least-recently-used entries beyond the size
/// cap. A warm re-verification after a small edit therefore pays I/O
/// proportional to the edit, not to the image.
///
/// One process-wide instance may serve concurrent verifications (isq-serve
/// shares one below its whole-request VerdictCache); all operations are
/// thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_OBLIGATIONCACHE_H
#define ISQ_ENGINE_OBLIGATIONCACHE_H

#include "engine/ObligationScheduler.h"
#include "semantics/Fingerprint.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace isq {
namespace engine {

class ObligationCache {
public:
  struct Options {
    /// Directory of the persistent tier; empty for a memory-only cache.
    std::string Dir;
    /// On-disk size cap, enforced at compaction: save() evicts
    /// least-recently-used entries until the serialized payload fits.
    /// Between compactions the journal may overshoot by up to half the
    /// base image.
    size_t MaxBytes = 512u << 20;
  };

  struct Counters {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;     ///< including disk hits
    uint64_t DiskHits = 0; ///< first-touch decodes out of the mapping
    uint64_t Misses = 0;
    uint64_t Inserts = 0;
    uint64_t DiskEntries = 0; ///< entries indexed from a valid disk image
    /// True when a disk image was present but failed validation (the run
    /// proceeded cold).
    bool DiskRejected = false;
  };

  /// Loads the disk tier eagerly when \p O.Dir names an existing cache
  /// file. Never throws on bad images (see Counters::DiskRejected).
  ObligationCache(); // memory-only
  explicit ObligationCache(Options O);
  ~ObligationCache();
  ObligationCache(const ObligationCache &) = delete;
  ObligationCache &operator=(const ObligationCache &) = delete;

  /// Probes both tiers. On a hit, decodes the recorded per-channel
  /// aggregates into \p Out and sets \p FromDisk when the entry had not
  /// been touched since the disk image was mapped.
  bool lookup(const Fingerprint &Key, std::vector<ObAggregate> &Out,
              bool &FromDisk);

  /// Records a job's per-channel aggregates under \p Key.
  void insert(const Fingerprint &Key, const std::vector<ObAggregate> &Out);

  /// Persists this run's inserts: nothing when there were none, a journal
  /// append while the journal stays small, a full compaction otherwise
  /// (see the file comment). Returns false with \p Error set on I/O
  /// failure; always a no-op success when the cache has no directory.
  bool save(std::string &Error);

  Counters counters() const;
  bool persistent() const { return !Opts.Dir.empty(); }

  /// Serialization format of entry payloads and of the disk file. Bump on
  /// any layout change; old files are then treated as cold.
  static constexpr uint32_t DiskFormatVersion = 2;

private:
  struct MemEntry {
    std::string Blob; ///< serialized aggregates
    uint64_t LastUse = 0;
  };
  struct DiskEntry {
    size_t Offset = 0; ///< blob offset into the owning mapping
    size_t Size = 0;
    uint64_t LastUse = 0;
    uint64_t Checksum = 0; ///< of the blob; verified before every decode
    bool Journal = false;  ///< blob lives in the journal mapping
    bool Touched = false;  ///< already served once (later hits aren't
                           ///< "disk hits")
  };
  struct FpHash {
    size_t operator()(const Fingerprint &F) const {
      return static_cast<size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
    }
  };

  void loadDisk();
  void loadJournal();
  bool appendJournal(std::string &Error);
  bool compact(std::string &Error);
  std::string filePath() const;
  std::string journalPath() const;

  Options Opts;
  mutable std::mutex M;
  std::unordered_map<Fingerprint, MemEntry, FpHash> Memory;
  std::unordered_map<Fingerprint, DiskEntry, FpHash> Disk;
  const char *Mapping = nullptr;
  size_t MappingSize = 0;
  const char *JMapping = nullptr;
  size_t JMappingSize = 0;
  /// Length of the journal's valid prefix (header plus whole records);
  /// appends truncate to here first so a torn tail never precedes new
  /// records.
  size_t JournalValidBytes = 0;
  uint64_t Clock = 0;
  Counters Stats;
};

/// Serializes a job's per-channel aggregates into the cache's blob form
/// (exposed for the round-trip tests).
std::string encodeObAggregates(const std::vector<ObAggregate> &Out);
/// Decodes a blob; returns false (leaving \p Out unspecified) on any
/// malformed byte. Bounds-checked throughout — never reads past \p Size.
bool decodeObAggregates(const char *Data, size_t Size,
                        std::vector<ObAggregate> &Out);

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_OBLIGATIONCACHE_H
