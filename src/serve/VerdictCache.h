//===- serve/VerdictCache.h - Cross-request verdict cache --------*- C++ -*-===//
///
/// \file
/// The LRU verdict cache behind isq-serve: repeated submissions of the
/// same verification job short-circuit to the stored verdict instead of
/// re-running the pipeline.
///
/// Cache key. The key is the *canonical byte serialization* of everything
/// the verdict depends on: program text, constant bindings, rewrite
/// action, elimination order, rank order, abstractions, cooperation
/// weights, and the cross-check flag and engine settings. Fields whose
/// order is semantically irrelevant (consts, abstractions, weights) are
/// std::maps, so their serialization is sorted by name and two
/// requests binding the same values in different order share one key;
/// fields whose order matters (the elimination sequence) serialize in
/// request order and keep distinct keys. The request id and any transport
/// detail are excluded. Using the full serialized request as the key —
/// rather than a hash of it — makes collisions impossible; the map hashes
/// the key bytes internally. NumThreads is deliberately absent: verdicts
/// are bit-identical for every thread count (the engine's determinism
/// contract), so thread budget is a server tuning knob, not an input.
///
/// A hit returns a deep copy of the cached VerifyResult (all-value
/// struct) plus the exact rendered JSON report, so a warm response is
/// byte-identical to the response of the run that populated the entry.
///
/// Thread safety: all operations take one internal mutex; the cache is
/// shared by every connection handler and worker in the server.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SERVE_VERDICTCACHE_H
#define ISQ_SERVE_VERDICTCACHE_H

#include "serve/Wire.h"

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace isq {
namespace serve {

/// Derives the canonical cache key for \p R. Pure function of the
/// verdict-relevant request fields (see the file comment).
std::string verdictCacheKey(const SubmitRequest &R);

/// An LRU map from canonical request bytes to verdicts.
class VerdictCache {
public:
  struct Entry {
    driver::VerifyResult Result;
    /// renderJson(Result), captured when the entry was stored, so warm
    /// responses are byte-identical to the populating run's response.
    std::string ReportJson;
  };

  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0;
  };

  /// \p Capacity in entries; 0 disables caching (every lookup misses).
  explicit VerdictCache(size_t Capacity) : Capacity(Capacity) {}

  /// Looks up \p Key, refreshing its LRU position. Counts a hit or miss.
  std::optional<Entry> lookup(const std::string &Key);

  /// Inserts (or refreshes) \p Key, evicting the least recently used
  /// entry when at capacity.
  void insert(const std::string &Key, Entry Value);

  Counters counters() const;

private:
  struct Node {
    std::string Key;
    Entry Value;
  };

  size_t Capacity;
  mutable std::mutex M;
  /// Most recently used at the front.
  std::list<Node> Lru;
  std::unordered_map<std::string, std::list<Node>::iterator> Index;
  Counters Stats;
};

} // namespace serve
} // namespace isq

#endif // ISQ_SERVE_VERDICTCACHE_H
