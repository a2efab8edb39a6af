//===- engine/ObligationScheduler.h - Parallel obligation checking -*- C++ -*-===//
///
/// \file
/// The obligation scheduler: the parallel execution substrate for every
/// checker pass (IS conditions, mover checks, refinement, cooperation).
/// Checker passes enumerate their work as *jobs* — closures over one
/// slice of a quantifier universe that emit obligations into a sink —
/// and the scheduler runs the jobs on a worker pool sharing the driver's
/// thread budget, then folds the per-job aggregates together. Verdicts,
/// obligation counts and counterexample diagnostics are bit-identical for
/// any thread count and equal to the serial reference loops (the same
/// determinism contract as the frontier merge in engine/StateGraph.h).
///
/// Determinism: store-grouped slices and retention by universe position.
/// The serial loops decide each store-point obligation once (e.g. the
/// commutation checks of the mover engine, keyed by (store, subject,
/// other)) at its first *gate-passing* occurrence in universe order, and
/// keep the first CheckResult::MaxIssues diagnostics in emission order.
/// Every such key contains the store. The scheduled checkers therefore
/// iterate the universe grouped by store (groupByStore: points ordered by
/// a content rank of their store, ties in universe order) and cut slices
/// only at store boundaries, so all occurrences of a key fall in one job,
/// in universe order: a job-local dedup set consumes each key exactly
/// where the serial loop does, and no work is duplicated or discarded.
/// Each job folds its obligations into one aggregate per channel —
/// counts, plus the first MaxIssues diagnostics of every store group,
/// each tagged with its *position* (point index within the slice,
/// emission order within the point). The fold maps positions through the
/// current run's order to universe positions and keeps the MaxIssues
/// smallest: exactly the serial loop's first MaxIssues, because within a
/// store group iteration order is universe order. Positions are stored
/// slice-relative, so an aggregate replayed from the verdict cache folds
/// exactly like a fresh one.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_OBLIGATIONSCHEDULER_H
#define ISQ_ENGINE_OBLIGATIONSCHEDULER_H

#include "engine/EngineConfig.h"
#include "engine/StateArena.h"
#include "semantics/Fingerprint.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace isq {

class CheckResult; // refine/Refinement.h

namespace engine {

class ObligationCache;

/// The verification condition an obligation belongs to. Mirrors the
/// per-condition decomposition of ISCheckReport plus the program-level
/// cross-check; used to attribute counts and wall time per condition.
enum class ObCondition : uint8_t {
  SideConditions,
  AbstractionRefinement,
  BaseCase,      ///< (I1)
  Conclusion,    ///< (I2)
  InductiveStep, ///< (I3)
  LeftMovers,    ///< (LM)
  Cooperation,   ///< (CO)
  CrossCheck,    ///< empirical P ≼ P'
};
constexpr size_t NumObConditions = 8;

/// Stable machine name ("side_conditions", "base_case", ...).
const char *obConditionName(ObCondition C);
/// Human-readable report label ("side conditions", "(I1) base case", ...).
const char *obConditionLabel(ObCondition C);

/// One retained diagnostic of a job: its position within the job's slice
/// (the point's index in the slice, the emission order within the point)
/// and its text.
struct ObIssue {
  uint32_t Local = 0;
  uint32_t Seq = 0;
  std::string Message;
};

/// Everything a job contributes to one result channel.
struct ObAggregate {
  /// Cap on diagnostics retained per store group. Equals
  /// CheckResult::MaxIssues (statically asserted in the .cpp): the fold
  /// keeps at most that many per channel, and within a store group the
  /// first ones in emission order are the smallest positions.
  static constexpr size_t MaxIssues = 8;

  /// Points checked: each deduplicated point once, plus each run of
  /// consecutive keyless obligations within one point.
  uint64_t Units = 0;
  uint64_t Obligations = 0;
  uint64_t Failures = 0;
  /// In emission order; at most MaxIssues per store group.
  std::vector<ObIssue> Issues;
};

/// The sink a job emits into. Not thread-safe; each job owns its sink for
/// the duration of the call.
class ObSink {
public:
  /// Moves to point \p Local of the job's slice (its index within the
  /// slice, nondecreasing), which lies in store group \p Group (equal for
  /// adjacent points sharing a store). Jobs that never call at() emit at
  /// point 0 of group 0.
  void at(uint32_t Local, uint64_t Group) {
    if (Group != CurGroup)
      for (uint32_t &N : GroupIssues)
        N = 0;
    CurGroup = Group;
    if (Local != CurLocal)
      Seq = 0;
    CurLocal = Local;
    OpenKeyless = false;
  }
  /// Opens a keyless unit on \p Channel: consecutive keyless units within
  /// one point form a single unit.
  void begin(uint8_t Channel = 0) {
    select(Channel);
    if (!OpenKeyless || KeylessChannel != Channel)
      ++Channels[Channel].Units;
    OpenKeyless = true;
    KeylessChannel = Channel;
  }
  /// Opens a deduplicated point: one unit, decided once per universe.
  void beginPoint(uint8_t Channel = 0) {
    select(Channel);
    ++Channels[Channel].Units;
    OpenKeyless = false;
  }
  /// Records one evaluated obligation in the current channel.
  void countObligation() { ++Channels[Cur].Obligations; }
  /// Records a failed obligation with a diagnostic.
  void fail(std::string Message) {
    ObAggregate &A = Channels[Cur];
    ++A.Failures;
    uint32_t S = Seq++;
    if (GroupIssues[Cur] < ObAggregate::MaxIssues) {
      ++GroupIssues[Cur];
      A.Issues.push_back({CurLocal, S, std::move(Message)});
    }
  }

private:
  friend class ObligationScheduler;
  void select(uint8_t Channel) {
    if (Channel >= Channels.size()) {
      Channels.resize(Channel + 1);
      GroupIssues.resize(Channel + 1, 0);
    }
    Cur = Channel;
  }
  /// One aggregate per channel; channel 0 always exists.
  std::vector<ObAggregate> Channels = std::vector<ObAggregate>(1);
  std::vector<uint32_t> GroupIssues = std::vector<uint32_t>(1, 0);
  uint8_t Cur = 0;
  uint8_t KeylessChannel = 0;
  bool OpenKeyless = false;
  uint32_t CurLocal = 0;
  uint32_t Seq = 0;
  uint64_t CurGroup = 0;
};

/// A scheduled checker's iteration order over a quantifier universe whose
/// points (configurations or contexts) are given in universe (BFS) order:
/// points grouped by the content of their store, cut into slices at store
/// boundaries. See the file comment.
struct StoreGroupedOrder {
  /// Universe positions in iteration order.
  std::vector<uint32_t> Order;
  /// Store group of each iteration slot: a content rank of the store, so
  /// equal ranks are adjacent and rank order does not depend on interning.
  std::vector<uint32_t> Group;
  /// Slice K covers iteration slots [Cuts[K], Cuts[K + 1]).
  std::vector<size_t> Cuts;

  size_t slices() const { return Cuts.empty() ? 0 : Cuts.size() - 1; }
};

/// Orders the points whose stores are \p StoreOf (in universe order) by
/// the content fingerprint of their store, ties in universe order, and
/// ends each slice at the first store boundary at or after \p ChunkSize
/// points. Deterministic for any interning order and thread count.
std::shared_ptr<const StoreGroupedOrder>
groupByStore(const StateArena &Arena, const std::vector<StoreId> &StoreOf,
             size_t ChunkSize);

/// The universe positions of a job's points: slot Begin + Local of
/// \p Universe's order, or position Begin + Local when the job iterates
/// its universe in order (null Universe).
struct ObSlice {
  std::shared_ptr<const StoreGroupedOrder> Universe;
  size_t Begin = 0;
  size_t End = 0;

  uint64_t position(uint32_t Local) const {
    return Universe ? Universe->Order[Begin + Local] : Begin + Local;
  }
};

/// Per-condition and aggregate observability of one scheduler run (or of
/// several runs accumulated by the driver).
struct ObligationStats {
  struct Bucket {
    size_t Jobs = 0;
    /// Points checked (see ObAggregate::Units).
    size_t Units = 0;
    size_t Obligations = 0;
    size_t Failures = 0;
    /// Orbit accounting under symmetry reduction: the condition's
    /// quantifier universe in orbit representatives, and the number of
    /// unreduced configurations those representatives stand for (Σ orbit
    /// sizes). Equal when no reduction applies; both zero when the checker
    /// did not annotate the condition.
    uint64_t OrbitConfigs = 0;
    uint64_t OrbitStates = 0;
    /// Summed per-job thread CPU time (the condition's CPU cost; time a
    /// worker sat descheduled does not count).
    double JobSeconds = 0;
  };
  Bucket PerCondition[NumObConditions];
  /// Verdict-cache accounting, obligation-weighted: every obligation a
  /// keyed job evaluates counts as a hit (replayed from the cache) or a
  /// miss (evaluated, then recorded). Zero when no cache is attached.
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// Subset of Hits served by first-touch decodes from the disk tier.
    uint64_t DiskHits = 0;
    bool Enabled = false;
  };
  CacheStats Cache;
  /// Wall-clock of the scheduler run()s (all conditions together).
  double WallSeconds = 0;
  unsigned Threads = 1;

  Bucket totals() const;
  /// Merges \p Other into this (sums counters, maxes threads).
  void accumulate(const ObligationStats &Other);
  /// One-line human-readable rendering.
  std::string str() const;
};

/// The scheduler. Typical use:
///
///   ObligationScheduler Sched(Threads);
///   auto *G = Sched.group(ObCondition::LeftMovers);
///   auto Order = groupByStore(Arena, StoreOfEachPoint, ChunkSize);
///   for (size_t K = 0; K < Order->slices(); ++K)
///     Sched.add(G, {Order, Order->Cuts[K], Order->Cuts[K + 1]}, KeyFn,
///               [=](ObSink &S) { ... S.at(Local, Group) ... });
///   ... more groups ...
///   Sched.run();
///   CheckResult R = Sched.result(G);
///
/// Jobs across all groups share one pool; groups fold independently.
/// run() may be called once per scheduler instance.
class ObligationScheduler {
public:
  /// A group: the jobs over one quantifier universe, folding into
  /// per-channel CheckResults under one condition each.
  class Group;

  /// Takes its thread budget from \p Config.NumThreads (0 is treated as
  /// 1). Jobs run inline (no threads spawned) when the effective thread
  /// count is 1.
  explicit ObligationScheduler(const EngineConfig &Config);
  ~ObligationScheduler();
  ObligationScheduler(const ObligationScheduler &) = delete;
  ObligationScheduler &operator=(const ObligationScheduler &) = delete;

  /// Creates a group whose channel \p Channel folds under \p Conditions[Channel].
  /// Most groups have the single channel 0.
  Group *group(std::vector<ObCondition> Conditions);
  Group *group(ObCondition Condition) {
    return group(std::vector<ObCondition>{Condition});
  }

  /// Appends a job to \p G. Jobs must be safe to run concurrently with
  /// every other submitted job (shared arenas/caches are; job-local state
  /// must not be shared). A job without a slice emits at positions
  /// ordered after every earlier-submitted job's.
  void add(Group *G, std::function<void(ObSink &)> Job);

  /// Appends a job over \p Slice of its group's universe: the slice maps
  /// the job's point indices (ObSink::at) to universe positions for the
  /// fold. Slices of one group must not overlap. When \p KeyFn is
  /// non-null the job is cacheable: KeyFn computes its content
  /// fingerprint — a pure function of every input the job's obligations
  /// depend on (see semantics/Fingerprint.h). When a cache is attached,
  /// the scheduler evaluates KeyFn on the worker (fingerprinting
  /// parallelizes with everything else), probes the cache, and on a hit
  /// folds the recorded aggregates instead of running \p Job; on a miss
  /// it runs \p Job and records them. Without a cache, KeyFn is never
  /// called.
  void add(Group *G, ObSlice Slice, std::function<Fingerprint()> KeyFn,
           std::function<void(ObSink &)> Job);

  /// Attaches the verdict cache consulted by run(). Must precede run();
  /// the cache must outlive the scheduler. Null detaches.
  void setCache(ObligationCache *C) { Cache = C; }

  /// Runs every submitted job on the pool, then folds each group.
  void run();

  /// Annotates \p Condition's bucket with its quantifier universe under
  /// symmetry reduction: \p Reps orbit representatives standing for
  /// \p States unreduced configurations. Purely observational (stats
  /// only); may be called before or after run().
  void noteOrbits(ObCondition Condition, uint64_t Reps, uint64_t States);

  /// After run(): the merged result of \p G's channel \p Channel.
  const CheckResult &result(const Group *G, uint8_t Channel = 0) const;

  /// After run(): counts, failures and timings per condition.
  const ObligationStats &stats() const { return Stats; }

  unsigned threads() const { return Threads; }

private:
  struct JobSlot;
  void fold(Group &G);

  unsigned Threads;
  std::deque<Group> Groups;
  std::vector<JobSlot> Jobs;
  ObligationStats Stats;
  ObligationCache *Cache = nullptr;
  bool Ran = false;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_OBLIGATIONSCHEDULER_H
