//===- engine/ObligationScheduler.cpp - Parallel obligation checking ----------===//

#include "engine/ObligationScheduler.h"

#include "engine/ObligationCache.h"
#include "refine/Refinement.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>

using namespace isq;
using namespace isq::engine;

static_assert(ObAggregate::MaxIssues == CheckResult::MaxIssues,
              "aggregate diagnostic cap must match CheckResult's");

const char *engine::obConditionName(ObCondition C) {
  switch (C) {
  case ObCondition::SideConditions:
    return "side_conditions";
  case ObCondition::AbstractionRefinement:
    return "abstraction_refinement";
  case ObCondition::BaseCase:
    return "base_case";
  case ObCondition::Conclusion:
    return "conclusion";
  case ObCondition::InductiveStep:
    return "inductive_step";
  case ObCondition::LeftMovers:
    return "left_movers";
  case ObCondition::Cooperation:
    return "cooperation";
  case ObCondition::CrossCheck:
    return "cross_check";
  }
  return "<invalid>";
}

const char *engine::obConditionLabel(ObCondition C) {
  switch (C) {
  case ObCondition::SideConditions:
    return "side conditions";
  case ObCondition::AbstractionRefinement:
    return "P(A) ≼ α(A)";
  case ObCondition::BaseCase:
    return "(I1) base case";
  case ObCondition::Conclusion:
    return "(I2) conclusion";
  case ObCondition::InductiveStep:
    return "(I3) induction";
  case ObCondition::LeftMovers:
    return "(LM) left mover";
  case ObCondition::Cooperation:
    return "(CO) cooperation";
  case ObCondition::CrossCheck:
    return "P ≼ P' (empirical)";
  }
  return "<invalid>";
}

ObligationStats::Bucket ObligationStats::totals() const {
  Bucket T;
  for (const Bucket &B : PerCondition) {
    T.Jobs += B.Jobs;
    T.Units += B.Units;
    T.Obligations += B.Obligations;
    T.Failures += B.Failures;
    T.OrbitConfigs += B.OrbitConfigs;
    T.OrbitStates += B.OrbitStates;
    T.JobSeconds += B.JobSeconds;
  }
  return T;
}

void ObligationStats::accumulate(const ObligationStats &Other) {
  for (size_t I = 0; I < NumObConditions; ++I) {
    PerCondition[I].Jobs += Other.PerCondition[I].Jobs;
    PerCondition[I].Units += Other.PerCondition[I].Units;
    PerCondition[I].Obligations += Other.PerCondition[I].Obligations;
    PerCondition[I].Failures += Other.PerCondition[I].Failures;
    PerCondition[I].OrbitConfigs += Other.PerCondition[I].OrbitConfigs;
    PerCondition[I].OrbitStates += Other.PerCondition[I].OrbitStates;
    PerCondition[I].JobSeconds += Other.PerCondition[I].JobSeconds;
  }
  Cache.Hits += Other.Cache.Hits;
  Cache.Misses += Other.Cache.Misses;
  Cache.DiskHits += Other.Cache.DiskHits;
  Cache.Enabled = Cache.Enabled || Other.Cache.Enabled;
  WallSeconds += Other.WallSeconds;
  Threads = std::max(Threads, Other.Threads);
}

std::string ObligationStats::str() const {
  Bucket T = totals();
  std::string Out;
  Out += "obligations=" + std::to_string(T.Obligations);
  Out += " failures=" + std::to_string(T.Failures);
  Out += " jobs=" + std::to_string(T.Jobs);
  Out += " units=" + std::to_string(T.Units);
  if (T.OrbitStates > T.OrbitConfigs) {
    Out += " orbit-configs=" + std::to_string(T.OrbitConfigs);
    Out += " orbit-states=" + std::to_string(T.OrbitStates);
  }
  if (Cache.Enabled) {
    Out += " cache-hits=" + std::to_string(Cache.Hits);
    Out += " cache-misses=" + std::to_string(Cache.Misses);
    if (Cache.DiskHits)
      Out += " disk-hits=" + std::to_string(Cache.DiskHits);
  }
  Out += " threads=" + std::to_string(Threads);
  Out += " cpu=" + formatSeconds(T.JobSeconds) + "s";
  Out += " wall=" + formatSeconds(WallSeconds) + "s";
  return Out;
}

std::shared_ptr<const StoreGroupedOrder>
engine::groupByStore(const StateArena &Arena,
                     const std::vector<StoreId> &StoreOf, size_t ChunkSize) {
  // Rank the distinct stores by content fingerprint: handles depend on
  // interning order (racy across worker threads), and Store's own order
  // compares variables by symbol index (process history). A fingerprint
  // depends on the store's content alone, so the iteration order — and
  // with it every slice's cache key — is the same in every run.
  size_t N = StoreOf.size();
  // Dense index per distinct store, in first-seen order.
  std::unordered_map<StoreId, uint32_t> Dense;
  std::vector<uint32_t> DenseOf(N);
  std::vector<StoreId> Distinct;
  for (size_t I = 0; I < N; ++I) {
    auto [It, New] =
        Dense.emplace(StoreOf[I], static_cast<uint32_t>(Distinct.size()));
    if (New)
      Distinct.push_back(StoreOf[I]);
    DenseOf[I] = It->second;
  }
  std::vector<std::pair<Fingerprint, uint32_t>> ByContent;
  ByContent.reserve(Distinct.size());
  for (uint32_t D = 0; D < Distinct.size(); ++D)
    ByContent.push_back({fingerprintStore(Arena.store(Distinct[D])), D});
  std::sort(ByContent.begin(), ByContent.end());
  // Stores with equal fingerprints share a rank: still grouped, only
  // coarser — every store's points stay within one group.
  std::vector<uint32_t> RankOf(Distinct.size());
  uint32_t NumRanks = 0;
  for (size_t I = 0; I < ByContent.size(); ++I) {
    if (I == 0 || ByContent[I - 1].first < ByContent[I].first)
      ++NumRanks;
    RankOf[ByContent[I].second] = NumRanks - 1;
  }
  // Counting sort by rank: stable, so ties keep universe order.
  std::vector<size_t> Start(NumRanks + 1, 0);
  for (uint32_t D : DenseOf)
    ++Start[RankOf[D] + 1];
  for (uint32_t R = 0; R < NumRanks; ++R)
    Start[R + 1] += Start[R];
  auto Out = std::make_shared<StoreGroupedOrder>();
  Out->Order.resize(N);
  Out->Group.resize(N);
  for (size_t I = 0; I < N; ++I) {
    uint32_t R = RankOf[DenseOf[I]];
    size_t Slot = Start[R]++;
    Out->Order[Slot] = static_cast<uint32_t>(I);
    Out->Group[Slot] = R;
  }
  Out->Cuts.push_back(0);
  for (size_t Begin = 0; Begin < N;) {
    size_t End = std::min(N, Begin + std::max<size_t>(ChunkSize, 1));
    while (End < N && Out->Group[End] == Out->Group[End - 1])
      ++End;
    Out->Cuts.push_back(End);
    Begin = End;
  }
  return Out;
}

/// An ordered group of jobs over one universe. Channel I folds under
/// Conditions[I].
class ObligationScheduler::Group {
public:
  explicit Group(std::vector<ObCondition> Conditions)
      : Conditions(std::move(Conditions)) {
    Results.resize(this->Conditions.size());
  }

  std::vector<ObCondition> Conditions;
  /// Global indices into the scheduler's job list, in submission order.
  std::vector<size_t> JobIndices;
  std::vector<CheckResult> Results;
};

struct ObligationScheduler::JobSlot {
  std::function<void(ObSink &)> Fn;
  /// Content fingerprint of the job's inputs; evaluated on the worker
  /// when a cache is attached. Null for uncacheable jobs.
  std::function<Fingerprint()> KeyFn;
  ObSlice Slice;
  ObCondition Cond; // condition of channel 0, for timing attribution
  size_t NumChannels = 1;
  /// The job's per-channel aggregates (from its sink or the cache).
  std::vector<ObAggregate> Out;
  double Seconds = 0;
  bool CacheHit = false;
  bool FromDisk = false;
};

ObligationScheduler::ObligationScheduler(const EngineConfig &Config)
    : Threads(Config.NumThreads ? Config.NumThreads : 1) {
  Stats.Threads = Threads;
}

ObligationScheduler::~ObligationScheduler() = default;

ObligationScheduler::Group *
ObligationScheduler::group(std::vector<ObCondition> Conditions) {
  assert(!Ran && "cannot create groups after run()");
  assert(!Conditions.empty() && "a group needs at least one channel");
  Groups.emplace_back(std::move(Conditions));
  return &Groups.back();
}

void ObligationScheduler::add(Group *G,
                              std::function<void(ObSink &)> Job) {
  add(G, ObSlice(), nullptr, std::move(Job));
}

void ObligationScheduler::add(Group *G, ObSlice Slice,
                              std::function<Fingerprint()> KeyFn,
                              std::function<void(ObSink &)> Job) {
  assert(!Ran && "cannot submit jobs after run()");
  G->JobIndices.push_back(Jobs.size());
  JobSlot J;
  J.Fn = std::move(Job);
  J.KeyFn = std::move(KeyFn);
  J.Slice = std::move(Slice);
  J.Cond = G->Conditions[0];
  J.NumChannels = G->Conditions.size();
  Jobs.push_back(std::move(J));
}

namespace {

/// Whether aggregates recorded in the cache fit a job over \p Slice with
/// \p NumChannels channels: every retained position inside the slice and
/// no more diagnostics than failures. Blobs are checksummed, so this only
/// guards against a fingerprint collision turning into an out-of-range
/// position.
bool fitsSlice(const std::vector<ObAggregate> &Out, const ObSlice &Slice,
               size_t NumChannels) {
  if (Out.empty() || Out.size() > NumChannels)
    return false;
  size_t Size = Slice.End - Slice.Begin;
  for (const ObAggregate &A : Out) {
    if (A.Issues.size() > A.Failures)
      return false;
    if (Slice.Universe)
      for (const ObIssue &I : A.Issues)
        if (I.Local >= Size)
          return false;
  }
  return true;
}

} // namespace

void ObligationScheduler::run() {
  assert(!Ran && "run() may be called once");
  Ran = true;
  Timer Wall;

  size_t NumJobs = Jobs.size();
  unsigned Workers =
      static_cast<unsigned>(std::min<size_t>(Threads, NumJobs));
  // One job, cache-aware: probe before running, record after. Both the
  // fingerprinting (KeyFn) and the blob encode/decode happen here on the
  // worker, so cache overhead parallelizes with the checking itself.
  auto RunOne = [this](JobSlot &J) {
    ThreadCpuTimer T;
    Fingerprint Key;
    if (Cache && J.KeyFn) {
      Key = J.KeyFn();
      bool FromDisk = false;
      // A hit folds exactly like a fresh run: aggregates carry
      // slice-relative positions only.
      if (Cache->lookup(Key, J.Out, FromDisk) &&
          fitsSlice(J.Out, J.Slice, J.NumChannels)) {
        J.CacheHit = true;
        J.FromDisk = FromDisk;
        J.Seconds = T.elapsed();
        return;
      }
    }
    ObSink Sink;
    J.Fn(Sink);
    J.Out = std::move(Sink.Channels);
    if (Cache && J.KeyFn)
      Cache->insert(Key, J.Out);
    J.Seconds = T.elapsed();
  };
  if (Workers <= 1) {
    for (JobSlot &J : Jobs)
      RunOne(J);
  } else {
    std::atomic<size_t> Next{0};
    std::exception_ptr Error;
    std::mutex ErrorMutex;
    auto Work = [&]() {
      try {
        for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
             I < NumJobs; I = Next.fetch_add(1, std::memory_order_relaxed))
          RunOne(Jobs[I]);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!Error)
          Error = std::current_exception();
      }
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Workers - 1);
    for (unsigned I = 0; I + 1 < Workers; ++I)
      Pool.emplace_back(Work);
    Work();
    for (std::thread &T : Pool)
      T.join();
    if (Error)
      std::rethrow_exception(Error);
  }

  Stats.Cache.Enabled = Cache != nullptr;
  for (JobSlot &J : Jobs) {
    size_t CI = static_cast<size_t>(J.Cond);
    ++Stats.PerCondition[CI].Jobs;
    Stats.PerCondition[CI].JobSeconds += J.Seconds;
    if (Cache && J.KeyFn) {
      // Obligation-weighted cache accounting.
      uint64_t Obs = 0;
      for (const ObAggregate &A : J.Out)
        Obs += A.Obligations;
      if (J.CacheHit) {
        Stats.Cache.Hits += Obs;
        if (J.FromDisk)
          Stats.Cache.DiskHits += Obs;
      } else {
        Stats.Cache.Misses += Obs;
      }
    }
  }
  for (Group &G : Groups)
    fold(G);
  Stats.WallSeconds = Wall.elapsed();
}

void ObligationScheduler::fold(Group &G) {
  // Sum the counts per channel and keep the MaxIssues diagnostics with
  // the smallest universe positions — the serial loop's first MaxIssues
  // (see the header's determinism argument). Sliceless jobs order by
  // submission: the job ordinal breaks position ties.
  struct Ranked {
    uint64_t Position;
    size_t Job;
    uint32_t Seq;
    std::string *Message;
    bool operator<(const Ranked &O) const {
      return std::tie(Position, Job, Seq) < std::tie(O.Position, O.Job, O.Seq);
    }
  };
  std::vector<std::vector<Ranked>> Retained(G.Results.size());
  std::vector<uint64_t> Failures(G.Results.size(), 0);
  for (size_t Ordinal = 0; Ordinal < G.JobIndices.size(); ++Ordinal) {
    JobSlot &J = Jobs[G.JobIndices[Ordinal]];
    for (size_t Ch = 0; Ch < J.Out.size(); ++Ch) {
      ObAggregate &A = J.Out[Ch];
      assert(Ch < G.Results.size() && "channel out of range");
      size_t CI = static_cast<size_t>(G.Conditions[Ch]);
      Stats.PerCondition[CI].Units += A.Units;
      Stats.PerCondition[CI].Obligations += A.Obligations;
      Stats.PerCondition[CI].Failures += A.Failures;
      G.Results[Ch].addObligations(A.Obligations);
      Failures[Ch] += A.Failures;
      for (ObIssue &I : A.Issues)
        Retained[Ch].push_back(
            {J.Slice.position(I.Local), Ordinal, I.Seq, &I.Message});
    }
  }
  for (size_t Ch = 0; Ch < G.Results.size(); ++Ch) {
    std::vector<Ranked> &R = Retained[Ch];
    size_t Keep = std::min(R.size(), CheckResult::MaxIssues);
    std::partial_sort(R.begin(), R.begin() + Keep, R.end());
    for (size_t I = 0; I < Keep; ++I)
      G.Results[Ch].fail(*R[I].Message);
    G.Results[Ch].addFailures(Failures[Ch] - Keep);
  }
  // Aggregates are folded; release them before later groups fold.
  for (size_t JobIdx : G.JobIndices) {
    Jobs[JobIdx].Out.clear();
    Jobs[JobIdx].Out.shrink_to_fit();
  }
}

void ObligationScheduler::noteOrbits(ObCondition Condition, uint64_t Reps,
                                     uint64_t States) {
  ObligationStats::Bucket &B =
      Stats.PerCondition[static_cast<size_t>(Condition)];
  B.OrbitConfigs += Reps;
  B.OrbitStates += States;
}

const CheckResult &ObligationScheduler::result(const Group *G,
                                               uint8_t Channel) const {
  assert(Ran && "result() requires run()");
  assert(Channel < G->Results.size() && "channel out of range");
  return G->Results[Channel];
}
