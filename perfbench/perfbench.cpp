//===- perfbench/perfbench.cpp - End-to-end benchmark of the verifier ------===//
///
/// \file
/// isq-perfbench drives libisq's public API from one process and measures
/// what a user of `isq-verify` and `isq-serve` waits for. One invocation
/// runs one workload:
///
///  - paxos3-cold: Paxos R=2 N=3 with the documented artifacts, 4 threads,
///    cross-check on, no obligation cache. Exploration, the obligation
///    checkers and the cross-check do almost all the work.
///  - paxos3-edit: set-up verifies the same instance cold into an on-disk
///    obligation cache; every timed job restores that pristine image and
///    verifies a one-action edit that keeps the verdict. The checkers are
///    mostly bypassed; cache load/save, exploration and the cross-check
///    remain.
///  - serve-mix: an in-process serve::Server (2 workers, 1 thread per job)
///    queried by 2 ServeClient connections in a closed loop over small
///    shipped examples, with fixed shares of cold, edited and repeated
///    requests. Covers lang, serve and many small explorations.
///
/// With --trace 0 the program prints the end-to-end metrics; with
/// --trace 1 it alternates untraced and traced units of work, prints the
/// per-layer metrics of the traced ones, and writes their spans as Chrome
/// trace-event JSON. Spans are taken around the benchmark's own calls
/// into the library, or read from the verdict report (a rendering of
/// driver::VerifyResult); the args of every span name which.
///
/// Every verdict is checked against the expected one written below. The
/// last line of standard output is one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`.
///
/// Usage: isq-perfbench --workload W --seed N --seconds S --trace 0|1
///                      --root REPO --work-dir DIR [--trace-out FILE]
///                      [--command TEXT]
///
//===----------------------------------------------------------------------===//

#include "driver/ReportRender.h"
#include "driver/VerifyDriver.h"
#include "engine/ObligationCache.h"
#include "lang/Frontend.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Version.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace isq;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Process measurements
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double microsSinceStart(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - ProcessStart).count();
}

/// User plus system CPU of the whole process (all threads).
double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

/// Whether every reset of VmHWM succeeded; if not, peak_rss_mb also
/// covers what ran before the unit of work it is read after.
bool PeakRssReset = true;

/// Returns freed heap to the kernel and resets VmHWM to the current RSS,
/// so the peak read later covers only what follows.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.flush();
  PeakRssReset = PeakRssReset && static_cast<bool>(F);
}

/// VmHWM in MB.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024;
  return 0;
}

std::string firstLine(const std::string &Path) {
  std::ifstream F(Path);
  std::string Line;
  std::getline(F, Line);
  return Line;
}

std::string readFile(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << F.rdbuf();
  return S.str();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// A number with all its digits.
std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Linear-interpolated quantile (the "inclusive" definition).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

struct Tail {
  double Value = 0;
  double Percentile = 50;
  size_t Samples = 0;
};

/// The highest of the standard percentiles p99.9/p99/p95/p90/p75 that has
/// at least ten samples beyond it. A fixed ladder rather than 1 − 10/n
/// keeps the percentile at the same rank share in every run, so it does
/// not move between job types as the sample count varies. Runs with
/// fewer than 40 samples have no such percentile and report the median,
/// labelled p50.
Tail tailLatency(const std::vector<double> &V) {
  Tail T;
  T.Samples = V.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(V.size()) * (1 - P / 100) >= 10) {
      T.Percentile = P;
      T.Value = quantile(V, P / 100);
      return T;
    }
  }
  T.Value = median(V);
  return T;
}

//===----------------------------------------------------------------------===//
// Tracing: spans kept in memory, written as Chrome trace-event JSON
//===----------------------------------------------------------------------===//

class TraceLog {
public:
  /// Track ids: spans around calls the benchmark makes, durations the
  /// verdict report gives (placed at the start of their job, since the
  /// report has no start times), and the same two per serve client.
  enum Track { Calls = 1, Reported = 2, ClientBase = 10, ReportedBase = 20 };

  void span(const std::string &Name, Clock::time_point Start,
            Clock::time_point End, int Tid,
            std::vector<std::pair<std::string, std::string>> Args) {
    double S = microsSinceStart(Start);
    double D = std::chrono::duration<double, std::micro>(End - Start).count();
    std::lock_guard<std::mutex> Lock(M);
    Events.push_back({Name, S, D, Tid, std::move(Args)});
  }

  /// A duration read from the verdict report, shown as a span starting at
  /// \p JobStart.
  void reported(const std::string &Name, Clock::time_point JobStart,
                double Seconds, int Tid, const std::string &Job,
                const std::string &Field, const std::string &Unit) {
    auto End = JobStart + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(Seconds));
    span(Name, JobStart, End, Tid,
         {{"job", Job}, {"source", "report field " + Field}, {"unit", Unit}});
  }

  bool write(const std::string &Path,
             const std::map<std::string, std::string> &Meta) const {
    json::JsonWriter W;
    W.beginObject();
    W.key("displayTimeUnit").value("ms");
    W.key("otherData").beginObject();
    for (const auto &[K, V] : Meta)
      W.key(K).value(V);
    W.endObject();
    W.key("traceEvents").beginArray();
    auto ThreadName = [&](int Tid, const std::string &Name) {
      W.beginObject();
      W.key("name").value("thread_name");
      W.key("ph").value("M");
      W.key("pid").value(1);
      W.key("tid").value(Tid);
      W.key("args").beginObject().key("name").value(Name).endObject();
      W.endObject();
    };
    ThreadName(Calls, "benchmark calls into libisq");
    ThreadName(Reported, "durations read from the verdict report");
    for (int C = 0; C < 2; ++C) {
      std::string Client = "serve client " + std::to_string(C);
      ThreadName(ClientBase + C, Client + ": calls into libisq");
      ThreadName(ReportedBase + C, Client + ": durations from the report");
    }
    std::lock_guard<std::mutex> Lock(M);
    for (const Event &E : Events) {
      W.beginObject();
      W.key("name").value(E.Name);
      W.key("ph").value("X");
      W.key("pid").value(1);
      W.key("tid").value(E.Tid);
      W.key("ts").value(E.StartUs);
      W.key("dur").value(E.DurUs);
      W.key("args").beginObject();
      for (const auto &[K, V] : E.Args)
        W.key(K).value(V);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::ofstream F(Path);
    F << W.take() << '\n';
    return static_cast<bool>(F);
  }

private:
  struct Event {
    std::string Name;
    double StartUs;
    double DurUs;
    int Tid;
    std::vector<std::pair<std::string, std::string>> Args;
  };
  mutable std::mutex M;
  std::vector<Event> Events;
};

//===----------------------------------------------------------------------===//
// Verdict reports: flattened to path → number
//===----------------------------------------------------------------------===//

/// Numbers and booleans of a JSON document keyed by dotted path. Array
/// elements that are objects with a "name" member are keyed by that name
/// (the report's `conditions` array), others by index.
using Flat = std::map<std::string, double>;

class JsonFlattener {
public:
  explicit JsonFlattener(const std::string &Text) : S(Text) {}

  std::optional<Flat> run() {
    Flat Out;
    std::string Ignored;
    if (!value("", Out, Ignored))
      return std::nullopt;
    ws();
    if (I != S.size())
      return std::nullopt;
    return Out;
  }

private:
  void ws() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
  }

  bool string(std::string &Out) {
    if (S[I] != '"')
      return false;
    ++I;
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\') {
        if (I + 1 >= S.size())
          return false;
        char C = S[I + 1];
        I += C == 'u' ? 6 : 2;
        Out += C == 'n' ? '\n' : C == 't' ? '\t' : C == 'u' ? '?' : C;
        continue;
      }
      Out += S[I++];
    }
    if (I >= S.size())
      return false;
    ++I;
    return true;
  }

  /// Parses one value at \p Path into \p Out. \p Str receives the value
  /// when it is a string (so an enclosing array can key objects by name).
  bool value(const std::string &Path, Flat &Out, std::string &Str) {
    ws();
    if (I >= S.size())
      return false;
    char C = S[I];
    if (C == '{') {
      ++I;
      Flat Members;
      std::string Name;
      ws();
      if (I < S.size() && S[I] == '}') {
        ++I;
        return true;
      }
      while (true) {
        ws();
        std::string Key;
        if (I >= S.size() || !string(Key))
          return false;
        ws();
        if (I >= S.size() || S[I] != ':')
          return false;
        ++I;
        std::string Child;
        if (!value(Key, Members, Child))
          return false;
        if (Key == "name")
          Name = Child;
        ws();
        if (I < S.size() && S[I] == ',') {
          ++I;
          continue;
        }
        if (I < S.size() && S[I] == '}') {
          ++I;
          break;
        }
        return false;
      }
      Str = "\x01" + Name; // marks an object; carries its name
      for (auto &[K, V] : Members)
        Out[Path.empty() ? K : Path + "." + K] = V;
      return true;
    }
    if (C == '[') {
      ++I;
      ws();
      if (I < S.size() && S[I] == ']') {
        ++I;
        return true;
      }
      for (size_t Index = 0;; ++Index) {
        Flat Element;
        std::string Child;
        if (!value("", Element, Child))
          return false;
        std::string Key = Child.size() > 1 && Child[0] == '\x01'
                              ? Child.substr(1)
                              : std::to_string(Index);
        for (auto &[K, V] : Element)
          Out[Path + "." + Key + (K.empty() ? "" : "." + K)] = V;
        ws();
        if (I < S.size() && S[I] == ',') {
          ++I;
          continue;
        }
        if (I < S.size() && S[I] == ']') {
          ++I;
          return true;
        }
        return false;
      }
    }
    if (C == '"')
      return string(Str);
    auto Word = [&](const char *W) {
      size_t N = std::strlen(W);
      if (S.compare(I, N, W) != 0)
        return false;
      I += N;
      return true;
    };
    if (Word("true")) {
      Out[Path] = 1;
      return true;
    }
    if (Word("false")) {
      Out[Path] = 0;
      return true;
    }
    if (Word("null"))
      return true;
    const char *Begin = S.c_str() + I;
    char *End = nullptr;
    double D = std::strtod(Begin, &End);
    if (End == Begin)
      return false;
    I += static_cast<size_t>(End - Begin);
    Out[Path] = D;
    return true;
  }

  const std::string &S;
  size_t I = 0;
};

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

/// The seven IS conditions as the report names them, and the per-layer
/// metric prefix of each.
const std::pair<const char *, const char *> Conditions[] = {
    {"side_conditions", "is.side"},
    {"abstraction_refinement", "refine.abstraction"},
    {"base_case", "is.base"},
    {"conclusion", "is.conclusion"},
    {"inductive_step", "is.step"},
    {"left_movers", "movers.lm"},
    {"cooperation", "is.cooperation"},
};

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// Every per-layer metric, in print order. A workload that bypasses a
/// layer reports 0 for it. Each group names the end-to-end metric it
/// should move, and on which workload.
std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M = {
      // lang: verdict_s on serve-mix; no change on the paxos workloads.
      {"lang.compile_s", "s"},
      // engine/explorer: verdict_s, cpu_s and peak_rss_mb on paxos3-cold,
      // verdict_s on paxos3-edit. semantics (canonicalization): the same.
      {"engine.explore_s", "s"},
      {"engine.expand_cpu_s", "s"},
      {"engine.merge_s", "s"},
      {"engine.configs", "count"},
      {"engine.transitions", "count"},
      {"engine.interned_configs", "count"},
      {"engine.frontier_peak", "count"},
      {"engine.steals", "count"},
      {"engine.hashcons_hit_rate", "ratio"},
      {"engine.transition_cache_hit_rate", "ratio"},
      {"semantics.canon_calls", "count"},
      {"semantics.canon_hit_rate", "ratio"},
      // The obligation scheduler and the is/movers/refine checkers:
      // verdict_s and cpu_s on paxos3-cold; little change on paxos3-edit.
      // sched_units is the base of sched_useful_ratio.
      {"engine.sched_wall_s", "s"},
      {"engine.sched_cpu_s", "s"},
      {"engine.sched_useful_ratio", "ratio"},
      {"engine.sched_units", "count"},
  };
  for (const auto &[Report, Prefix] : Conditions) {
    M.push_back({std::string(Prefix) + ".cpu_s", "s"});
    M.push_back({std::string(Prefix) + ".obligations", "count"});
  }
  for (MetricDef D : std::vector<MetricDef>{
           // ObligationCache: verdict_s and setup_s on paxos3-edit,
           // jobs_per_s on serve-mix.
           {"engine.cache_hits", "count"},
           {"engine.cache_misses", "count"},
           {"engine.cache_disk_hits", "count"},
           {"engine.cache_hit_rate", "ratio"},
           {"engine.cache_load_s", "s"},
           {"engine.cache_save_s", "s"},
           // Cross-check: verdict_s on both paxos workloads.
           {"refine.crosscheck_s", "s"},
           {"refine.crosscheck_configs", "count"},
           // serve: jobs_per_s and verdict_tail_s on serve-mix only.
           {"serve.queue_wait_s", "s"},
           {"serve.job_run_s", "s"},
           {"serve.hit_latency_s", "s"},
           {"serve.verdict_cache_hits", "count"},
           {"serve.coalesced", "count"},
           {"serve.busy_retries", "count"},
           {"trace.overhead_ratio", "ratio"},
       })
    M.push_back(D);
  return M;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Sums the report fields of the verifications in one traced unit of work
/// (a job, or a serve pass) and turns them into per-layer metrics.
class LayerTotals {
public:
  void addReport(const Flat &R) {
    for (const auto &[K, V] : R) {
      if (K == "engine.frontier_peak")
        Sum[K] = std::max(Sum[K], V);
      else
        Sum[K] += V;
    }
  }
  void add(const std::string &Metric, double V) { Extra[Metric] += V; }

  std::map<std::string, double> metrics() const {
    auto F = [&](const std::string &K) {
      auto It = Sum.find(K);
      return It == Sum.end() ? 0.0 : It->second;
    };
    std::map<std::string, double> M = Extra;
    M["engine.explore_s"] = F("engine.total_seconds");
    M["engine.expand_cpu_s"] = F("engine.expand_seconds");
    M["engine.merge_s"] = F("engine.merge_seconds");
    M["engine.configs"] = F("engine.configurations");
    M["engine.transitions"] = F("engine.transitions");
    M["engine.interned_configs"] = F("engine.interned_configs");
    M["engine.frontier_peak"] = F("engine.frontier_peak");
    M["engine.steals"] = F("engine.steals");
    M["engine.hashcons_hit_rate"] =
        ratio(F("engine.hash_cons_hits"), F("engine.hash_cons_lookups"));
    M["engine.transition_cache_hit_rate"] =
        ratio(F("engine.transition_cache_hits"),
              F("engine.transition_cache_lookups"));
    M["semantics.canon_calls"] = F("engine.canon_calls");
    M["semantics.canon_hit_rate"] =
        ratio(F("engine.canon_cache_hits"), F("engine.canon_calls"));
    M["engine.sched_wall_s"] = F("scheduler.wall_seconds");
    M["engine.sched_cpu_s"] = F("scheduler.cpu_seconds");
    M["engine.sched_useful_ratio"] =
        F("scheduler.units") > 0
            ? 1 - F("scheduler.dedup_discarded") / F("scheduler.units")
            : 0;
    M["engine.sched_units"] = F("scheduler.units");
    for (const auto &[Report, Prefix] : Conditions) {
      std::string Base = std::string("conditions.") + Report;
      M[std::string(Prefix) + ".cpu_s"] = F(Base + ".seconds");
      M[std::string(Prefix) + ".obligations"] = F(Base + ".obligations");
    }
    M["engine.cache_hits"] = F("obligations.cache_hits");
    M["engine.cache_misses"] = F("obligations.cache_misses");
    M["engine.cache_disk_hits"] = F("obligations.disk_hits");
    M["engine.cache_hit_rate"] =
        ratio(F("obligations.cache_hits"),
              F("obligations.cache_hits") + F("obligations.cache_misses"));
    M["refine.crosscheck_s"] = F("cross_check.seconds");
    M["refine.crosscheck_configs"] =
        F("cross_check.configs_p") + F("cross_check.configs_p_prime");
    return M;
  }

private:
  Flat Sum;
  std::map<std::string, double> Extra;
};

/// Records, on the "reported" track, the phase durations the verdict
/// report gives for one verification that started at \p Start.
void traceReportedPhases(TraceLog &T, Clock::time_point Start, const Flat &R,
                         int Tid, const std::string &Job) {
  auto Get = [&](const std::string &K) {
    auto It = R.find(K);
    return It == R.end() ? 0.0 : It->second;
  };
  T.reported("engine: explorations", Start, Get("engine.total_seconds"), Tid,
             Job,
             "engine.total_seconds (VerifyResult.Engine.TotalSeconds)", "s");
  T.reported("engine: obligation scheduler", Start,
             Get("scheduler.wall_seconds"), Tid, Job,
             "scheduler.wall_seconds "
             "(VerifyResult.Report.Scheduler.WallSeconds)",
             "s");
  for (const auto &[Report, Prefix] : Conditions)
    T.reported(std::string(Prefix) + ": summed job time", Start,
               Get(std::string("conditions.") + Report + ".seconds"), Tid,
               Job,
               std::string("conditions.") + Report +
                   ".seconds (VerifyResult.Report.Scheduler.PerCondition"
                   "[].JobSeconds)",
               "s (CPU-side, summed over jobs)");
  T.reported("refine: cross-check", Start, Get("cross_check.seconds"), Tid,
             Job,
             "cross_check.seconds (VerifyResult.CrossCheck.Seconds)", "s");
}

//===----------------------------------------------------------------------===//
// Inputs: the shipped examples, their proof artifacts and expected verdicts
//===----------------------------------------------------------------------===//

/// A one-action edit that keeps the verdict: \p Old must occur exactly
/// once in the module and is replaced by \p New.
struct Edit {
  const char *Name;
  const char *Old;
  const char *New;
};

std::string applyEdit(const std::string &Source, const Edit &E) {
  size_t At = Source.find(E.Old);
  if (At == std::string::npos ||
      Source.find(E.Old, At + 1) != std::string::npos)
    throw std::runtime_error(std::string("edit '") + E.Name +
                             "' does not match its module exactly once");
  return Source.substr(0, At) + E.New + Source.substr(At + strlen(E.Old));
}

const Edit PaxosMainPeelFirst = {"paxos Main: peel first round",
                                 "action Main() {\n"
                                 "  for r in 1 .. R {\n"
                                 "    async StartRound(r);\n"
                                 "  }\n"
                                 "}",
                                 "action Main() {\n"
                                 "  async StartRound(1);\n"
                                 "  for r in 2 .. R {\n"
                                 "    async StartRound(r);\n"
                                 "  }\n"
                                 "}"};
const Edit PaxosMainPeelLast = {"paxos Main: peel last round",
                                PaxosMainPeelFirst.Old,
                                "action Main() {\n"
                                "  for r in 1 .. R - 1 {\n"
                                "    async StartRound(r);\n"
                                "  }\n"
                                "  async StartRound(R);\n"
                                "}"};
const Edit PaxosStartRoundReorder = {"paxos StartRound: propose first",
                                     "action StartRound(r: int) {\n"
                                     "  for nd in 1 .. N {\n"
                                     "    async Join(r, nd);\n"
                                     "  }\n"
                                     "  async Propose(r);\n"
                                     "}",
                                     "action StartRound(r: int) {\n"
                                     "  async Propose(r);\n"
                                     "  for nd in 1 .. N {\n"
                                     "    async Join(r, nd);\n"
                                     "  }\n"
                                     "}"};

/// One verification request over a shipped example.
struct Instance {
  std::string Name;
  std::string File; ///< relative to examples/asl
  std::map<std::string, int64_t> Consts;
  bool ArgMajor = false;
  std::vector<std::string> Eliminate;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;
  /// Expected verdict, written by hand from the example's documentation.
  bool ExpectAccepted = true;
  const Edit *EditOp = nullptr;

  serve::SubmitRequest request(const std::string &Source) const {
    serve::SubmitRequest R;
    R.Source = Source;
    R.Consts = Consts;
    R.Eliminate = Eliminate;
    R.ArgMajor = ArgMajor;
    R.Abstractions = Abstractions;
    R.Weights = Weights;
    R.CrossCheck = true;
    return R;
  }
};

/// Paxos with the documented artifacts; weights must dominate the
/// fan-out (StartRound > N + Propose, Propose > N + Conclude).
Instance paxos(int64_t R, int64_t N, uint64_t StartRoundWeight,
               uint64_t ProposeWeight) {
  Instance I;
  I.Name = "paxos R=" + std::to_string(R) + " N=" + std::to_string(N);
  I.File = "paxos.asl";
  I.Consts = {{"R", R}, {"N", N}};
  I.ArgMajor = true;
  I.Eliminate = {"StartRound", "Join", "Propose", "Vote", "Conclude"};
  I.Abstractions = {{"Join", "JoinAbs"},
                    {"Propose", "ProposeAbs"},
                    {"Vote", "VoteAbs"},
                    {"Conclude", "ConcludeAbs"}};
  I.Weights = {{"StartRound", StartRoundWeight},
               {"Propose", ProposeWeight},
               {"Conclude", 2}};
  I.EditOp = &PaxosMainPeelFirst;
  return I;
}

/// Paxos R=2 N=3, the flagship (Table 1's most expensive row).
Instance flagship() { return paxos(2, 3, 11, 6); }

const Edit TwoPcRequestVotesPeel = {"2pc RequestVotes: peel participant 1",
                                    "action RequestVotes() {\n"
                                    "  for i in 1 .. n {\n"
                                    "    reqCh[i] := insert(reqCh[i], 1);\n"
                                    "    async Vote(i);\n"
                                    "  }",
                                    "action RequestVotes() {\n"
                                    "  reqCh[1] := insert(reqCh[1], 1);\n"
                                    "  async Vote(1);\n"
                                    "  for i in 2 .. n {\n"
                                    "    reqCh[i] := insert(reqCh[i], 1);\n"
                                    "    async Vote(i);\n"
                                    "  }"};
const Edit BroadcastMainPeel = {"broadcast Main: peel node 1",
                                "action Main() {\n"
                                "  for i in 1 .. n {\n"
                                "    async Broadcast(i);\n"
                                "    async Collect(i);\n"
                                "  }\n"
                                "}",
                                "action Main() {\n"
                                "  async Broadcast(1);\n"
                                "  async Collect(1);\n"
                                "  for i in 2 .. n {\n"
                                "    async Broadcast(i);\n"
                                "    async Collect(i);\n"
                                "  }\n"
                                "}"};
const Edit ChangRobertsMainPeel = {"chang-roberts Main: peel node 1",
                                   "action Main() {\n"
                                   "  for i in 1 .. n {\n"
                                   "    async Init(i);\n"
                                   "  }\n"
                                   "}",
                                   "action Main() {\n"
                                   "  async Init(1);\n"
                                   "  for i in 2 .. n {\n"
                                   "    async Init(i);\n"
                                   "  }\n"
                                   "}"};
const Edit PingPongMainSwap = {"ping-pong Main: create Pong first",
                               "action Main() {\n"
                               "  async Ping(1);\n"
                               "  async Pong(1);\n"
                               "}",
                               "action Main() {\n"
                               "  async Pong(1);\n"
                               "  async Ping(1);\n"
                               "}"};
const Edit ProducerConsumerMainSwap = {"producer-consumer Main: create "
                                       "Consumer first",
                                       "action Main() {\n"
                                       "  async Producer(1);\n"
                                       "  async Consumer(1);\n"
                                       "}",
                                       "action Main() {\n"
                                       "  async Consumer(1);\n"
                                       "  async Producer(1);\n"
                                       "}"};

Instance twoPhaseCommit(int64_t N) {
  Instance I;
  I.Name = "2pc n=" + std::to_string(N);
  I.File = "two_phase_commit.asl";
  I.Consts = {{"n", N}};
  I.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  I.Abstractions = {{"Decide", "DecideAbs"}};
  // 8/4 proves n=3; n=4 needs 10/5 and is REJECTED with 8/4.
  I.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  I.EditOp = &TwoPcRequestVotesPeel;
  return I;
}

Instance changRoberts(int64_t N) {
  Instance I;
  I.Name = "chang-roberts n=" + std::to_string(N);
  I.File = "chang_roberts.asl";
  I.Consts = {{"n", N}};
  I.ArgMajor = true;
  I.Eliminate = {"Init", "Handle"};
  I.Weights = {{"Init", 2}};
  I.EditOp = &ChangRobertsMainPeel;
  return I;
}

Instance broadcast(int64_t N) {
  Instance I;
  I.Name = "broadcast n=" + std::to_string(N);
  I.File = "broadcast.asl";
  I.Consts = {{"n", N}};
  I.Eliminate = {"Broadcast", "Collect"};
  I.Abstractions = {{"Collect", "CollectAbs"}};
  I.EditOp = &BroadcastMainPeel;
  return I;
}

Instance producerConsumer(int64_t T) {
  Instance I;
  I.Name = "producer-consumer T=" + std::to_string(T);
  I.File = "producer_consumer.asl";
  I.Consts = {{"T", T}};
  I.ArgMajor = true;
  I.Eliminate = {"Producer", "Consumer"};
  I.Abstractions = {{"Consumer", "ConsumerAbs"}};
  I.EditOp = &ProducerConsumerMainSwap;
  return I;
}

Instance pingPong(int64_t T) {
  Instance I;
  I.Name = "ping-pong T=" + std::to_string(T);
  I.File = "ping_pong.asl";
  I.Consts = {{"T", T}};
  I.ArgMajor = true;
  I.Eliminate = {"Ping", "Pong"};
  I.Abstractions = {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}};
  I.EditOp = &PingPongMainSwap;
  return I;
}

/// Loads an example as a self-contained module. Wire sources cannot
/// import, so `import "F";` lines are replaced by the imported file's
/// text, which is what the module resolver splices in for a file input
/// (imported declarations precede the importer's).
std::string loadModule(const std::string &ExamplesDir,
                       const std::string &File) {
  std::string Source = readFile(ExamplesDir + "/" + File);
  std::string Out;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    const std::string Prefix = "import \"";
    if (Line.rfind(Prefix, 0) == 0) {
      size_t Close = Line.find('"', Prefix.size());
      if (Close == std::string::npos)
        throw std::runtime_error("bad import line in " + File);
      Out += readFile(ExamplesDir + "/" +
                      Line.substr(Prefix.size(), Close - Prefix.size()));
      Out += '\n';
      continue;
    }
    Out += Line + '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string Root;
  std::string WorkDir;
  std::string TraceOut;
  std::string Command;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::string Note;
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Run-level checks (determinism, class counts) that failed.
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;

  void fail(const std::string &Why) {
    if (Errors.size() < 20)
      Errors.push_back(Why);
  }
  /// Counts one job; \p Why non-empty marks it failed.
  void job(const std::string &Why) {
    ++Attempted;
    if (!Why.empty()) {
      ++Failed;
      fail(Why);
    }
  }
};

/// Per-layer metrics: the median over traced units of each metric, plus
/// the tracing overhead (median traced unit wall time over the median
/// untraced one).
void finishPerLayer(Outcome &O,
                    const std::vector<std::map<std::string, double>> &Units,
                    const std::vector<double> &TracedWall,
                    const std::vector<double> &UntracedWall,
                    const std::string &UnitName) {
  for (const MetricDef &D : perLayerMetrics()) {
    std::vector<double> V;
    for (const auto &U : Units) {
      auto It = U.find(D.Name);
      V.push_back(It == U.end() ? 0 : It->second);
    }
    O.Metrics.push_back({D.Name, median(V), D.Unit,
                         "median over " + std::to_string(Units.size()) +
                             " traced " + UnitName + "(s)"});
  }
  for (Metric &M : O.Metrics)
    if (M.Name == "trace.overhead_ratio") {
      M.Value = ratio(median(TracedWall), median(UntracedWall));
      M.Note = "median traced " + UnitName + " wall over median untraced (" +
               std::to_string(TracedWall.size()) + " traced, " +
               std::to_string(UntracedWall.size()) + " untraced)";
    }
}

/// One job per latency: the verdicts per second of each job's wall time.
std::vector<double> perSecond(const std::vector<double> &Latencies) {
  std::vector<double> Rates;
  for (double L : Latencies)
    Rates.push_back(1 / L);
  return Rates;
}

/// The end-to-end metrics. \p UnitRates holds, per timed unit of work (a
/// job, or a serve pass), the verdicts it completed per second of its
/// wall time in the closed loop; jobs_per_s is their median.
void endToEnd(Outcome &O, const std::vector<double> &Latencies,
              const std::vector<double> &UnitRates,
              const std::vector<double> &CpuPerJob,
              const std::vector<double> &PeakMb,
              const std::vector<double> &SetupS) {
  Tail T = tailLatency(Latencies);
  char Note[128];
  std::snprintf(Note, sizeof(Note), "p%g of %zu samples", T.Percentile,
                T.Samples);
  O.Metrics = {
      {"verdict_s", median(Latencies), "s",
       "median of " + std::to_string(Latencies.size()) + " samples"},
      {"verdict_tail_s", T.Value, "s", Note},
      {"jobs_per_s", median(UnitRates), "1/s",
       "closed loop, median over " + std::to_string(UnitRates.size()) +
           " timed units"},
      {"cpu_s", median(CpuPerJob), "s",
       "process user+sys CPU per job, median of " +
           std::to_string(CpuPerJob.size())},
      {"peak_rss_mb", median(PeakMb), "MB",
       "median over " + std::to_string(PeakMb.size()) +
           " timed units of VmHWM" +
           (PeakRssReset ? ", reset before each"
                         : "; the reset failed, so it includes set-up")},
      {"setup_s", median(SetupS), "s",
       "median of " + std::to_string(SetupS.size()) + " set-ups"},
  };
}

/// Whether the next unit of work is traced: --trace 1 alternates untraced
/// and traced units, starting untraced.
bool tracedUnit(const Args &A, size_t Unit) { return A.Trace && Unit % 2 == 1; }

/// Whether the loop is done: the measuring time has passed and, in a
/// traced run, both kinds of unit have run.
bool loopDone(const Args &A, Clock::time_point T0, size_t Units) {
  return secondsSince(T0) >= A.Seconds && (!A.Trace || Units >= 2);
}

//===----------------------------------------------------------------------===//
// paxos3-cold and paxos3-edit
//===----------------------------------------------------------------------===//

constexpr unsigned PaxosThreads = 4;
/// Set-ups per run of the workloads whose set-up takes about a
/// millisecond; setup_s is their median.
constexpr int CheapSetups = 9;

/// One in-process verification job and what it measured.
struct JobRun {
  driver::VerifyResult Result;
  Flat Report;
  double WallS = 0;
  double CpuS = 0;
};

/// Runs one verification. With \p CacheDir set the job owns a disk-backed
/// obligation cache: it loads it, passes it as SharedCache, and saves it,
/// as `isq-verify --engine cache-dir=` does. When \p Traced, the compile,
/// cache load, verification and save are each timed as spans, and the
/// report's phase durations are added beside them.
JobRun runJob(driver::VerifyOptions Options, const std::string &CacheDir,
              bool Traced, TraceLog &T, LayerTotals *Layers,
              const std::string &JobLabel) {
  JobRun J;
  std::vector<std::pair<std::string, std::string>> Tag = {{"job", JobLabel}};
  auto Call = [&](const std::string &What) {
    auto A = Tag;
    A.push_back({"call", What});
    return A;
  };
  double Cpu0 = processCpuSeconds();
  Clock::time_point Start = Clock::now();
  if (Traced) {
    std::vector<asl::Diagnostic> Diags;
    Clock::time_point C0 = Clock::now();
    asl::frontend::compileSource(Options.Source, Options.SourcePath,
                                 Options.Consts, Options.Frontend, Diags);
    Clock::time_point C1 = Clock::now();
    T.span("lang: compile", C0, C1, TraceLog::Calls,
           Call("isq::asl::frontend::compileSource"));
    Layers->add("lang.compile_s", std::chrono::duration<double>(C1 - C0).count());
  }
  std::optional<engine::ObligationCache> Cache;
  if (!CacheDir.empty()) {
    Clock::time_point L0 = Clock::now();
    engine::ObligationCache::Options CacheOpts;
    CacheOpts.Dir = CacheDir;
    Cache.emplace(std::move(CacheOpts));
    Clock::time_point L1 = Clock::now();
    if (Traced) {
      T.span("engine: obligation cache load", L0, L1, TraceLog::Calls,
             Call("isq::engine::ObligationCache(Options{Dir})"));
      Layers->add("engine.cache_load_s",
                  std::chrono::duration<double>(L1 - L0).count());
    }
    Options.SharedCache = &*Cache;
  }
  Clock::time_point V0 = Clock::now();
  J.Result = driver::verifyModule(Options);
  Clock::time_point V1 = Clock::now();
  if (Cache) {
    std::string Error;
    if (!Cache->save(Error))
      throw std::runtime_error("obligation cache save failed: " + Error);
    Clock::time_point S1 = Clock::now();
    if (Traced) {
      T.span("engine: obligation cache save", V1, S1, TraceLog::Calls,
             Call("isq::engine::ObligationCache::save"));
      Layers->add("engine.cache_save_s",
                  std::chrono::duration<double>(S1 - V1).count());
    }
  }
  J.WallS = secondsSince(Start);
  J.CpuS = processCpuSeconds() - Cpu0;
  std::printf("%s%s: wall %s s, cpu %s s\n", JobLabel.c_str(),
              Traced ? " (traced)" : "", num(J.WallS).c_str(),
              num(J.CpuS).c_str());
  std::optional<Flat> Report =
      JsonFlattener(driver::renderJson(J.Result)).run();
  if (!Report)
    throw std::runtime_error("unparseable verdict report");
  J.Report = std::move(*Report);
  if (Traced) {
    T.span("driver: verifyModule", V0, V1, TraceLog::Calls,
           Call("isq::driver::verifyModule"));
    traceReportedPhases(T, V0, J.Report, TraceLog::Reported, JobLabel);
    Layers->addReport(J.Report);
  }
  return J;
}

/// Checks an in-process verdict against the expected one.
std::string checkVerdict(const JobRun &J, bool ExpectAccepted) {
  const driver::VerifyResult &R = J.Result;
  if (!R.CompileOk || !R.InputOk)
    return "compile or input error";
  if (R.Accepted != ExpectAccepted)
    return std::string("expected ") +
           (ExpectAccepted ? "ACCEPTED" : "REJECTED") + ", got " +
           (R.Accepted ? "ACCEPTED" : "REJECTED");
  if (ExpectAccepted && !R.CrossCheck.Ran)
    return "cross-check did not run";
  return "";
}

double get(const Flat &F, const std::string &K) {
  auto It = F.find(K);
  return It == F.end() ? 0 : It->second;
}

driver::VerifyOptions flagshipOptions(const std::string &Source,
                                      bool Incremental) {
  driver::VerifyOptions O =
      serve::toVerifyOptions(flagship().request(Source), PaxosThreads);
  O.Engine.Incremental = Incremental;
  return O;
}

Outcome paxosCold(const Args &A, TraceLog &T) {
  Outcome O;
  std::string Examples = A.Root + "/examples/asl";
  // Set-up: load the module and compile it once, so a bad module fails
  // before anything is timed.
  std::vector<double> SetupS;
  std::string Source;
  for (int K = 0; K < CheapSetups; ++K) {
    Clock::time_point S0 = Clock::now();
    Source = loadModule(Examples, "paxos.asl");
    std::vector<asl::Diagnostic> Diags;
    if (!asl::frontend::compileSource(Source, "", flagship().Consts,
                                      asl::frontend::FrontendVersion::V2,
                                      Diags))
      throw std::runtime_error("paxos.asl does not compile");
    SetupS.push_back(secondsSince(S0));
  }
  driver::VerifyOptions Options = flagshipOptions(Source, false);

  std::vector<double> Latency, Cpu, Peak, TracedWall, UntracedWall;
  std::vector<std::map<std::string, double>> Units;
  double Obligations = -1;
  Clock::time_point T0 = Clock::now();
  for (size_t U = 0; !loopDone(A, T0, U); ++U) {
    bool Traced = tracedUnit(A, U);
    LayerTotals Layers;
    resetPeakRss();
    JobRun J = runJob(Options, "", Traced, T, &Layers,
                      "paxos3-cold #" + std::to_string(U));
    double JobPeak = peakRssMb();
    std::string Why = checkVerdict(J, true);
    if (Why.empty() && get(J.Report, "obligations.cache_enabled") != 0)
      Why = "obligation cache was attached";
    double Total = get(J.Report, "obligations.total");
    if (Why.empty() && Obligations >= 0 && Total != Obligations)
      Why = "obligation count differs between identical jobs";
    Obligations = Total;
    O.job(Why);
    (Traced ? TracedWall : UntracedWall).push_back(J.WallS);
    if (Traced) {
      Units.push_back(Layers.metrics());
      continue;
    }
    Latency.push_back(J.WallS);
    Cpu.push_back(J.CpuS);
    Peak.push_back(JobPeak);
  }
  if (A.Trace) {
    finishPerLayer(O, Units, TracedWall, UntracedWall, "job");
    return O;
  }
  endToEnd(O, Latency, perSecond(Latency), Cpu, Peak, SetupS);
  return O;
}

/// Replaces the contents of \p Dir with a copy of \p From.
void restoreDir(const std::string &From, const std::string &Dir) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  for (const fs::directory_entry &E : fs::directory_iterator(From))
    fs::copy_file(E.path(), fs::path(Dir) / E.path().filename());
}

Outcome paxosEdit(const Args &A, TraceLog &T) {
  Outcome O;
  std::string Examples = A.Root + "/examples/asl";
  std::string Pristine = A.WorkDir + "/pristine";
  std::string Dir = A.WorkDir + "/cache";

  // Set-up, three times: a cold verification into an empty cache
  // directory, persisted. The last image is the pristine one every timed
  // job starts from.
  std::vector<double> SetupS;
  std::string Source;
  for (int K = 0; K < 3; ++K) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    Clock::time_point S0 = Clock::now();
    Source = loadModule(Examples, "paxos.asl");
    LayerTotals Unused;
    JobRun J = runJob(flagshipOptions(Source, true), Dir, false, T, &Unused,
                      "set-up");
    SetupS.push_back(secondsSince(S0));
    std::string Why = checkVerdict(J, true);
    if (Why.empty() && (get(J.Report, "obligations.cache_hits") != 0 ||
                        get(J.Report, "obligations.cache_misses") == 0))
      Why = "set-up verification was not cold";
    if (!Why.empty())
      throw std::runtime_error("paxos3-edit set-up failed: " + Why);
  }
  fs::remove_all(Pristine);
  fs::rename(Dir, Pristine);

  // The timed jobs cycle through the edits in rounds, each round in a
  // seed-drawn order, so every run measures the same mix.
  std::vector<const Edit *> Edits = {&PaxosMainPeelFirst, &PaxosMainPeelLast,
                                     &PaxosStartRoundReorder};
  std::vector<std::string> Edited;
  for (const Edit *E : Edits)
    Edited.push_back(applyEdit(Source, *E));
  Rng R(A.Seed * 0x9e3779b97f4a7c15ULL + 1);

  std::vector<double> Latency, Cpu, Peak, TracedWall, UntracedWall;
  std::vector<std::map<std::string, double>> Units;
  std::map<size_t, std::pair<double, double>> HitsMisses;
  Clock::time_point T0 = Clock::now();
  size_t U = 0;
  while (!loopDone(A, T0, U)) {
    std::vector<size_t> Order = {0, 1, 2};
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    for (size_t E : Order) {
      bool Traced = tracedUnit(A, U);
      restoreDir(Pristine, Dir);
      LayerTotals Layers;
      resetPeakRss();
      JobRun J = runJob(flagshipOptions(Edited[E], true), Dir, Traced, T,
                        &Layers,
                        "paxos3-edit #" + std::to_string(U) + " (" +
                            Edits[E]->Name + ")");
      double JobPeak = peakRssMb();
      ++U;
      std::string Why = checkVerdict(J, true);
      double Hits = get(J.Report, "obligations.cache_hits");
      double Misses = get(J.Report, "obligations.cache_misses");
      if (Why.empty() && (get(J.Report, "obligations.disk_hits") == 0 ||
                          Misses == 0))
        Why = "edit did not replay from the disk image";
      auto [It, New] = HitsMisses.emplace(E, std::make_pair(Hits, Misses));
      if (Why.empty() && !New && It->second != std::make_pair(Hits, Misses))
        Why = std::string("cache hits/misses differ between repeats of '") +
              Edits[E]->Name + "'";
      O.job(Why);
      (Traced ? TracedWall : UntracedWall).push_back(J.WallS);
      if (Traced) {
        Units.push_back(Layers.metrics());
        continue;
      }
      Latency.push_back(J.WallS);
      Cpu.push_back(J.CpuS);
      Peak.push_back(JobPeak);
    }
  }
  if (A.Trace) {
    finishPerLayer(O, Units, TracedWall, UntracedWall, "job");
    return O;
  }
  endToEnd(O, Latency, perSecond(Latency), Cpu, Peak, SetupS);
  return O;
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

enum class Class { Cold, Edit, Repeat };

const char *className(Class C) {
  return C == Class::Cold ? "cold" : C == Class::Edit ? "edit" : "repeat";
}

struct MixRequest {
  Class K = Class::Cold;
  std::string Label;
  serve::SubmitRequest Request;
  bool ExpectAccepted = true;
};

/// What one reply measured; compared across passes for exactness.
struct MixReply {
  double LatencyS = 0;
  bool CacheHit = false;
  int ExitCode = -1;
  double ObHits = 0;
  double ObMisses = 0;
  Flat Report;
  /// Why the reply is wrong; empty when it is the expected verdict.
  std::string Why;

  bool sameDecision(const MixReply &O) const {
    return CacheHit == O.CacheHit && ExitCode == O.ExitCode &&
           ObHits == O.ObHits && ObMisses == O.ObMisses;
  }
};

/// The requests of one client, per instance: its cold request first, then
/// the requests that must follow the cold request's verdict.
using ClientRequests = std::vector<std::vector<MixRequest>>;

/// The requests of each client. No two clients share an instance (so the
/// process-wide obligation cache never serves one client's entries to the
/// other), and each client sends its next request only after the reply to
/// the previous one, so an edit or a repeat always follows its original's
/// verdict. Every instance contributes one cold request, one edit of one
/// action, and one repeat of the cold request; Paxos R=2 N=2 also gets an
/// under-weighted variant (StartRound=1) that is REJECTED, an edit in
/// class terms (it misses the verdict cache and replays every obligation
/// but cooperation's).
std::vector<ClientRequests> mixRequests(const std::string &Examples) {
  // Fixed assignment of instances to clients: the two halves take about
  // the same verification time, so a pass is not dominated by one client.
  std::vector<std::vector<Instance>> PerClient = {
      {paxos(2, 2, 9, 5), producerConsumer(6), pingPong(6), twoPhaseCommit(3)},
      {paxos(1, 3, 11, 6), changRoberts(5), changRoberts(6), broadcast(5)},
  };
  std::vector<ClientRequests> Clients;
  for (const std::vector<Instance> &Instances : PerClient) {
    ClientRequests Requests;
    for (const Instance &In : Instances) {
      std::string Source = loadModule(Examples, In.File);
      MixRequest Cold{Class::Cold, In.Name, In.request(Source),
                      In.ExpectAccepted};
      MixRequest Edited{Class::Edit, In.Name + " + " + In.EditOp->Name,
                        In.request(applyEdit(Source, *In.EditOp)), true};
      MixRequest Repeat = Cold;
      Repeat.K = Class::Repeat;
      std::vector<MixRequest> All = {Cold, Edited, Repeat};
      if (In.File == "paxos.asl" && In.Consts.at("R") == 2) {
        MixRequest Rejected = Cold;
        Rejected.K = Class::Edit;
        Rejected.Label = In.Name + " with StartRound=1";
        Rejected.Request.Weights["StartRound"] = 1;
        Rejected.ExpectAccepted = false;
        All.push_back(Rejected);
      }
      Requests.push_back(std::move(All));
    }
    Clients.push_back(std::move(Requests));
  }
  return Clients;
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// One pass's request list per client, in an order drawn from \p R: the
/// instances' requests interleave at random, each instance's cold request
/// comes first and its later requests follow in random order. Every pass
/// draws afresh, so a run measures many orders and the seed picks which.
std::vector<std::vector<MixRequest>>
drawLists(const std::vector<ClientRequests> &Clients, Rng &R) {
  std::vector<std::vector<MixRequest>> Lists;
  for (const ClientRequests &Requests : Clients) {
    std::vector<std::vector<const MixRequest *>> Order;
    std::vector<size_t> Slots;
    for (size_t I = 0; I < Requests.size(); ++I) {
      std::vector<const MixRequest *> Later;
      for (size_t J = 1; J < Requests[I].size(); ++J)
        Later.push_back(&Requests[I][J]);
      shuffle(Later, R);
      Later.insert(Later.begin(), &Requests[I][0]);
      Slots.insert(Slots.end(), Later.size(), I);
      Order.push_back(std::move(Later));
    }
    shuffle(Slots, R);
    std::vector<size_t> Next(Requests.size(), 0);
    std::vector<MixRequest> List;
    for (size_t I : Slots)
      List.push_back(*Order[I][Next[I]++]);
    Lists.push_back(std::move(List));
  }
  return Lists;
}

serve::ServerOptions mixServerOptions(size_t DistinctRequests) {
  serve::ServerOptions SO;
  SO.Workers = 2;
  SO.JobThreads = 1;
  SO.QueueCapacity = 64;
  // Above the number of distinct requests, so no entry is evicted.
  SO.CacheCapacity = 4 * DistinctRequests;
  return SO;
}

/// What one pass measured. A pass is a fresh server (empty caches) with
/// both clients walking their lists.
struct PassResult {
  std::vector<std::vector<MixReply>> Replies; ///< per client, list order
  serve::ServeStats Stats;
  double WallS = 0;
  double CpuS = 0;
  uint64_t BusyRetries = 0;
};

constexpr int MaxBusyRetries = 50;

PassResult runPass(const std::vector<std::vector<MixRequest>> &Lists,
                   size_t Distinct, bool Traced, TraceLog &T,
                   LayerTotals *Layers, size_t PassIndex) {
  PassResult P;
  serve::Server Server(mixServerOptions(Distinct));
  std::string Error;
  if (!Server.start(Error))
    throw std::runtime_error("server start failed: " + Error);
  std::vector<std::unique_ptr<serve::ServeClient>> Clients;
  for (size_t C = 0; C < Lists.size(); ++C) {
    Clients.push_back(std::make_unique<serve::ServeClient>());
    if (!Clients.back()->connect("127.0.0.1", Server.port(), Error))
      throw std::runtime_error("client connect failed: " + Error);
  }
  P.Replies.resize(Lists.size());
  std::vector<uint64_t> Busy(Lists.size(), 0);
  std::mutex LayersMutex;

  auto Walk = [&](size_t C) {
    serve::ServeClient &Client = *Clients[C];
    uint64_t Id = 1;
    for (const MixRequest &Req : Lists[C]) {
      std::string Job = "pass " + std::to_string(PassIndex) + " client " +
                        std::to_string(C) + " #" + std::to_string(Id);
      if (Traced && Req.K != Class::Repeat) {
        std::vector<asl::Diagnostic> Diags;
        Clock::time_point C0 = Clock::now();
        asl::frontend::compileSource(Req.Request.Source, "",
                                     Req.Request.Consts,
                                     asl::frontend::FrontendVersion::V2,
                                     Diags);
        Clock::time_point C1 = Clock::now();
        T.span("lang: compile", C0, C1, TraceLog::ClientBase + int(C),
               {{"job", Job}, {"call", "isq::asl::frontend::compileSource"}});
        std::lock_guard<std::mutex> Lock(LayersMutex);
        Layers->add("lang.compile_s",
                    std::chrono::duration<double>(C1 - C0).count());
      }
      serve::SubmitRequest Request = Req.Request;
      Request.RequestId = Id++;
      MixReply Out;
      serve::ServeReply Reply;
      Clock::time_point S0 = Clock::now();
      for (int Try = 0;; ++Try) {
        Reply = Client.submit(Request);
        if (Reply.K != serve::ServeReply::Kind::Busy || Try == MaxBusyRetries)
          break;
        ++Busy[C];
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Clock::time_point S1 = Clock::now();
      Out.LatencyS = std::chrono::duration<double>(S1 - S0).count();
      std::string Why;
      if (Reply.K != serve::ServeReply::Kind::Verdict) {
        Why = Reply.K == serve::ServeReply::Kind::Busy
                  ? "still refused after retries"
                  : "no verdict: " + Reply.Error;
      } else {
        Out.CacheHit = Reply.Verdict.CacheHit;
        Out.ExitCode = Reply.Verdict.ExitCode;
        std::optional<Flat> Report =
            JsonFlattener(Reply.Verdict.ReportJson).run();
        if (!Report) {
          Why = "unparseable verdict report";
        } else {
          Out.Report = std::move(*Report);
          Out.ObHits = get(Out.Report, "obligations.cache_hits");
          Out.ObMisses = get(Out.Report, "obligations.cache_misses");
          bool Accepted = get(Out.Report, "accepted") != 0;
          if (Accepted != Req.ExpectAccepted ||
              Out.ExitCode != (Req.ExpectAccepted ? 0 : 1))
            Why = std::string("expected ") +
                  (Req.ExpectAccepted ? "ACCEPTED" : "REJECTED");
          else if (Out.CacheHit != (Req.K == Class::Repeat))
            Why = "verdict-cache hit does not match the request class";
          else if (Req.K == Class::Cold && Out.ObHits != 0)
            Why = "cold request hit the obligation cache";
          else if (Req.K == Class::Edit && Out.ObHits == 0)
            Why = "edit missed the obligation cache entirely";
        }
      }
      if (!Why.empty())
        Out.Why = Req.Label + " (" + className(Req.K) + "): " + Why;
      if (Traced) {
        std::vector<std::pair<std::string, std::string>> SpanArgs = {
            {"job", Job},
            {"call", "isq::serve::ServeClient::submit"},
            {"class", className(Req.K)},
            {"instance", Req.Label}};
        T.span("serve: submit → verdict", S0, S1,
               TraceLog::ClientBase + int(C), SpanArgs);
        if (!Out.CacheHit && !Out.Report.empty()) {
          traceReportedPhases(T, S0, Out.Report,
                              TraceLog::ReportedBase + int(C), Job);
          std::lock_guard<std::mutex> Lock(LayersMutex);
          Layers->addReport(Out.Report);
        }
      }
      P.Replies[C].push_back(std::move(Out));
    }
  };

  double Cpu0 = processCpuSeconds();
  Clock::time_point W0 = Clock::now();
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Lists.size(); ++C)
    Threads.emplace_back(Walk, C);
  for (std::thread &Th : Threads)
    Th.join();
  P.WallS = secondsSince(W0);
  P.CpuS = processCpuSeconds() - Cpu0;
  Clock::time_point St0 = Clock::now();
  P.Stats = Server.stats();
  if (Traced)
    T.span("serve: stats", St0, Clock::now(), TraceLog::Calls,
           {{"call", "isq::serve::Server::stats"},
            {"pass", std::to_string(PassIndex)}});
  for (auto &C : Clients)
    C->close();
  Server.stop();
  for (uint64_t B : Busy)
    P.BusyRetries += B;
  return P;
}

Outcome serveMix(const Args &A, TraceLog &T) {
  Outcome O;
  std::string Examples = A.Root + "/examples/asl";

  // Set-up: load the examples, build the requests, start a server and
  // connect both clients.
  std::vector<double> SetupS;
  std::vector<ClientRequests> Requests;
  size_t Distinct = 0, Repeats = 0, Edits = 0, Colds = 0;
  for (int K = 0; K < CheapSetups; ++K) {
    Clock::time_point S0 = Clock::now();
    Requests = mixRequests(Examples);
    Distinct = Repeats = Edits = Colds = 0;
    for (const ClientRequests &CR : Requests)
      for (const auto &PerInstance : CR)
        for (const MixRequest &M : PerInstance) {
          Distinct += M.K != Class::Repeat;
          Repeats += M.K == Class::Repeat;
          Edits += M.K == Class::Edit;
          Colds += M.K == Class::Cold;
        }
    serve::Server Server(mixServerOptions(Distinct));
    std::string Error;
    if (!Server.start(Error))
      throw std::runtime_error("server start failed: " + Error);
    std::vector<std::unique_ptr<serve::ServeClient>> Clients;
    for (size_t C = 0; C < Requests.size(); ++C) {
      Clients.push_back(std::make_unique<serve::ServeClient>());
      if (!Clients.back()->connect("127.0.0.1", Server.port(), Error))
        throw std::runtime_error("client connect failed: " + Error);
    }
    SetupS.push_back(secondsSince(S0));
  }
  std::printf("serve-mix classes per pass: cold=%zu edit=%zu repeat=%zu "
              "(clients=%zu, workers=2, job threads=1)\n",
              Colds, Edits, Repeats, Requests.size());

  std::vector<double> Latency, CpuPerJob, Peak, TracedWall, UntracedWall;
  std::vector<std::map<std::string, double>> Units;
  // Exactness: every reply's decision and obligation-cache counts equal
  // those of the same request in the first pass that sent it, and the
  // class counts match the server's own counters.
  std::map<std::string, MixReply> First;
  std::map<Class, std::vector<double>> ByClass;
  Rng Draw(A.Seed * 0x9e3779b97f4a7c15ULL + 2);
  std::vector<double> PassRates;
  Clock::time_point T0 = Clock::now();
  for (size_t U = 0; !loopDone(A, T0, U); ++U) {
    bool Traced = tracedUnit(A, U);
    LayerTotals Layers;
    std::vector<std::vector<MixRequest>> Lists = drawLists(Requests, Draw);
    resetPeakRss();
    PassResult P = runPass(Lists, Distinct, Traced, T, &Layers, U);
    double PassPeak = peakRssMb();
    size_t Jobs = 0;
    std::vector<double> QueueWait, JobRun, HitLatency;
    for (size_t C = 0; C < Lists.size(); ++C) {
      for (size_t I = 0; I < P.Replies[C].size(); ++I) {
        const MixReply &R = P.Replies[C][I];
        ++Jobs;
        std::string Key =
            Lists[C][I].Label + " (" + className(Lists[C][I].K) + ")";
        auto [It, New] = First.emplace(Key, R);
        std::string Why = R.Why;
        if (Why.empty() && !New && !R.sameDecision(It->second))
          Why = Key + ": reply differs from an earlier pass";
        O.job(Why.empty() ? "" : "pass " + std::to_string(U) + ": " + Why);
        if (!Traced) {
          Latency.push_back(R.LatencyS);
          ByClass[Lists[C][I].K].push_back(R.LatencyS);
        }
        if (R.CacheHit) {
          HitLatency.push_back(R.LatencyS);
        } else {
          double Run = get(R.Report, "total_seconds");
          JobRun.push_back(Run);
          QueueWait.push_back(R.LatencyS - Run);
        }
      }
    }
    std::string Pass = "pass " + std::to_string(U) + ": ";
    if (P.Stats.CacheHits != Repeats)
      O.fail(Pass + "verdict-cache hits " + std::to_string(P.Stats.CacheHits) +
             " != " + std::to_string(Repeats) + " repeats");
    if (P.Stats.JobsCoalesced != 0)
      O.fail(Pass + "coalesced " + std::to_string(P.Stats.JobsCoalesced) +
             " != 0");
    if (P.Stats.JobsCompleted != Colds + Edits)
      O.fail(Pass + "jobs run " + std::to_string(P.Stats.JobsCompleted) +
             " != " + std::to_string(Colds + Edits));
    (Traced ? TracedWall : UntracedWall).push_back(P.WallS);
    if (Traced) {
      Layers.add("serve.queue_wait_s", median(QueueWait));
      Layers.add("serve.job_run_s", median(JobRun));
      Layers.add("serve.hit_latency_s", median(HitLatency));
      Layers.add("serve.verdict_cache_hits", double(P.Stats.CacheHits));
      Layers.add("serve.coalesced", double(P.Stats.JobsCoalesced));
      Layers.add("serve.busy_retries", double(P.BusyRetries));
      Units.push_back(Layers.metrics());
      continue;
    }
    CpuPerJob.push_back(P.CpuS / double(Jobs));
    PassRates.push_back(double(Jobs) / P.WallS);
    Peak.push_back(PassPeak);
  }
  if (A.Trace) {
    finishPerLayer(O, Units, TracedWall, UntracedWall, "pass");
    return O;
  }
  for (const auto &[K, V] : ByClass)
    std::printf("verdict_s of %s requests: median %s s of %zu\n",
                className(K), num(median(V)).c_str(), V.size());
  endToEnd(O, Latency, PassRates, CpuPerJob, Peak, SetupS);
  return O;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

const char *Usage =
    "usage: isq-perfbench --workload paxos3-cold|paxos3-edit|serve-mix\n"
    "                     --seed N --seconds S --trace 0|1 --root REPO\n"
    "                     --work-dir DIR [--trace-out FILE] [--command TEXT]\n";

std::optional<Args> parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return std::nullopt;
    std::string V = Argv[++I];
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      auto [P, Ec] = std::from_chars(V.data(), V.data() + V.size(), A.Seed);
      if (Ec != std::errc() || P != V.data() + V.size())
        return std::nullopt;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V.c_str(), &End);
      if (*End || !(A.Seconds > 0))
        return std::nullopt;
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        return std::nullopt;
      A.Trace = V == "1";
      HaveTrace = true;
    } else if (Flag == "--root") {
      A.Root = V;
    } else if (Flag == "--work-dir") {
      A.WorkDir = V;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--command") {
      A.Command = V;
    } else {
      return std::nullopt;
    }
  }
  if (A.Workload.empty() || A.Root.empty() || A.WorkDir.empty() ||
      !HaveSeed || !HaveSeconds || !HaveTrace)
    return std::nullopt;
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<Args> Parsed = parseArgs(Argc, Argv);
  if (!Parsed) {
    std::fputs(Usage, stderr);
    return 2;
  }
  const Args &A = *Parsed;
  std::map<std::string, std::function<Outcome(const Args &, TraceLog &)>>
      Workloads = {{"paxos3-cold", paxosCold},
                   {"paxos3-edit", paxosEdit},
                   {"serve-mix", serveMix}};
  auto W = Workloads.find(A.Workload);
  if (W == Workloads.end()) {
    std::fputs(Usage, stderr);
    return 2;
  }

  std::map<std::string, std::string> Provenance = {
      {"git_sha", gitSha()},
      {"build_type", buildType()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"loadavg", firstLine("/proc/loadavg")},
      {"command", A.Command},
      {"workload", A.Workload},
      {"seed", std::to_string(A.Seed)},
      {"trace", A.Trace ? "1" : "0"},
  };
  for (const auto &[K, V] : Provenance)
    std::printf("%s: %s\n", K.c_str(), V.c_str());
  std::fflush(stdout);

  TraceLog Trace;
  Outcome O;
  try {
    fs::remove_all(A.WorkDir);
    fs::create_directories(A.WorkDir);
    O = W->second(A, Trace);
    fs::remove_all(A.WorkDir);
  } catch (const std::exception &E) {
    std::error_code Ignored;
    fs::remove_all(A.WorkDir, Ignored);
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  if (A.Trace && !A.TraceOut.empty()) {
    if (!Trace.write(A.TraceOut, Provenance)) {
      std::fprintf(stderr, "error: cannot write %s\n", A.TraceOut.c_str());
      return 1;
    }
    std::printf("trace: %s\n", A.TraceOut.c_str());
  }

  for (const std::string &E : O.Errors)
    std::printf("FAILED: %s\n", E.c_str());
  std::printf("failed_share = %s share (%llu of %llu jobs)\n",
              num(ratio(double(O.Failed), double(O.Attempted))).c_str(),
              static_cast<unsigned long long>(O.Failed),
              static_cast<unsigned long long>(O.Attempted));
  for (const Metric &M : O.Metrics)
    std::printf("%s = %s %s (%s)\n", M.Name.c_str(), num(M.Value).c_str(),
                M.Unit.c_str(), M.Note.c_str());

  bool Correct = O.Failed == 0 && O.Errors.empty() && O.Attempted > 0;
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(O.Attempted) +
                     ", \"failed\": " + std::to_string(O.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + num(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return Correct ? 0 : 1;
}
