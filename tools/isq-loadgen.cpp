//===- tools/isq-loadgen.cpp - isq-serve load generator ------------------------------===//
///
/// \file
/// The load generator for the verification service: replays a manifest of
/// ASL verification jobs against a running isq-serve daemon from N
/// concurrent client connections and reports latency percentiles
/// (p50/p95/p99), throughput, and cache-hit rate — optionally as one JSON
/// object written to --json-out FILE.
///
/// Manifest format: one job per line, `path/to/module.asl <isq-verify
/// flags>` (paths relative to the manifest file); blank lines and
/// #-comments are skipped. Each line is parsed with the isq-verify
/// command-line parser, so manifests use the exact flags documented in
/// the example headers.
///
/// Admission-control rejections (REJECTED_BUSY) are retried with a short
/// backoff up to --max-retries and counted — overload shows up in the
/// report instead of failing the run. With --check-identical, all
/// verdicts of one manifest entry must agree after timing fields are
/// scrubbed (the determinism acceptance check).
///
/// Exit codes: 0 every submission got a verdict (and identity held),
/// 1 some submission failed or verdicts diverged, 2 usage/connect error.
///
//===----------------------------------------------------------------------===//

#include "driver/CliOptions.h"
#include "serve/Client.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace isq;
using namespace isq::serve;

namespace {

const char *usageText() {
  return "usage: isq-loadgen --port N --manifest FILE [options]\n"
         "\n"
         "Replays the manifest's verification jobs against a running\n"
         "isq-serve from concurrent client connections and reports\n"
         "latency percentiles, throughput, and cache-hit rate.\n"
         "\n"
         "options:\n"
         "  --host H            server address (default 127.0.0.1)\n"
         "  --port N            server port\n"
         "  --port-file F       read the port from file F (isq-serve\n"
         "                      --port-file counterpart)\n"
         "  --manifest FILE     job manifest: `module.asl FLAGS` lines\n"
         "  --clients N         concurrent connections (default 1)\n"
         "  --repeats N         passes over the manifest per client\n"
         "                      (default 1)\n"
         "  --max-retries N     retries per REJECTED_BUSY (default 200)\n"
         "  --check-identical   require all verdicts of one entry to be\n"
         "                      identical after scrubbing timings\n"
         "  --dump-dir DIR      write one verdict JSON per entry\n"
         "  --json-out FILE     write the aggregate report as JSON\n"
         "  --stats             print server STATS counters at the end\n"
         "  --help, -h          show this help\n"
         "\n"
         "exit codes:\n"
         "  0  all submissions answered (identity held if requested)\n"
         "  1  submission failed, retries exhausted, or verdicts diverged\n"
         "  2  usage, manifest, or connection error\n";
}

template <typename T> bool parseNumber(const std::string &S, T &Out) {
  const char *First = S.data();
  const char *Last = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last && !S.empty();
}

struct ManifestEntry {
  std::string Label; ///< the manifest line's module path
  SubmitRequest Request;
};

/// Parses one manifest line with the isq-verify CLI parser and loads the
/// module source. Returns false with \p Error set on any problem.
bool parseManifestLine(const std::string &Line, const std::string &BaseDir,
                       ManifestEntry &Out, std::string &Error) {
  std::vector<std::string> Tokens;
  std::stringstream Stream(Line);
  std::string Token;
  while (Stream >> Token)
    Tokens.push_back(Token);
  driver::CliParse Parse = driver::parseCommandLine(Tokens);
  if (!Parse.Ok) {
    Error = Parse.Error;
    return false;
  }
  std::string Path = Parse.Options.InputPath;
  if (!Path.empty() && Path[0] != '/')
    Path = BaseDir + "/" + Path;
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Parse.Options.Verify.Source = Buffer.str();
  Out.Label = Parse.Options.InputPath;
  Out.Request = fromVerifyOptions(Parse.Options.Verify);
  return true;
}

/// One completed submission.
struct Sample {
  size_t Entry = 0;
  double Seconds = 0;
  bool CacheHit = false;
  uint8_t ExitCode = 0;
  uint32_t BusyRetries = 0;
  std::string ReportJson;
};

/// Nearest-rank percentile of an ascending-sorted sample vector.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  std::string Host = "127.0.0.1";
  std::string PortFile, ManifestPath, DumpDir, JsonOut;
  uint16_t Port = 0;
  unsigned Clients = 1, Repeats = 1, MaxRetries = 200;
  bool CheckIdentical = false, PrintStats = false;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf("%s", usageText());
      return 0;
    }
    if (Arg == "--check-identical") {
      CheckIdentical = true;
      continue;
    }
    if (Arg == "--stats") {
      PrintStats = true;
      continue;
    }
    if (I + 1 >= Args.size()) {
      std::fprintf(stderr, "error: %s needs a value\n%s", Arg.c_str(),
                   usageText());
      return 2;
    }
    std::string Value = Args[++I];
    if (Arg == "--host") {
      Host = Value;
    } else if (Arg == "--port") {
      unsigned N = 0;
      if (!parseNumber(Value, N) || N < 1 || N > 65535) {
        std::fprintf(stderr, "error: --port expects a port number\n");
        return 2;
      }
      Port = static_cast<uint16_t>(N);
    } else if (Arg == "--port-file") {
      PortFile = Value;
    } else if (Arg == "--manifest") {
      ManifestPath = Value;
    } else if (Arg == "--clients" || Arg == "--repeats" ||
               Arg == "--max-retries") {
      unsigned N = 0;
      if (!parseNumber(Value, N) || (Arg != "--max-retries" && N < 1)) {
        std::fprintf(stderr, "error: %s expects a positive integer\n",
                     Arg.c_str());
        return 2;
      }
      (Arg == "--clients" ? Clients
                          : Arg == "--repeats" ? Repeats : MaxRetries) = N;
    } else if (Arg == "--dump-dir") {
      DumpDir = Value;
    } else if (Arg == "--json-out") {
      JsonOut = Value;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n%s", Arg.c_str(),
                   usageText());
      return 2;
    }
  }

  if (!PortFile.empty()) {
    std::ifstream In(PortFile);
    unsigned N = 0;
    if (!(In >> N) || N < 1 || N > 65535) {
      std::fprintf(stderr, "error: cannot read port from '%s'\n",
                   PortFile.c_str());
      return 2;
    }
    Port = static_cast<uint16_t>(N);
  }
  if (Port == 0 || ManifestPath.empty()) {
    std::fprintf(stderr, "error: --port and --manifest are required\n%s",
                 usageText());
    return 2;
  }

  // Load the manifest.
  std::ifstream Manifest(ManifestPath);
  if (!Manifest) {
    std::fprintf(stderr, "error: cannot open manifest '%s'\n",
                 ManifestPath.c_str());
    return 2;
  }
  std::string BaseDir = ".";
  if (size_t Slash = ManifestPath.rfind('/'); Slash != std::string::npos)
    BaseDir = ManifestPath.substr(0, Slash);
  std::vector<ManifestEntry> Entries;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(Manifest, Line)) {
    ++LineNo;
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    ManifestEntry Entry;
    std::string Error;
    if (!parseManifestLine(Line, BaseDir, Entry, Error)) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", ManifestPath.c_str(),
                   LineNo, Error.c_str());
      return 2;
    }
    Entries.push_back(std::move(Entry));
  }
  if (Entries.empty()) {
    std::fprintf(stderr, "error: manifest '%s' has no jobs\n",
                 ManifestPath.c_str());
    return 2;
  }

  // Fire the client fleet. Each client owns one connection and replays
  // the whole manifest --repeats times; request ids encode (client,
  // submission) for debuggability.
  std::mutex ResultMutex;
  std::vector<Sample> Samples;
  std::vector<std::string> Failures;
  std::atomic<uint64_t> TotalBusyRetries{0};

  auto Wall = std::chrono::steady_clock::now();
  std::vector<std::thread> Fleet;
  for (unsigned C = 0; C < Clients; ++C) {
    Fleet.emplace_back([&, C] {
      ServeClient Client;
      std::string Error;
      if (!Client.connect(Host, Port, Error)) {
        std::lock_guard<std::mutex> Lock(ResultMutex);
        Failures.push_back("client " + std::to_string(C) + ": " + Error);
        return;
      }
      uint64_t NextId = static_cast<uint64_t>(C) << 32;
      for (unsigned R = 0; R < Repeats; ++R) {
        for (size_t E = 0; E < Entries.size(); ++E) {
          SubmitRequest Request = Entries[E].Request;
          Request.RequestId = ++NextId;
          Sample S;
          S.Entry = E;
          auto Begin = std::chrono::steady_clock::now();
          ServeReply Reply;
          for (unsigned Attempt = 0;; ++Attempt) {
            Reply = Client.submit(Request);
            if (Reply.K != ServeReply::Kind::Busy)
              break;
            if (Attempt >= MaxRetries) {
              Reply.K = ServeReply::Kind::Disconnected;
              Reply.Error = "REJECTED_BUSY after " +
                            std::to_string(MaxRetries) + " retries";
              break;
            }
            ++S.BusyRetries;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          S.Seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Begin)
                          .count();
          TotalBusyRetries += S.BusyRetries;
          if (Reply.K != ServeReply::Kind::Verdict) {
            std::lock_guard<std::mutex> Lock(ResultMutex);
            Failures.push_back("client " + std::to_string(C) + " entry " +
                               Entries[E].Label + ": " + Reply.Error);
            return;
          }
          S.CacheHit = Reply.Verdict.CacheHit;
          S.ExitCode = Reply.Verdict.ExitCode;
          S.ReportJson = std::move(Reply.Verdict.ReportJson);
          std::lock_guard<std::mutex> Lock(ResultMutex);
          Samples.push_back(std::move(S));
        }
      }
    });
  }
  for (std::thread &T : Fleet)
    T.join();
  double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Wall)
          .count();

  int Exit = 0;
  for (const std::string &F : Failures) {
    std::fprintf(stderr, "FAIL: %s\n", F.c_str());
    Exit = 1;
  }

  // Determinism check: every verdict of one entry must agree modulo
  // timing fields (cache hits are byte-identical even before scrubbing).
  if (CheckIdentical) {
    for (size_t E = 0; E < Entries.size(); ++E) {
      std::string Reference;
      for (const Sample &S : Samples) {
        if (S.Entry != E)
          continue;
        // Timings zeroed, as in the golden tests of tests/cli_test.cpp.
        std::string Scrubbed = json::zeroNumbers(S.ReportJson, {"*seconds"});
        if (Reference.empty()) {
          Reference = std::move(Scrubbed);
        } else if (Scrubbed != Reference) {
          std::fprintf(stderr,
                       "FAIL: verdicts diverge for entry %s (scrubbed)\n",
                       Entries[E].Label.c_str());
          Exit = 1;
          break;
        }
      }
    }
  }

  // Dump one representative verdict per entry (for external comparison
  // against one-shot isq-verify).
  if (!DumpDir.empty()) {
    for (size_t E = 0; E < Entries.size(); ++E) {
      auto It = std::find_if(Samples.begin(), Samples.end(),
                             [E](const Sample &S) { return S.Entry == E; });
      if (It == Samples.end())
        continue;
      std::string Path = DumpDir + "/entry" + std::to_string(E) + ".json";
      std::ofstream Out(Path);
      Out << It->ReportJson;
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        Exit = Exit ? Exit : 1;
      }
    }
  }

  // Aggregate. The obligation-level counters come out of each verdict's
  // report: requests that miss the whole-request verdict cache still hit
  // the server's shared obligation cache, and that reuse is invisible in
  // the request-level hit rate.
  std::vector<double> LatenciesMs;
  size_t Hits = 0, NonZeroExits = 0;
  uint64_t ObHits = 0, ObMisses = 0, ObDiskHits = 0;
  for (const Sample &S : Samples) {
    LatenciesMs.push_back(S.Seconds * 1000.0);
    Hits += S.CacheHit ? 1 : 0;
    NonZeroExits += S.ExitCode != 0 ? 1 : 0;
    // Only the top-level "obligations" object spells these keys without a
    // prefix; a missing key (older server) reads as 0.
    ObHits += json::readUnsigned(S.ReportJson, "cache_hits");
    ObMisses += json::readUnsigned(S.ReportJson, "cache_misses");
    ObDiskHits += json::readUnsigned(S.ReportJson, "disk_hits");
  }
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  double P50 = percentile(LatenciesMs, 0.50);
  double P95 = percentile(LatenciesMs, 0.95);
  double P99 = percentile(LatenciesMs, 0.99);
  double HitRate =
      Samples.empty() ? 0 : static_cast<double>(Hits) / Samples.size();
  double Throughput =
      WallSeconds > 0 ? static_cast<double>(Samples.size()) / WallSeconds : 0;

  std::printf("isq-loadgen: %u client(s) x %u repeat(s) x %zu entr%s\n",
              Clients, Repeats, Entries.size(),
              Entries.size() == 1 ? "y" : "ies");
  std::printf("  submissions   %zu (%zu failed, %zu non-zero exits)\n",
              Samples.size() + Failures.size(), Failures.size(),
              NonZeroExits);
  std::printf("  wall          %.3f s  (%.2f jobs/s)\n", WallSeconds,
              Throughput);
  std::printf("  latency ms    p50 %.2f  p95 %.2f  p99 %.2f\n", P50, P95,
              P99);
  std::printf("  cache hits    %zu/%zu (%.1f%%)\n", Hits, Samples.size(),
              HitRate * 100.0);
  double ObHitRate = ObHits + ObMisses
                         ? static_cast<double>(ObHits) /
                               static_cast<double>(ObHits + ObMisses)
                         : 0;
  std::printf("  obligations   hits %llu  misses %llu  (%.1f%%)  disk %llu\n",
              static_cast<unsigned long long>(ObHits),
              static_cast<unsigned long long>(ObMisses), ObHitRate * 100.0,
              static_cast<unsigned long long>(ObDiskHits));
  std::printf("  busy retries  %llu\n",
              static_cast<unsigned long long>(TotalBusyRetries.load()));

  if (PrintStats) {
    ServeClient Client;
    std::string Error;
    if (Client.connect(Host, Port, Error)) {
      ServeReply Reply = Client.stats();
      if (Reply.K == ServeReply::Kind::Stats) {
        const ServeStats &St = Reply.Stats.Stats;
        std::printf("  server stats  accepted %llu rejected %llu "
                    "completed %llu coalesced %llu hits %llu misses %llu "
                    "evictions %llu queue %llu frames-rejected %llu\n",
                    static_cast<unsigned long long>(St.JobsAccepted),
                    static_cast<unsigned long long>(St.JobsRejected),
                    static_cast<unsigned long long>(St.JobsCompleted),
                    static_cast<unsigned long long>(St.JobsCoalesced),
                    static_cast<unsigned long long>(St.CacheHits),
                    static_cast<unsigned long long>(St.CacheMisses),
                    static_cast<unsigned long long>(St.CacheEvictions),
                    static_cast<unsigned long long>(St.QueueDepth),
                    static_cast<unsigned long long>(St.FramesRejected));
      }
    }
  }

  if (!JsonOut.empty()) {
    json::JsonWriter W;
    W.beginObject();
    W.key("tool").value("isq-loadgen");
    W.key("clients").value(Clients);
    W.key("repeats").value(Repeats);
    W.key("entries").value(static_cast<uint64_t>(Entries.size()));
    W.key("submissions").value(static_cast<uint64_t>(Samples.size()));
    W.key("failures").value(static_cast<uint64_t>(Failures.size()));
    W.key("wall_seconds").value(WallSeconds);
    W.key("throughput_rps").value(Throughput);
    W.key("p50_ms").value(P50);
    W.key("p95_ms").value(P95);
    W.key("p99_ms").value(P99);
    W.key("cache_hit_rate").value(HitRate);
    W.key("cache_hits").value(static_cast<uint64_t>(Hits));
    W.key("obligation_cache_hits").value(ObHits);
    W.key("obligation_cache_misses").value(ObMisses);
    W.key("obligation_disk_hits").value(ObDiskHits);
    W.key("obligation_hit_rate").value(ObHitRate);
    W.key("busy_retries").value(TotalBusyRetries.load());
    W.key("non_zero_exits").value(static_cast<uint64_t>(NonZeroExits));
    // Echo the resolved engine configuration the jobs ran under (the
    // wire-form non-default map of the first manifest entry), so a bench
    // row is self-describing — without it, rows from different --engine
    // manifests are indistinguishable.
    W.key("engine").beginObject();
    if (!Entries.empty())
      for (const auto &[Key, Val] : Entries.front().Request.Engine)
        W.key(Key).value(Val);
    W.endObject();
    W.endObject();
    std::ofstream Out(JsonOut);
    Out << W.take() << "\n";
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonOut.c_str());
      return 2;
    }
  }
  return Exit;
}
