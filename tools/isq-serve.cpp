//===- tools/isq-serve.cpp - Verification-as-a-service daemon ------------------------===//
///
/// \file
/// The long-lived verification daemon: binds a loopback TCP port, accepts
/// verification jobs over the binary wire protocol (src/serve/Wire.h),
/// runs them through the VerifyDriver pipeline on a bounded worker pool
/// with an LRU verdict cache, and streams schema-versioned JSON verdicts
/// back. See README.md "Running as a service" for the protocol reference
/// and isq-loadgen for the matching client.
///
/// The daemon serves until SIGINT/SIGTERM, then shuts down gracefully
/// (running jobs finish, connections close). Exit codes: 0 clean
/// shutdown, 2 usage or bind error.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace isq;
using namespace isq::serve;

namespace {

std::atomic<bool> StopRequested{false};

void onSignal(int) { StopRequested = true; }

const char *usageText() {
  return "usage: isq-serve [options]\n"
         "\n"
         "Runs the verification service on 127.0.0.1 until SIGINT or\n"
         "SIGTERM. Clients submit ASL verification jobs over the binary\n"
         "wire protocol (see README.md) and receive schema-versioned\n"
         "JSON verdicts; repeated submissions are served from the\n"
         "verdict cache.\n"
         "\n"
         "options:\n"
         "  --port N        TCP port (default 0: pick an ephemeral port)\n"
         "  --port-file F   write the bound port number to file F\n"
         "  --workers N     verification worker threads (default 2)\n"
         "  --queue-cap N   job-queue capacity; submissions beyond it\n"
         "                  are answered REJECTED_BUSY (default 64)\n"
         "  --cache-cap N   verdict-cache entries, 0 disables (default 128)\n"
         "  --job-threads N engine/scheduler threads per job (default 1;\n"
         "                  verdicts are identical for any value)\n"
         "  --help, -h      show this help\n"
         "\n"
         "exit codes:\n"
         "  0  clean shutdown on SIGINT/SIGTERM\n"
         "  2  usage or bind error\n";
}

template <typename T> bool parseNumber(const std::string &S, T &Out) {
  const char *First = S.data();
  const char *Last = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last && !S.empty();
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  ServerOptions Opts;
  std::string PortFile;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf("%s", usageText());
      return 0;
    }
    auto NeedValue = [&](std::string &Out) -> bool {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n%s", Arg.c_str(),
                     usageText());
        return false;
      }
      Out = Args[++I];
      return true;
    };
    std::string Value;
    if (Arg == "--port-file") {
      if (!NeedValue(PortFile))
        return 2;
      continue;
    }
    if (Arg == "--port" || Arg == "--workers" || Arg == "--queue-cap" ||
        Arg == "--cache-cap" || Arg == "--job-threads") {
      if (!NeedValue(Value))
        return 2;
      uint64_t N = 0;
      if (!parseNumber(Value, N)) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got '%s'\n",
                     Arg.c_str(), Value.c_str());
        return 2;
      }
      if (Arg == "--port") {
        if (N > 65535) {
          std::fprintf(stderr, "error: --port out of range: %s\n",
                       Value.c_str());
          return 2;
        }
        Opts.Port = static_cast<uint16_t>(N);
      } else if (Arg == "--workers") {
        if (N < 1) {
          std::fprintf(stderr, "error: --workers must be positive\n");
          return 2;
        }
        Opts.Workers = static_cast<unsigned>(N);
      } else if (Arg == "--queue-cap") {
        if (N < 1) {
          std::fprintf(stderr, "error: --queue-cap must be positive\n");
          return 2;
        }
        Opts.QueueCapacity = N;
      } else if (Arg == "--cache-cap") {
        Opts.CacheCapacity = N;
      } else {
        if (N < 1) {
          std::fprintf(stderr, "error: --job-threads must be positive\n");
          return 2;
        }
        Opts.JobThreads = static_cast<unsigned>(N);
      }
      continue;
    }
    std::fprintf(stderr, "error: unknown option '%s'\n%s", Arg.c_str(),
                 usageText());
    return 2;
  }

  Server Daemon(Opts);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    Out << Daemon.port() << "\n";
    if (!Out) {
      std::fprintf(stderr, "error: cannot write port file '%s'\n",
                   PortFile.c_str());
      return 2;
    }
  }
  std::printf("isq-serve listening on 127.0.0.1:%u (workers %u, queue %zu, "
              "cache %zu, job-threads %u)\n",
              Daemon.port(), Opts.Workers, Opts.QueueCapacity,
              Opts.CacheCapacity, Opts.JobThreads);
  std::fflush(stdout);

  struct sigaction Sa {};
  Sa.sa_handler = onSignal;
  sigaction(SIGINT, &Sa, nullptr);
  sigaction(SIGTERM, &Sa, nullptr);

  while (!StopRequested)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("isq-serve: shutting down\n");
  Daemon.stop();
  ServeStats Stats = Daemon.stats();
  std::printf("isq-serve: served %llu jobs (%llu cache hits, %llu rejected)\n",
              static_cast<unsigned long long>(Stats.JobsCompleted),
              static_cast<unsigned long long>(Stats.CacheHits),
              static_cast<unsigned long long>(Stats.JobsRejected));
  return 0;
}
