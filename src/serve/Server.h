//===- serve/Server.h - Verification-as-a-service daemon ---------*- C++ -*-===//
///
/// \file
/// The isq-serve daemon core: a loopback TCP server that accepts
/// verification jobs over the wire protocol (serve/Wire.h), runs them
/// through driver::verifyModule on a bounded worker pool, and streams
/// schema-versioned JSON verdicts back.
///
/// Shape:
///  - one accept thread; one handler thread per connection (connections
///    are few — clients multiplex jobs over one connection by pipelining
///    request ids);
///  - a bounded JobQueue between handlers and a fixed worker pool (the
///    same threads-plus-condvar model as engine/ObligationScheduler, made
///    long-lived); overload answers BusyResponse — admission control,
///    never an unbounded queue;
///  - per-client (= per-connection) round-robin dequeue fairness;
///  - an LRU VerdictCache consulted by the handler before enqueueing, so
///    repeated submissions short-circuit without occupying a worker;
///  - single-flight coalescing: a submission identical to a job already
///    queued or running attaches to it as a waiter instead of enqueueing
///    a duplicate — when the leader finishes, every waiter gets the same
///    verdict bytes (a thundering herd of identical cold submissions
///    costs one pipeline run);
///  - a STATS RPC served inline by the handler thread.
///
/// Re-entrancy: workers run driver::verifyModule concurrently in one
/// process. Each run builds its own arenas and caches; the only
/// process-global mutable state any run touches is the interned Symbol
/// table, which is mutex-protected with append-only storage (see
/// DESIGN.md "Serve subsystem" for the audited contract). The decision
/// surface of every verdict — accepted/rejected, conditions,
/// obligations, interned-state counts, diagnostics — is bit-identical
/// to a one-shot run of the same job; timing fields and the
/// exploration-telemetry counters may differ, because symmetry
/// canonicalization breaks ties by symbol-interning order, which
/// depends on which modules the process compiled earlier (DESIGN.md
/// "Determinism contract" has the exact field list).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SERVE_SERVER_H
#define ISQ_SERVE_SERVER_H

#include "engine/ObligationCache.h"
#include "serve/JobQueue.h"
#include "serve/VerdictCache.h"
#include "serve/Wire.h"

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace isq {
namespace serve {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (query it
  /// with Server::port()).
  uint16_t Port = 0;
  /// Worker threads running verification jobs.
  unsigned Workers = 2;
  /// JobQueue capacity (admission-control bound).
  size_t QueueCapacity = 64;
  /// VerdictCache capacity in entries (0 disables caching).
  size_t CacheCapacity = 128;
  /// Engine/scheduler threads per job (verdicts are identical for any
  /// value; this only trades per-job latency against throughput).
  unsigned JobThreads = 1;
};

/// The daemon. start() binds and spawns threads; stop() tears everything
/// down (drains nothing: queued jobs whose connection is gone are
/// dropped, running jobs finish). Destruction implies stop().
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and spawns the accept and worker threads. Returns
  /// false with \p Error set when the socket cannot be bound.
  bool start(std::string &Error);

  /// The actually bound port (after start()).
  uint16_t port() const { return BoundPort; }

  /// Stops accepting, closes every connection, joins all threads.
  void stop();

  /// Counter snapshot (the same numbers the STATS RPC reports).
  ServeStats stats() const;

private:
  struct Connection;

  void acceptLoop();
  void handleConnection(std::shared_ptr<Connection> Conn);
  void workerLoop();
  void handleSubmit(const std::shared_ptr<Connection> &Conn,
                    SubmitRequest Request);
  void runJob(const std::shared_ptr<Connection> &Conn, SubmitRequest Request,
              std::string CacheKey);

  ServerOptions Opts;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Running{false};

  JobQueue Queue;
  VerdictCache Cache;
  /// Process-wide obligation verdict cache, one tier below the
  /// whole-request VerdictCache: a request that misses the request cache
  /// (any edit, any flag change) still reuses every slice verdict whose
  /// dependencies are untouched. Shared by all workers (thread-safe);
  /// memory-only — the daemon outlives requests, so persistence buys
  /// nothing a restart-to-upgrade wouldn't invalidate anyway.
  engine::ObligationCache ObligationVerdicts;

  std::thread AcceptThread;
  std::vector<std::thread> Workers;

  mutable std::mutex ConnMutex;
  std::vector<std::shared_ptr<Connection>> Connections;
  std::vector<std::thread> HandlerThreads;
  uint64_t NextClientId = 1;

  /// Single-flight registry: cache key → waiters for the in-flight job
  /// with that key. The leader (the submission that enqueued the job)
  /// is not in the list; it is answered directly by runJob.
  struct Waiter {
    std::shared_ptr<Connection> Conn;
    uint64_t RequestId = 0;
  };
  std::mutex InFlightMutex;
  std::unordered_map<std::string, std::vector<Waiter>> InFlight;

  mutable std::mutex StatsMutex;
  ServeStats Counters;
};

} // namespace serve
} // namespace isq

#endif // ISQ_SERVE_SERVER_H
