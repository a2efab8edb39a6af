//===- serve/Server.cpp - Verification-as-a-service daemon -----------------===//

#include "serve/Server.h"

#include "driver/ReportRender.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace isq;
using namespace isq::serve;

/// One accepted client connection. The handler thread owns the read side
/// and is the only closer of the fd; writes (handler responses and worker
/// verdicts) serialize on WriteMutex and check Open first, so a verdict
/// for a vanished client is dropped instead of racing the close.
struct Server::Connection {
  int Fd = -1;
  uint64_t ClientId = 0;
  std::mutex WriteMutex;
  /// Atomic so stats() can count open connections without taking every
  /// connection's write mutex; transitions still happen under WriteMutex.
  std::atomic<bool> Open{true};

  template <typename T> bool send(MsgType Type, const T &Message) {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    if (!Open)
      return false;
    return writeMessage(Fd, Type, Message);
  }

  /// Unblocks a reader stuck in readFrame (fd stays valid for writers).
  void shutdownBoth() {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    if (Open)
      ::shutdown(Fd, SHUT_RDWR);
  }

  /// Called by the handler thread once its read loop ends.
  void close() {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    if (!Open)
      return;
    Open = false;
    ::close(Fd);
  }
};

Server::Server(ServerOptions Opts)
    : Opts(Opts), Queue(Opts.QueueCapacity), Cache(Opts.CacheCapacity) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Error) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = "socket: " + std::string(strerror(errno));
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Opts.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = "bind 127.0.0.1:" + std::to_string(Opts.Port) + ": " +
            strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = "listen: " + std::string(strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);

  Running = true;
  unsigned NumWorkers = Opts.Workers ? Opts.Workers : 1;
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::stop() {
  if (!Running.exchange(false)) {
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return;
  }
  // Unblock the acceptor, then the workers, then every connection reader.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (AcceptThread.joinable())
    AcceptThread.join();
  ::close(ListenFd);
  ListenFd = -1;

  Queue.close();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();

  std::vector<std::shared_ptr<Connection>> Conns;
  std::vector<std::thread> Handlers;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conns = Connections;
    Handlers.swap(HandlerThreads);
  }
  for (const auto &Conn : Conns)
    Conn->shutdownBoth();
  for (std::thread &H : Handlers)
    if (H.joinable())
      H.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.clear();
  }
}

void Server::acceptLoop() {
  while (Running) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listener shut down (or fatal error): stop accepting
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      if (!Running) {
        ::close(Fd);
        break;
      }
      Conn->ClientId = NextClientId++;
      Connections.push_back(Conn);
      HandlerThreads.emplace_back(
          [this, Conn] { handleConnection(Conn); });
    }
  }
}

void Server::handleConnection(std::shared_ptr<Connection> Conn) {
  while (Running) {
    FrameResult Frame = readFrame(Conn->Fd);
    if (Frame.St == FrameResult::Status::Eof)
      break;
    if (Frame.St == FrameResult::Status::Malformed) {
      // The stream cannot be resynchronized after a framing violation:
      // answer best-effort and drop the connection.
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Counters.FramesRejected;
      }
      Conn->send(MsgType::ErrorResponse,
                 ErrorResponse{0, "malformed frame: " + Frame.Error});
      break;
    }
    if (Frame.Version != WireVersion) {
      // Well-framed, wrong dialect: reject the message, keep the stream.
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Counters.FramesRejected;
      }
      Conn->send(MsgType::ErrorResponse,
                 ErrorResponse{0, "unsupported protocol version " +
                                      std::to_string(Frame.Version) +
                                      " (want " +
                                      std::to_string(WireVersion) + ")"});
      continue;
    }
    switch (Frame.Type) {
    case MsgType::SubmitRequest: {
      SubmitRequest Request;
      Unmarshall U(std::move(Frame.Body));
      U >> Request;
      if (!U.ok() || !U.atEnd()) {
        {
          std::lock_guard<std::mutex> Lock(StatsMutex);
          ++Counters.FramesRejected;
        }
        Conn->send(MsgType::ErrorResponse,
                   ErrorResponse{Request.RequestId,
                                 "malformed SubmitRequest body"});
        continue;
      }
      handleSubmit(Conn, std::move(Request));
      continue;
    }
    case MsgType::StatsRequest: {
      StatsRequest Request;
      Unmarshall U(std::move(Frame.Body));
      U >> Request;
      if (!U.ok() || !U.atEnd()) {
        {
          std::lock_guard<std::mutex> Lock(StatsMutex);
          ++Counters.FramesRejected;
        }
        Conn->send(MsgType::ErrorResponse,
                   ErrorResponse{0, "malformed StatsRequest body"});
        continue;
      }
      Conn->send(MsgType::StatsResponse,
                 StatsResponse{Request.RequestId, stats()});
      continue;
    }
    default:
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Counters.FramesRejected;
      }
      Conn->send(MsgType::ErrorResponse,
                 ErrorResponse{0, "unexpected message type " +
                                      std::to_string(static_cast<unsigned>(
                                          Frame.Type))});
      continue;
    }
  }
  Conn->close();
}

void Server::handleSubmit(const std::shared_ptr<Connection> &Conn,
                          SubmitRequest Request) {
  // Validate the engine map up front: a bad key/value is a client error
  // answered with a diagnostic, and it must never reach the cache or the
  // pipeline (an unvalidated map would poison the verdict cache key).
  std::string EngineError;
  if (!validateEngine(Request, EngineError)) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Counters.FramesRejected;
    }
    Conn->send(MsgType::ErrorResponse,
               ErrorResponse{Request.RequestId,
                             "bad engine config: " + EngineError});
    return;
  }
  std::string Key = verdictCacheKey(Request);
  if (std::optional<VerdictCache::Entry> Hit = Cache.lookup(Key)) {
    VerdictResponse Response;
    Response.RequestId = Request.RequestId;
    Response.ExitCode = static_cast<uint8_t>(Hit->Result.exitCode());
    Response.CacheHit = true;
    Response.ReportJson = std::move(Hit->ReportJson);
    Conn->send(MsgType::VerdictResponse, Response);
    return;
  }
  // Single-flight: attach to an identical job already queued or running
  // instead of enqueueing a duplicate. Waiters bypass admission control —
  // they add no work, only a delivery.
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto It = InFlight.find(Key);
    if (It != InFlight.end()) {
      It->second.push_back({Conn, Request.RequestId});
      std::lock_guard<std::mutex> StatsLock(StatsMutex);
      ++Counters.JobsCoalesced;
      return;
    }
    InFlight.emplace(Key, std::vector<Waiter>{});
  }
  uint64_t RequestId = Request.RequestId;
  Job J;
  J.ClientId = Conn->ClientId;
  J.Work = [this, Conn, Request = std::move(Request), Key]() mutable {
    runJob(Conn, std::move(Request), std::move(Key));
  };
  if (!Queue.tryPush(std::move(J))) {
    // The job never ran: release the single-flight slot and answer any
    // waiter that managed to attach meanwhile with the same rejection.
    std::vector<Waiter> Waiters;
    {
      std::lock_guard<std::mutex> Lock(InFlightMutex);
      auto It = InFlight.find(Key);
      if (It != InFlight.end()) {
        Waiters = std::move(It->second);
        InFlight.erase(It);
      }
    }
    uint32_t Depth = static_cast<uint32_t>(Queue.depth());
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      Counters.JobsRejected += 1 + Waiters.size();
      Counters.JobsCoalesced -= Waiters.size();
    }
    BusyResponse Busy{RequestId, Depth,
                      "queue full (" + std::to_string(Depth) +
                          " jobs pending); retry later"};
    Conn->send(MsgType::BusyResponse, Busy);
    for (const Waiter &W : Waiters) {
      Busy.RequestId = W.RequestId;
      W.Conn->send(MsgType::BusyResponse, Busy);
    }
    return;
  }
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++Counters.JobsAccepted;
}

void Server::workerLoop() {
  while (std::optional<Job> J = Queue.pop())
    J->Work();
}

void Server::runJob(const std::shared_ptr<Connection> &Conn,
                    SubmitRequest Request, std::string CacheKey) {
  Timer JobTimer;
  driver::VerifyOptions Options = toVerifyOptions(Request, Opts.JobThreads);
  Options.SharedCache = &ObligationVerdicts;
  driver::VerifyResult Result = driver::verifyModule(Options);
  std::string Json = driver::renderJson(Result);
  double Seconds = JobTimer.elapsed();

  VerdictResponse Response;
  Response.RequestId = Request.RequestId;
  Response.ExitCode = static_cast<uint8_t>(Result.exitCode());
  Response.CacheHit = false;
  Response.ReportJson = Json;
  Cache.insert(CacheKey, {std::move(Result), std::move(Json)});
  // Close the single-flight window after the cache insert: a submission
  // arriving in between hits the cache, one arriving before it attached
  // as a waiter — either way nothing recomputes.
  std::vector<Waiter> Waiters;
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto It = InFlight.find(CacheKey);
    if (It != InFlight.end()) {
      Waiters = std::move(It->second);
      InFlight.erase(It);
    }
  }
  // Count completion before answering, so a stats request a client sends
  // right after its verdict never observes the job as still pending.
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Counters.JobsCompleted;
    Counters.TotalJobSeconds += Seconds;
    Counters.MaxJobSeconds = std::max(Counters.MaxJobSeconds, Seconds);
  }
  Conn->send(MsgType::VerdictResponse, Response);
  // Waiters get the same verdict bytes; CacheHit marks that their
  // submission did not run the pipeline.
  Response.CacheHit = true;
  for (const Waiter &W : Waiters) {
    Response.RequestId = W.RequestId;
    W.Conn->send(MsgType::VerdictResponse, Response);
  }
}

ServeStats Server::stats() const {
  ServeStats Out;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Out = Counters;
  }
  VerdictCache::Counters C = Cache.counters();
  Out.CacheHits = C.Hits;
  Out.CacheMisses = C.Misses;
  Out.CacheEvictions = C.Evictions;
  Out.QueueDepth = Queue.depth();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    size_t Open = 0;
    for (const auto &Conn : Connections)
      if (Conn->Open)
        ++Open;
    Out.ActiveConnections = Open;
  }
  return Out;
}
