//===- tests/serve_test.cpp - Verification-service tests -----------------------------===//
///
/// \file
/// Tests for the isq-serve subsystem: Marshall/Unmarshall round-trips,
/// malformed-frame rejection (truncated frames, oversized length
/// prefixes, wrong version bytes, garbage payloads — clean errors, never
/// crashes or hangs), verdict-cache key derivation and LRU behavior,
/// job-queue admission control and round-robin fairness, and an
/// end-to-end in-process daemon exercised over real sockets.
///
//===----------------------------------------------------------------------===//

#include "driver/ReportRender.h"
#include "serve/Client.h"
#include "serve/JobQueue.h"
#include "serve/Server.h"
#include "serve/VerdictCache.h"
#include "serve/Wire.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace isq;
using namespace isq::serve;

namespace {

std::string readExampleAsl(const std::string &Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  EXPECT_TRUE(In.good()) << "missing example file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// The ping-pong module at T=2: the fastest shipped proof, used where a
/// test needs a real verification job.
driver::VerifyOptions pingPongOptions() {
  driver::VerifyOptions O;
  O.Source = readExampleAsl("ping_pong.asl");
  O.Consts["T"] = 2;
  O.Eliminate = {"Ping", "Pong"};
  O.Abstractions = {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}};
  O.Order = driver::VerifyOptions::RankOrder::ArgMajor;
  return O;
}

std::string scrubTimings(const std::string &Json) {
  return json::zeroNumbers(Json, {"*seconds"});
}

} // namespace

// --- Marshall / Unmarshall ----------------------------------------------

TEST(ServeWireTest, PrimitiveRoundTrip) {
  Marshall M;
  M << static_cast<uint8_t>(0xab) << static_cast<uint32_t>(0xdeadbeef)
    << static_cast<uint64_t>(0x0123456789abcdefULL)
    << static_cast<int64_t>(-42) << true << 3.25 << std::string("hello");
  Unmarshall U(M.take());
  uint8_t A;
  uint32_t B;
  uint64_t C;
  int64_t D;
  bool E;
  double F;
  std::string G;
  U >> A >> B >> C >> D >> E >> F >> G;
  EXPECT_TRUE(U.ok());
  EXPECT_TRUE(U.atEnd());
  EXPECT_EQ(A, 0xab);
  EXPECT_EQ(B, 0xdeadbeefu);
  EXPECT_EQ(C, 0x0123456789abcdefULL);
  EXPECT_EQ(D, -42);
  EXPECT_TRUE(E);
  EXPECT_EQ(F, 3.25);
  EXPECT_EQ(G, "hello");
}

TEST(ServeWireTest, ContainerRoundTrip) {
  Marshall M;
  std::vector<std::string> V = {"a", "", "long string with spaces"};
  std::map<std::string, int64_t> MKV = {{"n", 3}, {"R", -1}};
  M << V << MKV;
  Unmarshall U(M.take());
  std::vector<std::string> V2;
  std::map<std::string, int64_t> MKV2;
  U >> V2 >> MKV2;
  EXPECT_TRUE(U.ok());
  EXPECT_TRUE(U.atEnd());
  EXPECT_EQ(V, V2);
  EXPECT_EQ(MKV, MKV2);
}

TEST(ServeWireTest, SubmitRequestRoundTrip) {
  SubmitRequest R;
  R.RequestId = 77;
  R.Source = "const n: int;\n";
  R.Consts = {{"n", 3}, {"R", 2}};
  R.RewriteAction = "Main";
  R.Eliminate = {"A", "B"};
  R.ArgMajor = true;
  R.Abstractions = {{"B", "BAbs"}};
  R.Weights = {{"A", 8}};
  R.CrossCheck = false;
  R.Engine = {{"symmetry", "false"}, {"steal-chunk", "32"}};

  Marshall M;
  M << R;
  Unmarshall U(M.take());
  SubmitRequest R2;
  U >> R2;
  EXPECT_TRUE(U.ok());
  EXPECT_TRUE(U.atEnd());
  EXPECT_EQ(R2.RequestId, 77u);
  EXPECT_EQ(R2.Source, R.Source);
  EXPECT_EQ(R2.Consts, R.Consts);
  EXPECT_EQ(R2.Eliminate, R.Eliminate);
  EXPECT_TRUE(R2.ArgMajor);
  EXPECT_EQ(R2.Abstractions, R.Abstractions);
  EXPECT_EQ(R2.Weights, R.Weights);
  EXPECT_FALSE(R2.CrossCheck);
  EXPECT_EQ(R2.Engine, R.Engine);
}

TEST(ServeWireTest, EngineMapValidation) {
  SubmitRequest R;
  std::string Error;
  EXPECT_TRUE(validateEngine(R, Error)) << Error; // empty map: defaults

  R.Engine = {{"symmetry", "false"}, {"steal-chunk", "8"}};
  EXPECT_TRUE(validateEngine(R, Error)) << Error;

  R.Engine = {{"frobnicate", "1"}};
  EXPECT_FALSE(validateEngine(R, Error));
  EXPECT_NE(Error.find("unknown engine option"), std::string::npos);

  R.Engine = {{"shards", "3"}};
  EXPECT_FALSE(validateEngine(R, Error));
  EXPECT_NE(Error.find("power of two"), std::string::npos);

  // The thread budget is the server's, never the client's.
  R.Engine = {{"threads", "64"}};
  EXPECT_FALSE(validateEngine(R, Error));
  EXPECT_NE(Error.find("--job-threads"), std::string::npos);
}

TEST(ServeWireTest, EngineConfigSurvivesOptionRoundTrip) {
  driver::VerifyOptions O;
  O.Source = "x";
  O.Engine.Symmetry = false;
  O.Engine.StealChunk = 32;
  O.Engine.NumThreads = 8; // must NOT travel: server knob
  SubmitRequest R = fromVerifyOptions(O);
  EXPECT_EQ(R.Engine.count("threads"), 0u);
  EXPECT_EQ(R.Engine.at("symmetry"), "false");
  EXPECT_EQ(R.Engine.at("steal-chunk"), "32");

  driver::VerifyOptions Back = toVerifyOptions(R, /*NumThreads=*/3);
  EXPECT_FALSE(Back.Engine.Symmetry);
  EXPECT_EQ(Back.Engine.StealChunk, 32u);
  EXPECT_EQ(Back.Engine.NumThreads, 3u) << "server thread budget wins";
}

TEST(ServeWireTest, ResponseRoundTrips) {
  {
    Marshall M;
    M << VerdictResponse{9, 1, true, "{\"accepted\":false}\n"};
    Unmarshall U(M.take());
    VerdictResponse R;
    U >> R;
    EXPECT_TRUE(U.ok() && U.atEnd());
    EXPECT_EQ(R.RequestId, 9u);
    EXPECT_EQ(R.ExitCode, 1);
    EXPECT_TRUE(R.CacheHit);
    EXPECT_EQ(R.ReportJson, "{\"accepted\":false}\n");
  }
  {
    Marshall M;
    M << BusyResponse{5, 64, "queue full"};
    Unmarshall U(M.take());
    BusyResponse R;
    U >> R;
    EXPECT_TRUE(U.ok() && U.atEnd());
    EXPECT_EQ(R.QueueDepth, 64u);
    EXPECT_EQ(R.Message, "queue full");
  }
  {
    ServeStats S;
    S.JobsAccepted = 10;
    S.CacheHits = 3;
    S.TotalJobSeconds = 1.5;
    S.MaxJobSeconds = 0.75;
    Marshall M;
    M << StatsResponse{2, S};
    Unmarshall U(M.take());
    StatsResponse R;
    U >> R;
    EXPECT_TRUE(U.ok() && U.atEnd());
    EXPECT_EQ(R.Stats.JobsAccepted, 10u);
    EXPECT_EQ(R.Stats.CacheHits, 3u);
    EXPECT_EQ(R.Stats.TotalJobSeconds, 1.5);
    EXPECT_EQ(R.Stats.MaxJobSeconds, 0.75);
  }
}

// --- Malformed input: the unmarshaller must fail cleanly -----------------

TEST(ServeWireTest, UnderflowLatchesNotOk) {
  Unmarshall U(std::string("\x01\x02", 2));
  uint64_t V = 99;
  U >> V;
  EXPECT_FALSE(U.ok());
  EXPECT_EQ(V, 0u);
  // Latched: subsequent reads keep failing and yield zero values.
  uint8_t B = 7;
  U >> B;
  EXPECT_FALSE(U.ok());
  EXPECT_EQ(B, 0);
}

TEST(ServeWireTest, GarbageStringLengthRejectedBeforeAllocation) {
  // A string whose length field claims 4 GiB with 3 bytes of payload.
  Marshall M;
  M << static_cast<uint32_t>(0xfffffff0);
  std::string Bytes = M.take() + "abc";
  Unmarshall U(Bytes);
  std::string S;
  U >> S;
  EXPECT_FALSE(U.ok());
  EXPECT_TRUE(S.empty());
}

TEST(ServeWireTest, GarbageContainerCountRejected) {
  Marshall M;
  M << static_cast<uint32_t>(1000000); // count far beyond payload
  Unmarshall U(M.take());
  std::vector<std::string> V;
  U >> V;
  EXPECT_FALSE(U.ok());
  EXPECT_TRUE(V.empty());
}

TEST(ServeWireTest, NonBooleanByteRejected) {
  Unmarshall U(std::string("\x02", 1));
  bool B = false;
  U >> B;
  EXPECT_FALSE(U.ok());
}

TEST(ServeWireTest, TrailingGarbageDetectedByAtEnd) {
  Marshall M;
  M << StatsRequest{4};
  std::string Bytes = M.take() + "junk";
  Unmarshall U(Bytes);
  StatsRequest R;
  U >> R;
  EXPECT_TRUE(U.ok());
  EXPECT_FALSE(U.atEnd());
}

TEST(ServeWireTest, SubmitBodyFromRandomBytesNeverCrashes) {
  // Deterministic xorshift garbage of many sizes: decoding must either
  // succeed (vacuously) or fail cleanly — never crash (run under
  // ASan/UBSan in CI).
  uint64_t State = 0x12345678;
  auto Next = [&State] {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545f4914f6cdd1dULL;
  };
  for (size_t Len = 0; Len < 200; Len += 7) {
    std::string Bytes;
    for (size_t I = 0; I < Len; ++I)
      Bytes.push_back(static_cast<char>(Next() & 0xff));
    Unmarshall U(Bytes);
    SubmitRequest R;
    U >> R;
    // No assertion on ok(): the point is clean, bounded behavior.
  }
}

// --- Frame layer over real fds ------------------------------------------

namespace {

/// A connected socket pair for frame-layer tests.
struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
};

void writeRaw(int Fd, const std::string &Bytes) {
  ASSERT_EQ(::write(Fd, Bytes.data(), Bytes.size()),
            static_cast<ssize_t>(Bytes.size()));
}

} // namespace

TEST(ServeFrameTest, RoundTrip) {
  SocketPair S;
  ASSERT_TRUE(writeFrame(S.A, MsgType::StatsRequest, "body"));
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Ok);
  EXPECT_EQ(F.Version, WireVersion);
  EXPECT_EQ(F.Type, MsgType::StatsRequest);
  EXPECT_EQ(F.Body, "body");
}

TEST(ServeFrameTest, EofIsClean) {
  SocketPair S;
  ::close(S.A);
  S.A = -1;
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Eof);
}

TEST(ServeFrameTest, TruncatedLengthPrefixIsMalformed) {
  SocketPair S;
  writeRaw(S.A, std::string("\x00\x00", 2));
  ::close(S.A);
  S.A = -1;
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Malformed);
}

TEST(ServeFrameTest, TruncatedPayloadIsMalformed) {
  SocketPair S;
  // Length prefix promises 100 bytes; deliver 3 and hang up.
  Marshall M;
  M << static_cast<uint32_t>(100);
  writeRaw(S.A, M.take() + "abc");
  ::close(S.A);
  S.A = -1;
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Malformed);
  EXPECT_NE(F.Error.find("truncated"), std::string::npos);
}

TEST(ServeFrameTest, OversizedLengthPrefixIsMalformed) {
  SocketPair S;
  Marshall M;
  M << static_cast<uint32_t>(0xffffffff);
  writeRaw(S.A, M.take());
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Malformed);
  EXPECT_NE(F.Error.find("length"), std::string::npos);
}

TEST(ServeFrameTest, UndersizedLengthPrefixIsMalformed) {
  SocketPair S;
  // A frame must carry at least version + type.
  Marshall M;
  M << static_cast<uint32_t>(1);
  writeRaw(S.A, M.take() + "x");
  FrameResult F = readFrame(S.B);
  EXPECT_EQ(F.St, FrameResult::Status::Malformed);
}

// --- Verdict cache -------------------------------------------------------

TEST(VerdictCacheTest, KeyIgnoresRequestIdAndBindingOrder) {
  driver::VerifyOptions O = pingPongOptions();
  SubmitRequest A = fromVerifyOptions(O);
  A.RequestId = 1;
  SubmitRequest B = fromVerifyOptions(O);
  B.RequestId = 999;
  EXPECT_EQ(verdictCacheKey(A), verdictCacheKey(B));

  // Maps canonicalize: inserting consts/abstractions/weights in any
  // order yields the same key.
  SubmitRequest C = A;
  C.Consts.clear();
  C.Consts.emplace("z", 1);
  C.Consts.emplace("a", 2);
  SubmitRequest D = A;
  D.Consts.clear();
  D.Consts.emplace("a", 2);
  D.Consts.emplace("z", 1);
  EXPECT_EQ(verdictCacheKey(C), verdictCacheKey(D));
}

TEST(VerdictCacheTest, KeySensitiveWhereSemanticsAre) {
  SubmitRequest Base = fromVerifyOptions(pingPongOptions());
  std::string BaseKey = verdictCacheKey(Base);

  SubmitRequest Reordered = Base;
  std::swap(Reordered.Eliminate[0], Reordered.Eliminate[1]);
  EXPECT_NE(verdictCacheKey(Reordered), BaseKey)
      << "elimination order is semantic";

  SubmitRequest Rank = Base;
  Rank.ArgMajor = !Rank.ArgMajor;
  EXPECT_NE(verdictCacheKey(Rank), BaseKey) << "rank order is semantic";

  SubmitRequest Source = Base;
  Source.Source += " ";
  EXPECT_NE(verdictCacheKey(Source), BaseKey) << "program text is semantic";

  SubmitRequest Flag = Base;
  Flag.Engine["symmetry"] = "false";
  EXPECT_NE(verdictCacheKey(Flag), BaseKey)
      << "engine configuration is part of the job identity";

  SubmitRequest Chunk = Base;
  Chunk.Engine["steal-chunk"] = "8";
  EXPECT_NE(verdictCacheKey(Chunk), BaseKey)
      << "differing engine configs must not share a cache slot";

  SubmitRequest Const = Base;
  Const.Consts["T"] = 3;
  EXPECT_NE(verdictCacheKey(Const), BaseKey) << "const values are semantic";
}

TEST(VerdictCacheTest, LruEvictionAtCapacity) {
  VerdictCache Cache(2);
  VerdictCache::Entry E;
  E.ReportJson = "{}";
  Cache.insert("k1", E);
  Cache.insert("k2", E);
  EXPECT_TRUE(Cache.lookup("k1").has_value()); // k1 now most recent
  Cache.insert("k3", E);                       // evicts k2
  EXPECT_TRUE(Cache.lookup("k1").has_value());
  EXPECT_FALSE(Cache.lookup("k2").has_value());
  EXPECT_TRUE(Cache.lookup("k3").has_value());

  VerdictCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Evictions, 1u);
  EXPECT_EQ(C.Entries, 2u);
  EXPECT_EQ(C.Hits, 3u);
  EXPECT_EQ(C.Misses, 1u);
}

TEST(VerdictCacheTest, ZeroCapacityDisables) {
  VerdictCache Cache(0);
  VerdictCache::Entry E;
  Cache.insert("k", E);
  EXPECT_FALSE(Cache.lookup("k").has_value());
}

TEST(VerdictCacheTest, HitReturnsDeepEqualResult) {
  driver::VerifyOptions O = pingPongOptions();
  driver::VerifyResult Result = driver::verifyModule(O);
  ASSERT_TRUE(Result.Accepted);
  std::string Json = driver::renderJson(Result);

  VerdictCache Cache(4);
  Cache.insert("job", {Result, Json});
  std::optional<VerdictCache::Entry> Hit = Cache.lookup("job");
  ASSERT_TRUE(Hit.has_value());
  // The renderers are pure functions of the verdict struct, so render
  // equality across every field group is deep equality of the verdict.
  EXPECT_EQ(Hit->ReportJson, Json);
  EXPECT_EQ(driver::renderJson(Hit->Result), Json);
  EXPECT_EQ(driver::renderText(Hit->Result), driver::renderText(Result));
  EXPECT_EQ(Hit->Result.exitCode(), Result.exitCode());
  EXPECT_EQ(Hit->Result.Report.totalObligations(),
            Result.Report.totalObligations());
}

// --- Job queue -----------------------------------------------------------

TEST(JobQueueTest, AdmissionControlAtCapacity) {
  JobQueue Q(2);
  EXPECT_TRUE(Q.tryPush({1, [] {}}));
  EXPECT_TRUE(Q.tryPush({1, [] {}}));
  EXPECT_FALSE(Q.tryPush({1, [] {}})) << "full queue must refuse";
  EXPECT_FALSE(Q.tryPush({2, [] {}})) << "capacity is global";
  EXPECT_EQ(Q.depth(), 2u);
  ASSERT_TRUE(Q.pop().has_value());
  EXPECT_TRUE(Q.tryPush({2, [] {}})) << "space reopens after pop";
}

TEST(JobQueueTest, RoundRobinAcrossClients) {
  JobQueue Q(16);
  std::vector<int> Order;
  auto Push = [&](uint64_t Client, int Tag) {
    ASSERT_TRUE(Q.tryPush({Client, [&Order, Tag] { Order.push_back(Tag); }}));
  };
  // Client 1 floods first; clients 2 and 3 arrive later with one job
  // each. Round-robin must interleave them ahead of 1's backlog.
  Push(1, 10);
  Push(1, 11);
  Push(1, 12);
  Push(2, 20);
  Push(3, 30);
  for (int I = 0; I < 5; ++I) {
    std::optional<Job> J = Q.pop();
    ASSERT_TRUE(J.has_value());
    J->Work();
  }
  EXPECT_EQ(Order, (std::vector<int>{10, 20, 30, 11, 12}));
}

TEST(JobQueueTest, CloseWakesBlockedPopper) {
  JobQueue Q(4);
  std::thread Popper([&] {
    // Drains the one queued job, then unblocks empty on close.
    std::optional<Job> First = Q.pop();
    EXPECT_TRUE(First.has_value());
    std::optional<Job> Second = Q.pop();
    EXPECT_FALSE(Second.has_value());
  });
  EXPECT_TRUE(Q.tryPush({1, [] {}}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  Popper.join();
  EXPECT_FALSE(Q.tryPush({1, [] {}})) << "closed queue refuses pushes";
}

TEST(JobQueueTest, ConcurrentProducersAndConsumers) {
  JobQueue Q(1024);
  std::atomic<int> Ran{0};
  std::vector<std::thread> Producers, Consumers;
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&, P] {
      for (int I = 0; I < 50; ++I)
        while (!Q.tryPush({static_cast<uint64_t>(P), [&Ran] { ++Ran; }}))
          std::this_thread::yield();
    });
  for (int C = 0; C < 3; ++C)
    Consumers.emplace_back([&] {
      while (std::optional<Job> J = Q.pop())
        J->Work();
    });
  for (std::thread &T : Producers)
    T.join();
  while (Q.depth() > 0)
    std::this_thread::yield();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();
  EXPECT_EQ(Ran.load(), 200);
}

// --- End-to-end daemon ---------------------------------------------------

namespace {

/// A running in-process daemon plus a connected client.
struct LiveServer {
  Server Daemon;
  ServeClient Client;

  explicit LiveServer(ServerOptions Opts = {}) : Daemon(std::move(Opts)) {
    std::string Error;
    EXPECT_TRUE(Daemon.start(Error)) << Error;
    EXPECT_TRUE(Client.connect("127.0.0.1", Daemon.port(), Error)) << Error;
  }
};

} // namespace

TEST(ServeEndToEndTest, SubmitTwiceSecondIsCacheHit) {
  LiveServer Live;
  SubmitRequest Request = fromVerifyOptions(pingPongOptions());
  Request.RequestId = 1;

  ServeReply First = Live.Client.submit(Request);
  ASSERT_EQ(First.K, ServeReply::Kind::Verdict) << First.Error;
  EXPECT_EQ(First.Verdict.RequestId, 1u);
  EXPECT_EQ(First.Verdict.ExitCode, 0);
  EXPECT_FALSE(First.Verdict.CacheHit);

  Request.RequestId = 2;
  ServeReply Second = Live.Client.submit(Request);
  ASSERT_EQ(Second.K, ServeReply::Kind::Verdict) << Second.Error;
  EXPECT_EQ(Second.Verdict.RequestId, 2u);
  EXPECT_TRUE(Second.Verdict.CacheHit);
  // Warm responses are byte-identical to the populating run's report.
  EXPECT_EQ(Second.Verdict.ReportJson, First.Verdict.ReportJson);

  // And the served verdict matches a one-shot in-process run modulo
  // timing fields.
  driver::VerifyResult Direct = driver::verifyModule(pingPongOptions());
  EXPECT_EQ(scrubTimings(First.Verdict.ReportJson),
            scrubTimings(driver::renderJson(Direct)));

  ServeReply Stats = Live.Client.stats(3);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_EQ(Stats.Stats.RequestId, 3u);
  EXPECT_EQ(Stats.Stats.Stats.JobsAccepted, 1u);
  EXPECT_EQ(Stats.Stats.Stats.JobsCompleted, 1u);
  EXPECT_EQ(Stats.Stats.Stats.CacheHits, 1u);
  EXPECT_EQ(Stats.Stats.Stats.CacheMisses, 1u);
  EXPECT_EQ(Stats.Stats.Stats.ActiveConnections, 1u);
}

TEST(ServeEndToEndTest, BadEngineConfigRejectedStreamSurvives) {
  LiveServer Live;
  SubmitRequest Request = fromVerifyOptions(pingPongOptions());
  Request.RequestId = 7;
  Request.Engine["frobnicate"] = "1";
  ASSERT_TRUE(Live.Client.send(Request));
  ServeReply Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("bad engine config"), std::string::npos)
      << Error.Error;
  EXPECT_NE(Error.Error.find("frobnicate"), std::string::npos);

  // A client-chosen thread budget is rejected the same way.
  Request.Engine.clear();
  Request.Engine["threads"] = "16";
  ASSERT_TRUE(Live.Client.send(Request));
  Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("--job-threads"), std::string::npos);

  // The stream survives and a corrected submission goes through.
  Request.Engine.clear();
  Request.Engine["steal-chunk"] = "8";
  ASSERT_TRUE(Live.Client.send(Request));
  ServeReply Good = Live.Client.receive();
  ASSERT_EQ(Good.K, ServeReply::Kind::Verdict) << Good.Error;
  EXPECT_EQ(Good.Verdict.ExitCode, 0);

  ServeReply Stats = Live.Client.stats(8);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_GE(Stats.Stats.Stats.FramesRejected, 2u);
}

TEST(ServeEndToEndTest, RemovedWorkStealingKeyRejectedStreamSurvives) {
  // The work-stealing frontier is the only one; the key that selected the
  // level-synchronous frontier is now an unknown option over the wire.
  LiveServer Live;
  SubmitRequest Request = fromVerifyOptions(pingPongOptions());
  Request.RequestId = 1;
  Request.Engine["work-stealing"] = "false";
  ASSERT_TRUE(Live.Client.send(Request));
  ServeReply Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("bad engine config"), std::string::npos)
      << Error.Error;
  EXPECT_NE(Error.Error.find("unknown engine option 'work-stealing'"),
            std::string::npos)
      << Error.Error;

  Request.RequestId = 2;
  Request.Engine.clear();
  ServeReply Good = Live.Client.submit(Request);
  ASSERT_EQ(Good.K, ServeReply::Kind::Verdict) << Good.Error;
  EXPECT_EQ(Good.Verdict.ExitCode, 0);
}

TEST(ServeEndToEndTest, RemovedEngineKeysRejectedStreamSurvives) {
  // The serial checker loops left the library, and the arena has one
  // representation: a request still naming a key that selected one of
  // them gets an error reply under the same wire version, and the
  // connection keeps serving.
  static_assert(WireVersion == 2, "removing a key is not a wire change");
  LiveServer Live;
  SubmitRequest Request = fromVerifyOptions(pingPongOptions());
  uint64_t Id = 0;
  for (auto [Key, Value] :
       std::initializer_list<std::pair<const char *, const char *>>{
           {"parallel-check", "false"},
           {"compress", "true"},
           {"spill", "true"},
           {"spill-dir", "/tmp/s"},
           {"mem-budget", "64M"}}) {
    Request.RequestId = ++Id;
    Request.Engine = {{Key, Value}};
    ASSERT_TRUE(Live.Client.send(Request));
    ServeReply Error = Live.Client.receive();
    EXPECT_EQ(Error.K, ServeReply::Kind::ServerError) << Key;
    EXPECT_NE(Error.Error.find("unknown engine option '" + std::string(Key) +
                               "'"),
              std::string::npos)
        << Error.Error;
  }

  Request.RequestId = ++Id;
  Request.Engine.clear();
  ServeReply Good = Live.Client.submit(Request);
  ASSERT_EQ(Good.K, ServeReply::Kind::Verdict) << Good.Error;
  EXPECT_EQ(Good.Verdict.ExitCode, 0);
}

TEST(ServeEndToEndTest, DifferingEngineConfigsDoNotCoalesceOrCacheShare) {
  LiveServer Live;
  SubmitRequest Default = fromVerifyOptions(pingPongOptions());
  Default.RequestId = 1;
  ServeReply First = Live.Client.submit(Default);
  ASSERT_EQ(First.K, ServeReply::Kind::Verdict) << First.Error;
  EXPECT_FALSE(First.Verdict.CacheHit);

  // Same job, different engine config: a distinct cache identity, so it
  // must run cold, not attach to the cached verdict...
  SubmitRequest Tuned = fromVerifyOptions(pingPongOptions());
  Tuned.RequestId = 2;
  Tuned.Engine["steal-chunk"] = "8";
  ServeReply Second = Live.Client.submit(Tuned);
  ASSERT_EQ(Second.K, ServeReply::Kind::Verdict) << Second.Error;
  EXPECT_FALSE(Second.Verdict.CacheHit)
      << "differing engine configs must not coalesce";
  // ...while the verdict itself is engine-invariant.
  EXPECT_EQ(Second.Verdict.ExitCode, First.Verdict.ExitCode);

  // Resubmitting each exact config is a hit for that config.
  Default.RequestId = 3;
  ServeReply Third = Live.Client.submit(Default);
  ASSERT_EQ(Third.K, ServeReply::Kind::Verdict) << Third.Error;
  EXPECT_TRUE(Third.Verdict.CacheHit);
  Tuned.RequestId = 4;
  ServeReply Fourth = Live.Client.submit(Tuned);
  ASSERT_EQ(Fourth.K, ServeReply::Kind::Verdict) << Fourth.Error;
  EXPECT_TRUE(Fourth.Verdict.CacheHit);

  ServeReply Stats = Live.Client.stats(9);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_EQ(Stats.Stats.Stats.JobsCoalesced, 0u);
  EXPECT_EQ(Stats.Stats.Stats.CacheMisses, 2u);
}

TEST(ServeEndToEndTest, CompileErrorYieldsExitCode2Verdict) {
  LiveServer Live;
  SubmitRequest Request;
  Request.RequestId = 1;
  Request.Source = "this is not ASL";
  Request.Eliminate = {"A"};
  ServeReply Reply = Live.Client.submit(Request);
  ASSERT_EQ(Reply.K, ServeReply::Kind::Verdict) << Reply.Error;
  EXPECT_EQ(Reply.Verdict.ExitCode, 2);
  EXPECT_NE(Reply.Verdict.ReportJson.find("\"compile_ok\":false"),
            std::string::npos);
}

TEST(ServeEndToEndTest, WrongVersionByteRejectedStreamSurvives) {
  LiveServer Live;
  // A well-framed message with version 9: targeted error, stream stays
  // usable for the next (valid) request.
  Marshall Body;
  Body << StatsRequest{1};
  Marshall Frame;
  Frame << static_cast<uint32_t>(Body.buffer().size() + 2)
        << static_cast<uint8_t>(9)
        << static_cast<uint8_t>(MsgType::StatsRequest);
  ASSERT_TRUE(Live.Client.sendRaw(Frame.buffer() + Body.buffer()));
  ServeReply Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("version"), std::string::npos);

  ServeReply Stats = Live.Client.stats(2);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_GE(Stats.Stats.Stats.FramesRejected, 1u);
}

TEST(ServeEndToEndTest, UnknownTypeRejectedStreamSurvives) {
  LiveServer Live;
  ASSERT_TRUE(Live.Client.sendRaw(
      encodeFrame(static_cast<MsgType>(0x42), "whatever")));
  ServeReply Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("message type"), std::string::npos);
  ServeReply Stats = Live.Client.stats(1);
  EXPECT_EQ(Stats.K, ServeReply::Kind::Stats);
}

TEST(ServeEndToEndTest, GarbageSubmitBodyRejectedStreamSurvives) {
  LiveServer Live;
  ASSERT_TRUE(Live.Client.sendRaw(
      encodeFrame(MsgType::SubmitRequest, "\xff\xfe garbage bytes")));
  ServeReply Error = Live.Client.receive();
  EXPECT_EQ(Error.K, ServeReply::Kind::ServerError);
  EXPECT_NE(Error.Error.find("SubmitRequest"), std::string::npos);
  ServeReply Stats = Live.Client.stats(1);
  EXPECT_EQ(Stats.K, ServeReply::Kind::Stats);
}

TEST(ServeEndToEndTest, OversizedLengthPrefixClosesConnection) {
  LiveServer Live;
  Marshall M;
  M << static_cast<uint32_t>(0xfffffffe);
  ASSERT_TRUE(Live.Client.sendRaw(M.take()));
  ServeReply Reply = Live.Client.receive();
  // Best-effort error response, then close; either way the connection
  // ends without a crash or hang.
  if (Reply.K == ServeReply::Kind::ServerError)
    Reply = Live.Client.receive();
  EXPECT_EQ(Reply.K, ServeReply::Kind::Disconnected);

  // The daemon survives and serves fresh connections.
  ServeClient Fresh;
  std::string Error;
  ASSERT_TRUE(Fresh.connect("127.0.0.1", Live.Daemon.port(), Error));
  EXPECT_EQ(Fresh.stats(1).K, ServeReply::Kind::Stats);
}

TEST(ServeEndToEndTest, TruncatedFrameThenHangupHandled) {
  LiveServer Live;
  // Promise 50 payload bytes, send 5, hang up: the handler sees a
  // truncated frame and drops the connection; the daemon lives on.
  Marshall M;
  M << static_cast<uint32_t>(50);
  ASSERT_TRUE(Live.Client.sendRaw(M.take() + "abcde"));
  Live.Client.close();

  ServeClient Fresh;
  std::string Error;
  ASSERT_TRUE(Fresh.connect("127.0.0.1", Live.Daemon.port(), Error));
  ServeReply Stats = Fresh.stats(1);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
}

TEST(ServeEndToEndTest, PipelinedSubmissionsAllAnswered) {
  ServerOptions Opts;
  Opts.Workers = 2;
  LiveServer Live(Opts);
  // Pipeline: send all, then read all. Ids distinguish the replies;
  // distinct consts defeat the cache so every job really runs.
  driver::VerifyOptions Base = pingPongOptions();
  constexpr int N = 4;
  for (int I = 0; I < N; ++I) {
    SubmitRequest Request = fromVerifyOptions(Base);
    Request.Consts["T"] = 1 + (I % 2); // two distinct jobs, two repeats
    Request.RequestId = static_cast<uint64_t>(I) + 1;
    ASSERT_TRUE(Live.Client.send(Request));
  }
  int Verdicts = 0;
  std::set<uint64_t> Ids;
  for (int I = 0; I < N; ++I) {
    ServeReply Reply = Live.Client.receive();
    ASSERT_EQ(Reply.K, ServeReply::Kind::Verdict) << Reply.Error;
    EXPECT_EQ(Reply.Verdict.ExitCode, 0);
    Ids.insert(Reply.Verdict.RequestId);
    ++Verdicts;
  }
  EXPECT_EQ(Verdicts, N);
  EXPECT_EQ(Ids.size(), static_cast<size_t>(N));
}

TEST(ServeEndToEndTest, SingleFlightCoalescesIdenticalSubmissions) {
  // One worker. A slow blocker job occupies it; four identical cold
  // submissions then arrive, so the first becomes the in-flight leader
  // and the other three must attach as waiters instead of recomputing.
  ServerOptions Opts;
  Opts.Workers = 1;
  LiveServer Live(Opts);

  driver::VerifyOptions Blocker;
  Blocker.Source = readExampleAsl("two_phase_commit.asl");
  Blocker.Consts["n"] = 2;
  Blocker.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Blocker.Abstractions = {{"Decide", "DecideAbs"}};
  Blocker.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  SubmitRequest Slow = fromVerifyOptions(Blocker);
  Slow.RequestId = 1;
  ASSERT_TRUE(Live.Client.send(Slow));

  constexpr int N = 4;
  SubmitRequest Same = fromVerifyOptions(pingPongOptions());
  for (int I = 0; I < N; ++I) {
    Same.RequestId = static_cast<uint64_t>(I) + 10;
    ASSERT_TRUE(Live.Client.send(Same));
  }

  int ColdVerdicts = 0, SharedVerdicts = 0;
  std::string FirstJson;
  for (int I = 0; I < N + 1; ++I) {
    ServeReply Reply = Live.Client.receive();
    ASSERT_EQ(Reply.K, ServeReply::Kind::Verdict) << Reply.Error;
    EXPECT_EQ(Reply.Verdict.ExitCode, 0);
    if (Reply.Verdict.RequestId < 10)
      continue; // the blocker
    if (Reply.Verdict.CacheHit)
      ++SharedVerdicts;
    else
      ++ColdVerdicts;
    if (FirstJson.empty())
      FirstJson = Reply.Verdict.ReportJson;
    else
      EXPECT_EQ(Reply.Verdict.ReportJson, FirstJson)
          << "coalesced verdicts must be byte-identical";
  }
  EXPECT_EQ(ColdVerdicts, 1) << "exactly one submission runs the pipeline";
  EXPECT_EQ(SharedVerdicts, N - 1);

  ServeReply Stats = Live.Client.stats(99);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_EQ(Stats.Stats.Stats.JobsAccepted, 2u); // blocker + leader
  EXPECT_EQ(Stats.Stats.Stats.JobsCompleted, 2u);
  EXPECT_EQ(Stats.Stats.Stats.JobsCoalesced, 3u);
}

TEST(ServeEndToEndTest, AdmissionControlUnderFlood) {
  // One worker, one queue slot: flood 8 distinct jobs without reading
  // replies. Every submission is answered — some with verdicts, the
  // overflow with REJECTED_BUSY — and nothing hangs.
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 1;
  LiveServer Live(Opts);
  driver::VerifyOptions Base = pingPongOptions();
  constexpr int N = 8;
  for (int I = 0; I < N; ++I) {
    SubmitRequest Request = fromVerifyOptions(Base);
    Request.Consts["T"] = 2 + I; // all distinct: no cache short-circuit
    Request.RequestId = static_cast<uint64_t>(I) + 1;
    ASSERT_TRUE(Live.Client.send(Request));
  }
  int Verdicts = 0, Busy = 0;
  for (int I = 0; I < N; ++I) {
    ServeReply Reply = Live.Client.receive();
    if (Reply.K == ServeReply::Kind::Verdict)
      ++Verdicts;
    else if (Reply.K == ServeReply::Kind::Busy)
      ++Busy;
    else
      FAIL() << "unexpected reply: " << Reply.Error;
  }
  EXPECT_EQ(Verdicts + Busy, N);
  EXPECT_GE(Verdicts, 1);
  ServeReply Stats = Live.Client.stats(99);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  EXPECT_EQ(Stats.Stats.Stats.JobsRejected, static_cast<uint64_t>(Busy));
  EXPECT_EQ(Stats.Stats.Stats.JobsAccepted,
            static_cast<uint64_t>(Verdicts));
}

TEST(ServeEndToEndTest, StopWhileClientsConnected) {
  auto Live = std::make_unique<LiveServer>();
  ServeReply Stats = Live->Client.stats(1);
  ASSERT_EQ(Stats.K, ServeReply::Kind::Stats);
  Live->Daemon.stop(); // must not hang with the connection open
  ServeReply After = Live->Client.receive();
  EXPECT_EQ(After.K, ServeReply::Kind::Disconnected);
}

TEST(ServeEndToEndTest, SharedObligationCacheAcrossDistinctRequests) {
  // The daemon keeps one process-wide obligation verdict cache *below*
  // the whole-request VerdictCache: requests whose bytes differ (so the
  // request cache misses) still reuse every obligation whose semantic
  // fingerprints are unchanged. Comment-only variants are the sharpest
  // probe — every variant misses the request cache and fingerprints
  // identically. Two concurrent waves exercise both racy directions on
  // the shared cache (this test runs under TSan in tools/ci.sh): the
  // first wave races inserts while cold, the second races lazy lookups
  // while warm.
  LiveServer Live;
  driver::VerifyOptions Base = pingPongOptions();

  // Obligation-cache telemetry legitimately differs across cache states;
  // everything else in the verdicts must be bit-identical.
  auto ScrubCache = [](const std::string &Json) {
    return json::zeroNumbers(Json, {"*seconds", "cache_hits", "cache_misses",
                                    "disk_hits"});
  };

  constexpr int Waves = 2, PerWave = 4;
  std::vector<std::string> Reports;
  std::mutex ReportsM;
  for (int Wave = 0; Wave < Waves; ++Wave) {
    std::vector<std::thread> Threads;
    for (int I = 0; I < PerWave; ++I) {
      Threads.emplace_back([&, Wave, I] {
        driver::VerifyOptions Variant = Base;
        Variant.Source = "// variant " + std::to_string(Wave) + "." +
                         std::to_string(I) + "\n" + Variant.Source;
        SubmitRequest Request = fromVerifyOptions(Variant);
        Request.RequestId = static_cast<uint64_t>(Wave * PerWave + I + 1);
        ServeClient Client;
        std::string Error;
        ASSERT_TRUE(Client.connect("127.0.0.1", Live.Daemon.port(), Error))
            << Error;
        ServeReply Reply = Client.submit(Request);
        ASSERT_EQ(Reply.K, ServeReply::Kind::Verdict) << Reply.Error;
        EXPECT_EQ(Reply.Verdict.ExitCode, 0);
        // Distinct bytes: never a whole-request cache hit.
        EXPECT_FALSE(Reply.Verdict.CacheHit);
        if (Wave > 0) {
          // The warm wave runs against a fully populated obligation
          // cache: nothing left to re-discharge.
          EXPECT_NE(Reply.Verdict.ReportJson.find("\"cache_misses\":0"),
                    std::string::npos)
              << Reply.Verdict.ReportJson;
        }
        std::lock_guard<std::mutex> Lock(ReportsM);
        Reports.push_back(Reply.Verdict.ReportJson);
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }

  ASSERT_EQ(Reports.size(), static_cast<size_t>(Waves * PerWave));
  for (const std::string &Report : Reports)
    EXPECT_EQ(ScrubCache(Report), ScrubCache(Reports.front()));

  // And modulo the same scrub, the served verdicts match a one-shot
  // in-process run with no cache attached.
  driver::VerifyResult Direct = driver::verifyModule(Base);
  EXPECT_EQ(ScrubCache(Reports.front()),
            ScrubCache(driver::renderJson(Direct)));
}
