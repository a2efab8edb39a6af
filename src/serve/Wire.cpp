//===- serve/Wire.cpp - isq-serve wire protocol ----------------------------===//

#include "serve/Wire.h"

#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

using namespace isq;
using namespace isq::serve;

//===----------------------------------------------------------------------===//
// Marshall
//===----------------------------------------------------------------------===//

Marshall &Marshall::operator<<(uint8_t V) {
  Buf.push_back(static_cast<char>(V));
  return *this;
}

Marshall &Marshall::operator<<(uint32_t V) {
  for (int Shift = 24; Shift >= 0; Shift -= 8)
    Buf.push_back(static_cast<char>((V >> Shift) & 0xff));
  return *this;
}

Marshall &Marshall::operator<<(uint64_t V) {
  for (int Shift = 56; Shift >= 0; Shift -= 8)
    Buf.push_back(static_cast<char>((V >> Shift) & 0xff));
  return *this;
}

Marshall &Marshall::operator<<(int64_t V) {
  return *this << static_cast<uint64_t>(V);
}

Marshall &Marshall::operator<<(bool V) {
  return *this << static_cast<uint8_t>(V ? 1 : 0);
}

Marshall &Marshall::operator<<(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  return *this << Bits;
}

Marshall &Marshall::operator<<(const std::string &S) {
  *this << static_cast<uint32_t>(S.size());
  Buf.append(S);
  return *this;
}

//===----------------------------------------------------------------------===//
// Unmarshall
//===----------------------------------------------------------------------===//

bool Unmarshall::take(size_t N, const char *&Out) {
  if (!Ok || Buf.size() - Pos < N) {
    Ok = false;
    return false;
  }
  Out = Buf.data() + Pos;
  Pos += N;
  return true;
}

Unmarshall &Unmarshall::operator>>(uint8_t &V) {
  V = 0;
  const char *P;
  if (take(1, P))
    V = static_cast<uint8_t>(*P);
  return *this;
}

Unmarshall &Unmarshall::operator>>(uint32_t &V) {
  V = 0;
  const char *P;
  if (take(4, P))
    for (int I = 0; I < 4; ++I)
      V = (V << 8) | static_cast<uint8_t>(P[I]);
  return *this;
}

Unmarshall &Unmarshall::operator>>(uint64_t &V) {
  V = 0;
  const char *P;
  if (take(8, P))
    for (int I = 0; I < 8; ++I)
      V = (V << 8) | static_cast<uint8_t>(P[I]);
  return *this;
}

Unmarshall &Unmarshall::operator>>(int64_t &V) {
  uint64_t U = 0;
  *this >> U;
  V = static_cast<int64_t>(U);
  return *this;
}

Unmarshall &Unmarshall::operator>>(bool &V) {
  uint8_t B = 0;
  *this >> B;
  // Anything but 0/1 is a malformation, not a truthy value.
  if (B > 1)
    Ok = false;
  V = B == 1;
  return *this;
}

Unmarshall &Unmarshall::operator>>(double &V) {
  uint64_t Bits = 0;
  *this >> Bits;
  std::memcpy(&V, &Bits, sizeof(V));
  return *this;
}

Unmarshall &Unmarshall::operator>>(std::string &S) {
  S.clear();
  uint32_t Len = 0;
  *this >> Len;
  // The length is bounded by the remaining payload, so a garbage length
  // fails cleanly instead of allocating gigabytes.
  if (Len > remaining()) {
    Ok = false;
    return *this;
  }
  const char *P;
  if (take(Len, P))
    S.assign(P, Len);
  return *this;
}

//===----------------------------------------------------------------------===//
// Typed messages
//===----------------------------------------------------------------------===//

namespace isq {
namespace serve {

Marshall &operator<<(Marshall &M, const SubmitRequest &R) {
  M << R.RequestId << R.Source << R.Consts << R.RewriteAction << R.Eliminate
    << R.ArgMajor << R.Abstractions << R.Weights << R.CrossCheck << R.Engine;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, SubmitRequest &R) {
  U >> R.RequestId >> R.Source >> R.Consts >> R.RewriteAction >>
      R.Eliminate >> R.ArgMajor >> R.Abstractions >> R.Weights >>
      R.CrossCheck >> R.Engine;
  return U;
}

Marshall &operator<<(Marshall &M, const VerdictResponse &R) {
  M << R.RequestId << R.ExitCode << R.CacheHit << R.ReportJson;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, VerdictResponse &R) {
  U >> R.RequestId >> R.ExitCode >> R.CacheHit >> R.ReportJson;
  return U;
}

Marshall &operator<<(Marshall &M, const BusyResponse &R) {
  M << R.RequestId << R.QueueDepth << R.Message;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, BusyResponse &R) {
  U >> R.RequestId >> R.QueueDepth >> R.Message;
  return U;
}

Marshall &operator<<(Marshall &M, const ErrorResponse &R) {
  M << R.RequestId << R.Message;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, ErrorResponse &R) {
  U >> R.RequestId >> R.Message;
  return U;
}

Marshall &operator<<(Marshall &M, const StatsRequest &R) {
  M << R.RequestId;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, StatsRequest &R) {
  U >> R.RequestId;
  return U;
}

Marshall &operator<<(Marshall &M, const ServeStats &S) {
  M << S.JobsAccepted << S.JobsRejected << S.JobsCompleted
    << S.JobsCoalesced << S.CacheHits
    << S.CacheMisses << S.CacheEvictions << S.FramesRejected << S.QueueDepth
    << S.ActiveConnections << S.TotalJobSeconds << S.MaxJobSeconds;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, ServeStats &S) {
  U >> S.JobsAccepted >> S.JobsRejected >> S.JobsCompleted >>
      S.JobsCoalesced >> S.CacheHits >>
      S.CacheMisses >> S.CacheEvictions >> S.FramesRejected >> S.QueueDepth >>
      S.ActiveConnections >> S.TotalJobSeconds >> S.MaxJobSeconds;
  return U;
}

Marshall &operator<<(Marshall &M, const StatsResponse &R) {
  M << R.RequestId << R.Stats;
  return M;
}

Unmarshall &operator>>(Unmarshall &U, StatsResponse &R) {
  U >> R.RequestId >> R.Stats;
  return U;
}

} // namespace serve
} // namespace isq

driver::VerifyOptions serve::toVerifyOptions(const SubmitRequest &R,
                                             unsigned NumThreads) {
  driver::VerifyOptions O;
  O.Source = R.Source;
  O.Consts = R.Consts;
  O.RewriteAction = R.RewriteAction;
  O.Eliminate = R.Eliminate;
  O.Order = R.ArgMajor ? driver::VerifyOptions::RankOrder::ArgMajor
                       : driver::VerifyOptions::RankOrder::ActionMajor;
  O.Abstractions = R.Abstractions;
  O.Weights = R.Weights;
  O.CrossCheck = R.CrossCheck;
  std::string Ignored;
  O.Engine.applyKeyValues(R.Engine, Ignored);
  // The per-job thread budget is the server's, regardless of what the
  // client sent (applyKeyValues rejects "threads" anyway).
  O.Engine.NumThreads = NumThreads;
  return O;
}

bool serve::validateEngine(const SubmitRequest &R, std::string &Error) {
  engine::EngineConfig Probe;
  return Probe.applyKeyValues(R.Engine, Error);
}

SubmitRequest serve::fromVerifyOptions(const driver::VerifyOptions &O) {
  SubmitRequest R;
  R.Source = O.Source;
  R.Consts = O.Consts;
  R.RewriteAction = O.RewriteAction;
  R.Eliminate = O.Eliminate;
  R.ArgMajor = O.Order == driver::VerifyOptions::RankOrder::ArgMajor;
  R.Abstractions = O.Abstractions;
  R.Weights = O.Weights;
  R.CrossCheck = O.CrossCheck;
  // Only non-default keys travel; "threads" never does (toKeyValues
  // omits it — the server assigns the job's thread budget).
  R.Engine = O.Engine.toKeyValues();
  return R;
}

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

std::string serve::encodeFrame(MsgType Type, const std::string &Body) {
  Marshall M;
  uint32_t Len = static_cast<uint32_t>(Body.size()) + 2;
  M << Len << WireVersion << static_cast<uint8_t>(Type);
  std::string Out = M.take();
  Out.append(Body);
  return Out;
}

namespace {

/// Reads exactly \p N bytes. Returns the byte count actually read: N on
/// success, less on EOF, -1 on error.
ssize_t readAll(int Fd, char *Buf, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (R == 0)
      break;
    Got += static_cast<size_t>(R);
  }
  return static_cast<ssize_t>(Got);
}

} // namespace

FrameResult serve::readFrame(int Fd) {
  FrameResult Out;
  char Header[4];
  ssize_t Got = readAll(Fd, Header, 4);
  if (Got == 0) {
    Out.St = FrameResult::Status::Eof;
    return Out;
  }
  if (Got != 4) {
    Out.St = FrameResult::Status::Malformed;
    Out.Error = "truncated length prefix";
    return Out;
  }
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len = (Len << 8) | static_cast<uint8_t>(Header[I]);
  if (Len < 2 || Len > MaxPayloadBytes) {
    Out.St = FrameResult::Status::Malformed;
    Out.Error = "invalid payload length " + std::to_string(Len);
    return Out;
  }
  std::string Payload(Len, '\0');
  if (readAll(Fd, Payload.data(), Len) != static_cast<ssize_t>(Len)) {
    Out.St = FrameResult::Status::Malformed;
    Out.Error = "truncated frame payload";
    return Out;
  }
  Out.St = FrameResult::Status::Ok;
  Out.Version = static_cast<uint8_t>(Payload[0]);
  Out.Type = static_cast<MsgType>(static_cast<uint8_t>(Payload[1]));
  Out.Body = Payload.substr(2);
  return Out;
}

bool serve::writeFrame(int Fd, MsgType Type, const std::string &Body) {
  if (Body.size() > MaxPayloadBytes - 2)
    return false;
  std::string Frame = encodeFrame(Type, Body);
  size_t Sent = 0;
  while (Sent < Frame.size()) {
    // MSG_NOSIGNAL: a vanished peer yields EPIPE instead of killing the
    // process with SIGPIPE.
    ssize_t W = ::send(Fd, Frame.data() + Sent, Frame.size() - Sent,
                       MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}
