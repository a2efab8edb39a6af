//===- serve/Wire.h - isq-serve wire protocol -------------------*- C++ -*-===//
///
/// \file
/// The binary wire protocol of the verification service (isq-serve /
/// isq-loadgen): a length-prefixed frame layer plus typed request and
/// response structs marshalled in the classic RPC `Marshall`/`Unmarshall`
/// style (operator<< writes a struct field by field, operator>> reads it
/// back; see the protocol table in README.md).
///
/// Framing. Every message is one frame:
///
///   uint32  payload length (big-endian, bounded by MaxPayloadBytes)
///   uint8   protocol version (WireVersion)
///   uint8   message type (MsgType)
///   ...     message body (typed struct, marshalled field by field)
///
/// The length prefix counts the payload (version byte onward). A frame
/// whose length prefix exceeds MaxPayloadBytes, whose version byte is not
/// WireVersion, or whose body does not unmarshall cleanly is *malformed*:
/// the server answers with an ErrorResponse where the framing allows it
/// and closes the connection where it does not (an oversized or truncated
/// length prefix leaves no way to resynchronize the stream). Malformed
/// input never crashes or hangs either endpoint — every read is
/// bounds-checked and every allocation is capped by the frame length.
///
/// Integers are big-endian on the wire. Strings are a uint32 length
/// followed by the bytes; the unmarshaller rejects lengths exceeding the
/// remaining payload, so garbage frames cannot trigger huge allocations.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SERVE_WIRE_H
#define ISQ_SERVE_WIRE_H

#include "driver/VerifyDriver.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace isq {
namespace serve {

/// The protocol version this build speaks. Bumped on any incompatible
/// change to the framing or the message bodies.
///
/// History:
///   1  initial protocol
///   2  SubmitRequest carries an engine-configuration map (KEY=VALUE
///      pairs with the --engine key set) instead of the fixed
///      checker-mode/symmetry booleans
constexpr uint8_t WireVersion = 2;

/// Upper bound on one frame's payload. Large enough for any realistic
/// ASL module plus report; small enough that a garbage length prefix is
/// rejected instead of allocated.
constexpr uint32_t MaxPayloadBytes = 16u << 20;

/// Message types. Requests have the high bit clear, responses set.
enum class MsgType : uint8_t {
  SubmitRequest = 0x01, ///< run (or cache-serve) one verification job
  StatsRequest = 0x02,  ///< snapshot the server counters
  VerdictResponse = 0x81,
  StatsResponse = 0x82,
  BusyResponse = 0x83, ///< admission control rejected the job
  ErrorResponse = 0x7f,
};

//===----------------------------------------------------------------------===//
// Marshall / Unmarshall
//===----------------------------------------------------------------------===//

/// Serializes values into a byte buffer (big-endian integers,
/// length-prefixed strings and containers).
class Marshall {
public:
  Marshall &operator<<(uint8_t V);
  Marshall &operator<<(uint32_t V);
  Marshall &operator<<(uint64_t V);
  Marshall &operator<<(int64_t V);
  Marshall &operator<<(bool V);
  Marshall &operator<<(double V); ///< IEEE-754 bits as uint64
  Marshall &operator<<(const std::string &S);

  template <typename T> Marshall &operator<<(const std::vector<T> &V) {
    *this << static_cast<uint32_t>(V.size());
    for (const T &E : V)
      *this << E;
    return *this;
  }
  template <typename K, typename V>
  Marshall &operator<<(const std::map<K, V> &M) {
    *this << static_cast<uint32_t>(M.size());
    for (const auto &[Key, Val] : M) {
      *this << Key;
      *this << Val;
    }
    return *this;
  }

  const std::string &buffer() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Deserializes values from a byte buffer. Every read is bounds-checked:
/// on underflow (or any other malformation) the ok() flag latches false
/// and all subsequent reads yield zero values, so decoders can read a
/// whole struct and test ok() once at the end.
class Unmarshall {
public:
  explicit Unmarshall(std::string Bytes) : Buf(std::move(Bytes)) {}

  Unmarshall &operator>>(uint8_t &V);
  Unmarshall &operator>>(uint32_t &V);
  Unmarshall &operator>>(uint64_t &V);
  Unmarshall &operator>>(int64_t &V);
  Unmarshall &operator>>(bool &V);
  Unmarshall &operator>>(double &V);
  Unmarshall &operator>>(std::string &S);

  template <typename T> Unmarshall &operator>>(std::vector<T> &V) {
    V.clear();
    uint32_t Count = 0;
    *this >> Count;
    // Every element costs at least one payload byte, so a count beyond
    // the remaining bytes is garbage — reject before allocating.
    if (Count > remaining()) {
      Ok = false;
      return *this;
    }
    V.reserve(Count);
    for (uint32_t I = 0; I < Count && Ok; ++I) {
      T E{};
      *this >> E;
      V.push_back(std::move(E));
    }
    return *this;
  }
  template <typename K, typename V>
  Unmarshall &operator>>(std::map<K, V> &M) {
    M.clear();
    uint32_t Count = 0;
    *this >> Count;
    if (Count > remaining()) {
      Ok = false;
      return *this;
    }
    for (uint32_t I = 0; I < Count && Ok; ++I) {
      K Key{};
      V Val{};
      *this >> Key;
      *this >> Val;
      if (Ok)
        M.emplace(std::move(Key), std::move(Val));
    }
    return *this;
  }

  bool ok() const { return Ok; }
  /// True when every payload byte was consumed (trailing garbage in a
  /// frame body is a malformation).
  bool atEnd() const { return Pos == Buf.size(); }
  size_t remaining() const { return Buf.size() - Pos; }

private:
  bool take(size_t N, const char *&Out);

  std::string Buf;
  size_t Pos = 0;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// Typed messages
//===----------------------------------------------------------------------===//

/// One verification job: the wire form of driver::VerifyOptions plus a
/// client-chosen request id echoed in the response (so clients may
/// pipeline submissions over one connection).
struct SubmitRequest {
  uint64_t RequestId = 0;
  std::string Source;
  std::map<std::string, int64_t> Consts;
  std::string RewriteAction = "Main";
  std::vector<std::string> Eliminate;
  bool ArgMajor = false;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;
  bool CrossCheck = true;
  /// Engine configuration as KEY=VALUE pairs over --engine's key set
  /// (engine/EngineConfig.h), carrying only the keys the client set
  /// explicitly. The server validates with EngineConfig::applyKeyValues
  /// and answers an unknown key with an ErrorResponse diagnostic, never
  /// a crash. "threads" is rejected: the per-job thread budget is a
  /// server tuning knob (--job-threads), not a client choice — every
  /// knob here changes only performance/observability, never verdicts,
  /// so caching across clients stays sound.
  std::map<std::string, std::string> Engine;
};

/// The verdict for one submission. ReportJson is the schema-versioned
/// report of `isq-verify --format json` (driver/ReportRender.h); ExitCode
/// follows the documented isq-verify exit codes (0 accepted, 1 rejected,
/// 2 compile/input error).
struct VerdictResponse {
  uint64_t RequestId = 0;
  uint8_t ExitCode = 0;
  bool CacheHit = false;
  std::string ReportJson;
};

/// Admission-control rejection: the job queue was full when the request
/// arrived. The client may retry later; nothing was enqueued.
struct BusyResponse {
  uint64_t RequestId = 0;
  uint32_t QueueDepth = 0;
  std::string Message;
};

/// Protocol-level failure (unknown message type, body that does not
/// unmarshall, unsupported version). RequestId is 0 when the request id
/// could not be recovered from the malformed input.
struct ErrorResponse {
  uint64_t RequestId = 0;
  std::string Message;
};

struct StatsRequest {
  uint64_t RequestId = 0;
};

/// Server counters, all monotonic since server start except QueueDepth
/// and ActiveConnections (instantaneous).
struct ServeStats {
  uint64_t JobsAccepted = 0;
  uint64_t JobsRejected = 0; ///< admission-control rejections
  uint64_t JobsCompleted = 0;
  /// Submissions that attached to an identical in-flight job
  /// (single-flight coalescing) instead of running the pipeline again.
  uint64_t JobsCoalesced = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t FramesRejected = 0; ///< malformed frames / bodies seen
  uint64_t QueueDepth = 0;
  uint64_t ActiveConnections = 0;
  double TotalJobSeconds = 0; ///< summed per-job wall time (cache misses)
  double MaxJobSeconds = 0;   ///< slowest single job
};

struct StatsResponse {
  uint64_t RequestId = 0;
  ServeStats Stats;
};

Marshall &operator<<(Marshall &M, const SubmitRequest &R);
Unmarshall &operator>>(Unmarshall &U, SubmitRequest &R);
Marshall &operator<<(Marshall &M, const VerdictResponse &R);
Unmarshall &operator>>(Unmarshall &U, VerdictResponse &R);
Marshall &operator<<(Marshall &M, const BusyResponse &R);
Unmarshall &operator>>(Unmarshall &U, BusyResponse &R);
Marshall &operator<<(Marshall &M, const ErrorResponse &R);
Unmarshall &operator>>(Unmarshall &U, ErrorResponse &R);
Marshall &operator<<(Marshall &M, const StatsRequest &R);
Unmarshall &operator>>(Unmarshall &U, StatsRequest &R);
Marshall &operator<<(Marshall &M, const ServeStats &S);
Unmarshall &operator>>(Unmarshall &U, ServeStats &S);
Marshall &operator<<(Marshall &M, const StatsResponse &R);
Unmarshall &operator>>(Unmarshall &U, StatsResponse &R);

/// Converts a submission into driver options. \p NumThreads is the
/// server-side worker-thread budget per job (results are bit-identical
/// for any value, so it is a server tuning knob, not a client choice).
/// Assumes R.Engine was already validated (see validateEngine);
/// unparseable entries are ignored here.
driver::VerifyOptions toVerifyOptions(const SubmitRequest &R,
                                      unsigned NumThreads);

/// Validates \p R.Engine against the engine key set ("threads" is
/// additionally rejected as server-controlled). Returns false and sets
/// \p Error on the first bad entry.
bool validateEngine(const SubmitRequest &R, std::string &Error);

/// Builds a submission from driver options (client side).
SubmitRequest fromVerifyOptions(const driver::VerifyOptions &O);

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

/// Encodes a complete frame (length prefix + version + type + body).
std::string encodeFrame(MsgType Type, const std::string &Body);

/// Result of reading one frame from a stream.
struct FrameResult {
  enum class Status {
    Ok,        ///< Type/Body are valid
    Eof,       ///< clean end of stream before a frame started
    Malformed, ///< framing violation — the stream cannot be resynced
  };
  Status St = Status::Eof;
  uint8_t Version = 0;
  MsgType Type = MsgType::ErrorResponse;
  std::string Body;
  std::string Error; ///< diagnostic when St == Malformed
};

/// Reads one frame from \p Fd (blocking; loops over short reads). A
/// truncated frame (EOF mid-frame) and an oversized length prefix are
/// both Malformed. Version and type bytes are returned raw — callers
/// decide how to answer an unsupported version or unknown type; bodies
/// are not decoded here.
FrameResult readFrame(int Fd);

/// Writes one complete frame to \p Fd (blocking; loops over short
/// writes, EPIPE-safe). Returns false when the peer is gone.
bool writeFrame(int Fd, MsgType Type, const std::string &Body);

/// Marshalls \p Message and writes it as one frame.
template <typename T> bool writeMessage(int Fd, MsgType Type, const T &Message) {
  Marshall M;
  M << Message;
  return writeFrame(Fd, Type, M.buffer());
}

} // namespace serve
} // namespace isq

#endif // ISQ_SERVE_WIRE_H
