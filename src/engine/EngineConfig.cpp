//===- engine/EngineConfig.cpp - Unified engine configuration -----------------===//

#include "engine/EngineConfig.h"

#include <charconv>

using namespace isq;
using namespace isq::engine;

namespace {

bool parseUnsigned(const std::string &S, unsigned &Out) {
  const char *First = S.data();
  const char *Last = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last && !S.empty();
}

bool parseBool(const std::string &S, bool &Out) {
  if (S == "true" || S == "on" || S == "1") {
    Out = true;
    return true;
  }
  if (S == "false" || S == "off" || S == "0") {
    Out = false;
    return true;
  }
  return false;
}

bool isPowerOfTwo(unsigned N) { return N != 0 && (N & (N - 1)) == 0; }

} // namespace

bool EngineConfig::set(const std::string &Key, const std::string &Value,
                       std::string &Error) {
  if (Key == "threads") {
    unsigned N = 0;
    if (!parseUnsigned(Value, N) || N < 1) {
      Error = "engine option 'threads' expects a positive integer, got '" +
              Value + "'";
      return false;
    }
    NumThreads = N;
    return true;
  }
  if (Key == "steal-chunk") {
    unsigned N = 0;
    if (!parseUnsigned(Value, N) || N < 1) {
      Error = "engine option 'steal-chunk' expects a positive integer, "
              "got '" +
              Value + "'";
      return false;
    }
    StealChunk = N;
    return true;
  }
  if (Key == "shards") {
    unsigned N = 0;
    if (!parseUnsigned(Value, N) || !isPowerOfTwo(N) || N > MaxShards) {
      Error = "engine option 'shards' expects a power of two in [1, " +
              std::to_string(MaxShards) + "], got '" + Value + "'";
      return false;
    }
    Shards = N;
    return true;
  }
  if (Key == "cache-dir") {
    if (Value.empty()) {
      Error = "engine option 'cache-dir' expects a directory path";
      return false;
    }
    CacheDir = Value;
    return true;
  }
  bool *Flag = nullptr;
  if (Key == "symmetry")
    Flag = &Symmetry;
  else if (Key == "incremental")
    Flag = &Incremental;
  if (Flag) {
    bool B = false;
    if (!parseBool(Value, B)) {
      Error = "engine option '" + Key +
              "' expects a boolean (true/false/on/off/1/0), got '" + Value +
              "'";
      return false;
    }
    *Flag = B;
    return true;
  }
  Error = "unknown engine option '" + Key +
          "' (valid: threads, symmetry, steal-chunk, shards, incremental, "
          "cache-dir)";
  return false;
}

bool EngineConfig::setList(const std::string &Spec, std::string &Error) {
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    if (Item.empty()) {
      Error = "empty item in engine option list '" + Spec + "'";
      return false;
    }
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size()) {
      Error = "engine option '" + Item + "' is not of the form KEY=VALUE";
      return false;
    }
    if (!set(Item.substr(0, Eq), Item.substr(Eq + 1), Error))
      return false;
    Pos = Comma + 1;
    if (Comma == Spec.size())
      break;
  }
  return true;
}

std::map<std::string, std::string> EngineConfig::toKeyValues() const {
  const EngineConfig Defaults;
  std::map<std::string, std::string> Out;
  // `threads`, `incremental` and `cache-dir` are deliberately absent:
  // verdicts are independent of all of them, so they never travel with a
  // request (see serve/VerdictCache.h).
  if (Symmetry != Defaults.Symmetry)
    Out["symmetry"] = Symmetry ? "true" : "false";
  if (StealChunk != Defaults.StealChunk)
    Out["steal-chunk"] = std::to_string(StealChunk);
  if (Shards != Defaults.Shards)
    Out["shards"] = std::to_string(Shards);
  return Out;
}

bool EngineConfig::applyKeyValues(
    const std::map<std::string, std::string> &KeyValues, std::string &Error) {
  for (const auto &[Key, Value] : KeyValues) {
    if (Key == "threads") {
      Error = "engine option 'threads' is not accepted over the wire: the "
              "thread budget is a server tuning knob (--job-threads)";
      return false;
    }
    if (Key == "incremental" || Key == "cache-dir") {
      Error = "engine option '" + Key +
              "' is not accepted over the wire: obligation caching is a "
              "server tuning knob (verdicts are identical either way)";
      return false;
    }
    if (!set(Key, Value, Error))
      return false;
  }
  return true;
}
