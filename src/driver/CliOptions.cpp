//===- driver/CliOptions.cpp - isq-verify command line ------------------------===//

#include "driver/CliOptions.h"

#include <charconv>
#include <sstream>

using namespace isq;
using namespace isq::driver;

namespace {

/// Parses all of \p S as a decimal integer of type T. Rejects empty
/// strings, trailing junk ("3x"), and out-of-range values — std::atol's
/// silent-zero failure modes.
template <typename T> bool parseNumber(const std::string &S, T &Out) {
  const char *First = S.data();
  const char *Last = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last && !S.empty();
}

/// Splits a comma-separated list. An empty item between commas (or a
/// leading/trailing comma) is a usage error, not silently dropped: \p
/// Error names the malformed list and the function returns false.
bool splitList(const std::string &S, std::vector<std::string> &Out,
               std::string &Error) {
  Out.clear();
  size_t Pos = 0;
  while (true) {
    size_t Comma = S.find(',', Pos);
    std::string Item = S.substr(Pos, Comma == std::string::npos
                                         ? std::string::npos
                                         : Comma - Pos);
    if (Item.empty()) {
      Error = "empty item in list '" + S + "'";
      return false;
    }
    Out.push_back(Item);
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

bool splitKeyValue(const std::string &S, std::string &Key,
                   std::string &Value) {
  size_t Eq = S.find('=');
  if (Eq == std::string::npos || Eq == 0 || Eq + 1 == S.size())
    return false;
  Key = S.substr(0, Eq);
  Value = S.substr(Eq + 1);
  return true;
}

} // namespace

const char *driver::usageText() {
  return "usage: isq-verify FILE.asl --eliminate A,B,C [options]\n"
         "\n"
         "Compiles an ASL protocol, derives the Inductive\n"
         "Sequentialization artifacts from the declared elimination\n"
         "order, and discharges every condition of the IS rule.\n"
         "\n"
         "options:\n"
         "  --const NAME=VALUE    bind a module constant or parameter\n"
         "                        (repeatable; parameters declared\n"
         "                        `param n: int := 2;` may also be left\n"
         "                        to their default)\n"
         "  --eliminate A,B,C     eliminated actions in schedule order\n"
         "  --rewrite NAME        the action to rewrite (default: Main)\n"
         "  --abstract ACT=ABS    use module action ABS as α(ACT)\n"
         "  --weight ACT=K        cooperation weight (default 1)\n"
         "  --arg-major           rank pending asyncs by first argument\n"
         "                        before elimination position\n"
         "  --engine K=V[,K=V...] exploration/checking engine knobs; every\n"
         "                        knob preserves verdicts, counts and\n"
         "                        diagnostics bit-for-bit. Keys:\n"
         "                          threads=N            worker threads (default 1)\n"
         "                          steal-chunk=N        frontier chunk size\n"
         "                                               (default 64)\n"
         "                          shards=N             state-store shards, power\n"
         "                                               of two <= 16 (default 16)\n"
         "                          symmetry=BOOL        orbit-canonical symmetry\n"
         "                                               reduction (default true)\n"
         "                          incremental=BOOL     content-addressed obligation\n"
         "                                               verdict cache (default true;\n"
         "                                               false re-checks everything —\n"
         "                                               the differential oracle)\n"
         "                          cache-dir=PATH       persist obligation verdicts\n"
         "                                               in PATH across runs (warm\n"
         "                                               re-verification); corrupt or\n"
         "                                               stale caches degrade to cold\n"
         "  --no-cross-check      skip exploring P' / empirical refinement\n"
         "  --format text|json    verdict report format (default: text);\n"
         "                        json emits the schema-versioned report\n"
         "  --version             print build provenance (git sha, build\n"
         "                        type, fingerprint format) and exit\n"
         "  --help, -h            show this help\n"
         "\n"
         "exit codes:\n"
         "  0  proof accepted\n"
         "  1  proof rejected (some IS condition failed)\n"
         "  2  usage, compilation, or input error, or resource exhausted\n"
         "     (out of memory)\n";
}

CliParse driver::parseCommandLine(const std::vector<std::string> &Args) {
  CliParse Parse;
  CliOptions &Cli = Parse.Options;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto NeedValue = [&](const std::string &&ErrIfMissing,
                         std::string &Out) -> bool {
      if (I + 1 >= Args.size()) {
        Parse.Error = ErrIfMissing;
        return false;
      }
      Out = Args[++I];
      return true;
    };
    if (Arg == "--help" || Arg == "-h") {
      Cli.ShowHelp = true;
      Parse.Ok = true;
      return Parse;
    }
    if (Arg == "--version") {
      Cli.ShowVersion = true;
      Parse.Ok = true;
      return Parse;
    }
    if (Arg == "--no-cross-check") {
      Cli.Verify.CrossCheck = false;
      continue;
    }
    if (Arg == "--engine") {
      std::string V;
      if (!NeedValue("--engine needs a KEY=VALUE[,KEY=VALUE...] argument",
                     V))
        return Parse;
      std::string Error;
      if (!Cli.Verify.Engine.setList(V, Error)) {
        Parse.Error = "--engine: " + Error;
        return Parse;
      }
      continue;
    }
    if (Arg == "--arg-major") {
      Cli.Verify.Order = VerifyOptions::RankOrder::ArgMajor;
      continue;
    }
    if (Arg == "--format") {
      std::string V;
      if (!NeedValue("--format needs a value (text or json)", V))
        return Parse;
      if (V == "text")
        Cli.Format = OutputFormat::Text;
      else if (V == "json")
        Cli.Format = OutputFormat::Json;
      else {
        Parse.Error = "--format expects 'text' or 'json', got '" + V + "'";
        return Parse;
      }
      continue;
    }
    if (Arg == "--eliminate") {
      std::string V;
      if (!NeedValue("--eliminate needs a value", V))
        return Parse;
      std::string Error;
      if (!splitList(V, Cli.Verify.Eliminate, Error)) {
        Parse.Error = "--eliminate: " + Error;
        return Parse;
      }
      continue;
    }
    if (Arg == "--rewrite") {
      std::string V;
      if (!NeedValue("--rewrite needs a value", V))
        return Parse;
      Cli.Verify.RewriteAction = V;
      continue;
    }
    if (Arg == "--const" || Arg == "--abstract" || Arg == "--weight") {
      std::string V;
      if (!NeedValue(Arg + " needs a NAME=VALUE argument", V))
        return Parse;
      std::string Key, Value;
      if (!splitKeyValue(V, Key, Value)) {
        Parse.Error = Arg + " expects NAME=VALUE, got '" + V + "'";
        return Parse;
      }
      if (Arg == "--const") {
        int64_t N = 0;
        if (!parseNumber(Value, N)) {
          Parse.Error = "--const " + Key + " expects an integer, got '" +
                        Value + "'";
          return Parse;
        }
        Cli.Verify.Consts[Key] = N;
      } else if (Arg == "--abstract") {
        Cli.Verify.Abstractions[Key] = Value;
      } else {
        uint64_t N = 0;
        if (!parseNumber(Value, N)) {
          Parse.Error = "--weight " + Key +
                        " expects a non-negative integer, got '" + Value +
                        "'";
          return Parse;
        }
        Cli.Verify.Weights[Key] = N;
      }
      continue;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      Parse.Error = "unknown option '" + Arg + "'";
      return Parse;
    }
    if (!Cli.InputPath.empty()) {
      Parse.Error = "multiple input files ('" + Cli.InputPath + "' and '" +
                    Arg + "')";
      return Parse;
    }
    Cli.InputPath = Arg;
  }

  if (Cli.InputPath.empty()) {
    Parse.Error = "no input file given";
    return Parse;
  }
  Parse.Ok = true;
  return Parse;
}
