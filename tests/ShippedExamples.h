//===- tests/ShippedExamples.h - The shipped examples -----------*- C++ -*-===//
///
/// \file
/// Loads the shipped ASL examples the way `isq-verify` runs them: the
/// module compiled through the frontend, the IS application derived from
/// the command-line flags, and the IS universe (P ∪ P[M ↦ I]) built.
/// Each example documents its own invocation in a `// Verify with:`
/// header; documentedFlags() reads it, so the tests follow the command
/// users see.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_TESTS_SHIPPEDEXAMPLES_H
#define ISQ_TESTS_SHIPPEDEXAMPLES_H

#include "driver/CliOptions.h"
#include "driver/VerifyDriver.h"
#include "lang/Frontend.h"
#include "reference/ISCheck.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace isq {
namespace testing {

inline std::string examplePath(const std::string &File) {
  return std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + File;
}

/// The shipped examples, each verified by its documented invocation.
inline std::vector<std::string> shippedExampleFiles() {
  return {"broadcast.asl",        "chang_roberts.asl", "paxos.asl",
          "ping_pong.asl",        "producer_consumer.asl",
          "two_phase_commit.asl"};
}

/// The flags of \p File's documented `isq-verify` invocation (the
/// multi-line "Verify with:" header), without the tool and file words.
inline std::vector<std::string> documentedFlags(const std::string &File) {
  std::ifstream In(examplePath(File));
  EXPECT_TRUE(In.good()) << "missing example file " << File;
  std::vector<std::string> Words;
  std::string Line;
  bool On = false;
  while (std::getline(In, Line)) {
    if (!On && Line.find("isq-verify") == std::string::npos)
      continue;
    On = true;
    bool Continues = !Line.empty() && Line.back() == '\\';
    std::istringstream Ws(Line);
    std::string W;
    while (Ws >> W)
      if (W != "//" && W != "\\")
        Words.push_back(W);
    if (!Continues)
      break;
  }
  // Drop "isq-verify" and "<file>.asl".
  if (Words.size() >= 2)
    Words.erase(Words.begin(), Words.begin() + 2);
  return Words;
}

/// A shipped example ready for checking.
struct ShippedExample {
  driver::VerifyOptions Options;
  asl::CompiledModule Compiled;
  ISApplication App;
  ISUniverse Universe;
};

/// Compiles examples/asl/\p File under \p Flags (isq-verify's command
/// line after the file) into \p Ex's options and module; false when the
/// command line or the frontend rejects it.
inline bool compileShippedExample(ShippedExample &Ex, const std::string &File,
                                  const std::vector<std::string> &Flags) {
  std::vector<std::string> Args{examplePath(File)};
  Args.insert(Args.end(), Flags.begin(), Flags.end());
  driver::CliParse Parse = driver::parseCommandLine(Args);
  EXPECT_TRUE(Parse.Ok) << Parse.Error;
  Ex.Options = Parse.Options.Verify;
  std::ifstream In(examplePath(File));
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Ex.Options.Source = Buffer.str();
  Ex.Options.SourcePath = examplePath(File);
  std::vector<asl::Diagnostic> Diags;
  std::optional<asl::CompiledModule> Compiled = asl::frontend::compileSource(
      Ex.Options.Source, Ex.Options.SourcePath, Ex.Options.Consts,
      Ex.Options.Frontend, Diags);
  EXPECT_TRUE(Compiled.has_value())
      << File << ": " << (Diags.empty() ? "" : Diags[0].str());
  if (!Parse.Ok || !Compiled)
    return false;
  Ex.Compiled = std::move(*Compiled);
  return true;
}

/// Compiles examples/asl/\p File under \p Flags and builds its IS
/// universe under the engine configuration the flags select, as
/// isq-verify does.
inline ShippedExample
loadShippedExample(const std::string &File,
                   const std::vector<std::string> &Flags) {
  ShippedExample Ex;
  if (!compileShippedExample(Ex, File, Flags))
    return Ex;
  Ex.App = driver::deriveApplication(Ex.Options, Ex.Compiled.P);
  engine::EngineOptions Explore;
  Explore.Config = Ex.Options.Engine;
  Ex.Universe =
      ISUniverse::build(Ex.App, {{Ex.Compiled.InitialStore, {}}}, Explore);
  return Ex;
}

} // namespace testing
} // namespace isq

#endif // ISQ_TESTS_SHIPPEDEXAMPLES_H
