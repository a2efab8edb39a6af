//===- tools/isq-verify.cpp - Command-line IS verifier -------------------------------===//
///
/// \file
/// The push-button command-line verifier: compile an ASL protocol, derive
/// the IS artifacts from a declared sequentialization order, discharge
/// the IS conditions (on the obligation scheduler by default), and
/// report the per-condition verdict as text or schema-versioned JSON.
///
/// This file is glue only: argument parsing lives in driver/CliOptions.h
/// and report rendering in driver/ReportRender.h, both unit-tested in
/// the library. See `isq-verify --help` for the option reference and the
/// documented exit codes (0 accepted, 1 rejected, 2 usage/compile/input
/// error, or running out of memory).
///
//===----------------------------------------------------------------------===//

#include "driver/CliOptions.h"
#include "driver/ReportRender.h"
#include "support/Version.h"

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>

using namespace isq;
using namespace isq::driver;

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  CliParse Parse = parseCommandLine(Args);
  if (!Parse.Ok) {
    std::fprintf(stderr, "error: %s\n%s", Parse.Error.c_str(), usageText());
    return 2;
  }
  if (Parse.Options.ShowHelp) {
    std::fprintf(stdout, "%s", usageText());
    return 0;
  }
  if (Parse.Options.ShowVersion) {
    std::fprintf(stdout, "%s\n", versionLine().c_str());
    return 0;
  }
  std::ifstream In(Parse.Options.InputPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 Parse.Options.InputPath.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Parse.Options.Verify.Source = Buffer.str();
  // Imports resolve relative to the input file; diagnostics name it.
  Parse.Options.Verify.SourcePath = Parse.Options.InputPath;

  VerifyResult Result;
  try {
    Result = verifyModule(Parse.Options.Verify);
  } catch (const std::bad_alloc &) {
    // The unwinding freed the run's arenas and memos, so reporting is
    // safe; running out of memory is a resource error, not a crash.
    std::fprintf(stderr,
                 "error: resource exhausted (out of memory) verifying %s\n",
                 Parse.Options.InputPath.c_str());
    return 2;
  }
  std::string Report = Parse.Options.Format == OutputFormat::Json
                           ? renderJson(Result)
                           : renderText(Result);
  std::printf("%s", Report.c_str());
  return Result.exitCode();
}
