//===- driver/CliOptions.h - isq-verify command line -------------*- C++ -*-===//
///
/// \file
/// The isq-verify command-line surface, parsed into VerifyOptions plus
/// tool-level settings. Lives in the library (not the tool) so the parser
/// is unit-testable: numeric arguments are validated with std::from_chars
/// and every malformed input produces a targeted error string instead of
/// silently parsing as zero.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_DRIVER_CLIOPTIONS_H
#define ISQ_DRIVER_CLIOPTIONS_H

#include "driver/VerifyDriver.h"

#include <string>
#include <vector>

namespace isq {
namespace driver {

/// Output format of the verdict report.
enum class OutputFormat { Text, Json };

/// The parsed command line.
struct CliOptions {
  VerifyOptions Verify;
  std::string InputPath;
  OutputFormat Format = OutputFormat::Text;
  bool ShowHelp = false;
  /// --version: print the build-provenance banner (support/Version.h) and
  /// exit 0. Parsed like --help: wins over everything else on the line.
  bool ShowVersion = false;
};

/// Result of parseCommandLine. When !Ok, Error holds a one-line message
/// (the tool prints it and exits 2 — a usage error).
struct CliParse {
  bool Ok = false;
  CliOptions Options;
  std::string Error;
};

/// Parses the argument vector (argv[1..argc-1], no program name).
CliParse parseCommandLine(const std::vector<std::string> &Args);

/// The --help text, including the option reference and the documented
/// exit codes (0 proof accepted, 1 proof rejected, 2 usage, compile or
/// input error).
const char *usageText();

} // namespace driver
} // namespace isq

#endif // ISQ_DRIVER_CLIOPTIONS_H
