//===- tests/cli_test.cpp - CLI parsing and verdict report tests -------------------===//
///
/// \file
/// Unit tests for the isq-verify command-line surface and the versioned
/// verdict API: std::from_chars argument validation, exit-code semantics,
/// driver-input diagnostics, JSON/text rendering, and the golden
/// schema-versioned JSON reports (set ISQ_UPDATE_GOLDEN=1 to regenerate).
///
//===----------------------------------------------------------------------===//

#include "driver/CliOptions.h"
#include "driver/ReportRender.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace isq;
using namespace isq::driver;

namespace {

CliParse parse(std::initializer_list<const char *> Args) {
  return parseCommandLine(std::vector<std::string>(Args.begin(), Args.end()));
}

void expectError(std::initializer_list<const char *> Args,
                 const std::string &Substring) {
  CliParse P = parse(Args);
  EXPECT_FALSE(P.Ok);
  EXPECT_NE(P.Error.find(Substring), std::string::npos)
      << "error was: " << P.Error;
}

std::string readExampleAsl(const std::string &Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  EXPECT_TRUE(In.good()) << "missing example file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Zeroes every timing field so the JSON compares reproducibly; all other
/// fields are deterministic at one thread.
std::string scrubTimings(const std::string &Json) {
  return json::zeroNumbers(Json, {"*seconds"});
}

/// Compares \p Rendered (scrubbed) against tests/golden/\p Name, or
/// rewrites the golden file when ISQ_UPDATE_GOLDEN is set.
void expectMatchesGolden(const std::string &Rendered,
                         const std::string &Name) {
  std::string Path = std::string(ISQ_SOURCE_DIR) + "/tests/golden/" + Name;
  std::string Scrubbed = scrubTimings(Rendered);
  if (std::getenv("ISQ_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    Out << Scrubbed;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (regenerate with ISQ_UPDATE_GOLDEN=1)";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Scrubbed, Buffer.str()) << "golden mismatch for " << Name;
}

/// Runs the driver over tests/asl_errors/\p Name exactly as isq-verify
/// would: the source path is set so imports resolve relative to the
/// corpus directory and diagnostics carry real file names.
VerifyResult verifyErrorCorpus(const std::string &Name) {
  std::string Dir = std::string(ISQ_SOURCE_DIR) + "/tests/asl_errors/";
  std::ifstream In(Dir + Name);
  EXPECT_TRUE(In.good()) << "missing error-corpus file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  VerifyOptions Options;
  Options.Source = Buffer.str();
  Options.SourcePath = Dir + Name;
  Options.Eliminate = {"Main"}; // never reached: every corpus file fails
  return verifyModule(Options);
}

/// Strips the machine-dependent corpus directory from \p Text so the
/// golden files show bare file names ("type_errors.asl:8:8: ...").
std::string stripCorpusDir(std::string Text) {
  const std::string Dir =
      std::string(ISQ_SOURCE_DIR) + "/tests/asl_errors/";
  size_t Pos;
  while ((Pos = Text.find(Dir)) != std::string::npos)
    Text.erase(Pos, Dir.size());
  return Text;
}

/// Every compile diagnostic must be location-bearing: a 1-based line and
/// column plus a resolved file name.
void expectLocated(const VerifyResult &Result) {
  EXPECT_FALSE(Result.CompileOk);
  EXPECT_EQ(Result.exitCode(), 2);
  ASSERT_FALSE(Result.Diags.empty());
  for (const asl::Diagnostic &D : Result.Diags) {
    EXPECT_GT(D.Line, 0u) << D.Message;
    EXPECT_GT(D.Column, 0u) << D.Message;
    EXPECT_FALSE(D.FileName.empty()) << D.Message;
  }
}

} // namespace

// --- Argument parsing ----------------------------------------------------

TEST(CliTest, ParsesFullCommandLine) {
  CliParse P = parse({"paxos.asl", "--const", "R=2", "--const", "N=3",
                      "--arg-major", "--eliminate", "StartRound,Join",
                      "--abstract", "Join=JoinAbs", "--weight",
                      "StartRound=9", "--rewrite", "Main", "--engine",
                      "threads=4,symmetry=false", "--no-cross-check",
                      "--format", "json"});
  ASSERT_TRUE(P.Ok) << P.Error;
  const CliOptions &O = P.Options;
  EXPECT_EQ(O.InputPath, "paxos.asl");
  EXPECT_EQ(O.Format, OutputFormat::Json);
  EXPECT_FALSE(O.ShowHelp);
  EXPECT_EQ(O.Verify.Consts.at("R"), 2);
  EXPECT_EQ(O.Verify.Consts.at("N"), 3);
  EXPECT_EQ(O.Verify.Order, VerifyOptions::RankOrder::ArgMajor);
  ASSERT_EQ(O.Verify.Eliminate.size(), 2u);
  EXPECT_EQ(O.Verify.Eliminate[0], "StartRound");
  EXPECT_EQ(O.Verify.Eliminate[1], "Join");
  EXPECT_EQ(O.Verify.Abstractions.at("Join"), "JoinAbs");
  EXPECT_EQ(O.Verify.Weights.at("StartRound"), 9u);
  EXPECT_EQ(O.Verify.RewriteAction, "Main");
  EXPECT_EQ(O.Verify.Engine.NumThreads, 4u);
  EXPECT_FALSE(O.Verify.CrossCheck);
  EXPECT_FALSE(O.Verify.Engine.Symmetry);
}

TEST(CliTest, DefaultsAreTextSerialExploration) {
  CliParse P = parse({"x.asl", "--eliminate", "A"});
  ASSERT_TRUE(P.Ok);
  EXPECT_EQ(P.Options.Format, OutputFormat::Text);
  EXPECT_EQ(P.Options.Verify.Engine.NumThreads, 1u);
  EXPECT_TRUE(P.Options.Verify.Engine.Symmetry);
  EXPECT_EQ(P.Options.Verify.Engine.StealChunk, 64u);
  EXPECT_EQ(P.Options.Verify.Engine.Shards, 16u);
  EXPECT_TRUE(P.Options.Verify.CrossCheck);
}

// --- The unified --engine flag -------------------------------------------

TEST(CliTest, EngineFlagParsesEveryKey) {
  // A later --engine setting of a key wins over an earlier one.
  CliParse P = parse({"x.asl", "--eliminate", "A", "--engine",
                      "threads=2,steal-chunk=128", "--engine",
                      "shards=4,symmetry=false", "--engine",
                      "threads=8"});
  ASSERT_TRUE(P.Ok) << P.Error;
  const engine::EngineConfig &E = P.Options.Verify.Engine;
  EXPECT_EQ(E.NumThreads, 8u);
  EXPECT_EQ(E.StealChunk, 128u);
  EXPECT_EQ(E.Shards, 4u);
  EXPECT_FALSE(E.Symmetry);
}

TEST(CliTest, EngineFlagRejectsMalformedSpecs) {
  expectError({"x.asl", "--engine"}, "--engine needs a KEY=VALUE");
  expectError({"x.asl", "--engine", "frobnicate=1"},
              "unknown engine option 'frobnicate'");
  expectError({"x.asl", "--engine", "threads"}, "KEY=VALUE");
  expectError({"x.asl", "--engine", "threads=0"}, "positive integer");
  expectError({"x.asl", "--engine", "steal-chunk=-3"}, "positive integer");
  expectError({"x.asl", "--engine", "shards=3"}, "power of two");
  expectError({"x.asl", "--engine", "shards=32"}, "power of two");
  expectError({"x.asl", "--engine", "symmetry=maybe"}, "expects a boolean");
  expectError({"x.asl", "--engine", "threads=2,,shards=4"},
              "empty item in engine option list");
}

TEST(CliTest, RemovedSpellingsAreUsageErrors) {
  // The old engine aliases, the frontend selector and the frontier
  // switch are gone: each is a usage error (isq-verify exits 2) with a
  // diagnostic naming it, never silently accepted.
  expectError({"x.asl", "--eliminate", "A", "--threads", "2"},
              "unknown option '--threads'");
  expectError({"x.asl", "--eliminate", "A", "--no-symmetry"},
              "unknown option '--no-symmetry'");
  expectError({"x.asl", "--eliminate", "A", "--no-parallel-check"},
              "unknown option '--no-parallel-check'");
  expectError({"x.asl", "--eliminate", "A", "--no-work-stealing"},
              "unknown option '--no-work-stealing'");
  expectError({"x.asl", "--eliminate", "A", "--frontend", "v1"},
              "unknown option '--frontend'");
  // --const binds `param` declarations too; its --param alias is gone.
  expectError({"x.asl", "--eliminate", "A", "--param", "n=3"},
              "unknown option '--param'");
  expectError({"x.asl", "--eliminate", "A", "--engine",
               "work-stealing=false"},
              "unknown engine option 'work-stealing'");
  // The serial checker loops are a test oracle now, not an engine mode,
  // and the arena has one representation, so the compact and tiered
  // store's keys are gone too: each key is unknown, and the valid-key
  // list in the diagnostic no longer offers it.
  for (const char *Spec :
       {"parallel-check=false", "compress=true", "spill=true",
        "spill-dir=/tmp/s", "mem-budget=64M"}) {
    std::string Key(Spec, std::string(Spec).find('='));
    CliParse Gone = parse({"x.asl", "--eliminate", "A", "--engine", Spec});
    EXPECT_FALSE(Gone.Ok) << Spec;
    size_t Valid = Gone.Error.find("(valid: ");
    ASSERT_NE(Valid, std::string::npos) << Gone.Error;
    EXPECT_LT(Gone.Error.find("unknown engine option '" + Key + "'"), Valid)
        << Gone.Error;
    EXPECT_EQ(Gone.Error.find(Key, Valid), std::string::npos) << Gone.Error;
  }
  std::string Usage = usageText();
  EXPECT_NE(Usage.find("--engine K=V"), std::string::npos);
  for (const char *Gone :
       {"--threads", "--no-symmetry", "--no-parallel-check",
        "--no-work-stealing", "--frontend", "--param", "work-stealing",
        "parallel-check", "compress", "spill", "mem-budget"})
    EXPECT_EQ(Usage.find(Gone), std::string::npos) << Gone;
}

TEST(CliTest, ListFlagsRejectEmptyItems) {
  expectError({"x.asl", "--eliminate", "A,,B"}, "empty item in list");
  expectError({"x.asl", "--eliminate", ",A"}, "empty item in list");
  expectError({"x.asl", "--eliminate", "A,"}, "empty item in list");
}

TEST(CliTest, HelpShortCircuits) {
  for (const char *Flag : {"--help", "-h"}) {
    CliParse P = parse({Flag});
    EXPECT_TRUE(P.Ok);
    EXPECT_TRUE(P.Options.ShowHelp);
  }
  std::string Usage = usageText();
  // The documented exit codes are part of the API surface.
  EXPECT_NE(Usage.find("0  proof accepted"), std::string::npos);
  EXPECT_NE(Usage.find("1  proof rejected"), std::string::npos);
  EXPECT_NE(Usage.find("2  usage, compilation, or input error"),
            std::string::npos);
}

TEST(CliTest, RejectsMalformedNumbers) {
  // std::from_chars semantics: no silent zeroes, no trailing junk.
  expectError({"x.asl", "--const", "n=abc"}, "expects an integer");
  expectError({"x.asl", "--const", "n=3x"}, "expects an integer");
  expectError({"x.asl", "--const", "n="}, "NAME=VALUE");
  expectError({"x.asl", "--const", "=3"}, "NAME=VALUE");
  expectError({"x.asl", "--weight", "A=-1"}, "non-negative integer");
  expectError({"x.asl", "--weight", "A=1.5"}, "non-negative integer");
  expectError({"x.asl", "--engine", "threads=two"}, "positive integer");
  expectError({"x.asl", "--engine", "threads=99999999999999999999"},
              "positive integer");
}

TEST(CliTest, RejectsUsageErrors) {
  expectError({"x.asl", "--format", "xml"}, "expects 'text' or 'json'");
  expectError({"x.asl", "--format"}, "--format needs a value");
  expectError({"x.asl", "--eliminate"}, "--eliminate needs a value");
  expectError({"x.asl", "--wibble"}, "unknown option");
  expectError({"x.asl", "y.asl"}, "multiple input files");
  expectError({"--eliminate", "A"}, "no input file given");
  expectError({}, "no input file given");
}

// --- Exit codes and input validation -------------------------------------

TEST(CliTest, ExitCodeSemantics) {
  VerifyResult R;
  EXPECT_EQ(R.exitCode(), 2); // compile failed
  R.CompileOk = true;
  EXPECT_EQ(R.exitCode(), 2); // input invalid
  R.InputOk = true;
  EXPECT_EQ(R.exitCode(), 1); // proof rejected
  R.Accepted = true;
  EXPECT_EQ(R.exitCode(), 0); // proof accepted
}

TEST(CliTest, InputValidationCollectsEveryDiagnostic) {
  VerifyOptions Options;
  Options.Source = "action Main() { skip; }\naction A() { skip; }";
  Options.Eliminate = {"A", "A", "Nope"};
  Options.Abstractions = {{"Main", "Ghost"}};
  Options.Weights = {{"Missing", 2}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.InputOk);
  EXPECT_EQ(Result.exitCode(), 2);
  auto Has = [&](const std::string &S) {
    for (const asl::Diagnostic &D : Result.Diags)
      if (D.Message.find(S) != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("eliminated action 'A' listed more than once"));
  EXPECT_TRUE(Has("eliminated action 'Nope' is not declared"));
  EXPECT_TRUE(Has("abstraction given for 'Main', which is not eliminated"));
  EXPECT_TRUE(Has("abstraction action 'Ghost' is not declared"));
  EXPECT_TRUE(Has("weight given for 'Missing', which is not declared"));
  // Text rendering surfaces them all as error lines.
  EXPECT_NE(Result.Summary.find("error: eliminated action 'A'"),
            std::string::npos);
}

TEST(CliTest, EmptyEliminationIsInputError) {
  VerifyOptions Options;
  Options.Source = "action Main() { skip; }";
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.InputOk);
  EXPECT_NE(Result.Summary.find("no eliminated actions given"),
            std::string::npos);
}

TEST(CliTest, AbstractionArityMismatchDiagnosed) {
  VerifyOptions Options;
  Options.Source =
      "action Main() { async A(1); }\n"
      "action A(i: int) { skip; }\n"
      "action AbsWrong() { skip; }";
  Options.Eliminate = {"A"};
  Options.Abstractions = {{"A", "AbsWrong"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.InputOk);
  EXPECT_NE(Result.Summary.find("different arity"), std::string::npos);
}

// --- Renderers ------------------------------------------------------------

TEST(CliTest, JsonWriterEscapesAndNests) {
  json::JsonWriter W;
  W.beginObject();
  W.key("s").value(std::string("a\"b\\c\n\x01"));
  W.key("xs").beginArray().value(1).value(false).null().endArray();
  W.key("o").beginObject().key("d").value(0.5).endObject();
  W.endObject();
  EXPECT_EQ(W.take(), "{\"s\":\"a\\\"b\\\\c\\n\\u0001\","
                      "\"xs\":[1,false,null],"
                      "\"o\":{\"d\":0.500000}}");
}

TEST(CliTest, TextReportIsPureFunctionOfResult) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  VerifyResult Result = verifyModule(Options);
  ASSERT_TRUE(Result.Accepted) << Result.Summary;
  EXPECT_EQ(Result.Summary, renderText(Result));
  EXPECT_NE(Result.Summary.find("checker:"), std::string::npos);
}

TEST(CliTest, GoldenJsonAccepted) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  VerifyResult Result = verifyModule(Options);
  ASSERT_TRUE(Result.Accepted) << Result.Summary;
  EXPECT_EQ(Result.exitCode(), 0);
  expectMatchesGolden(renderJson(Result), "broadcast_accepted.json");
}

TEST(CliTest, GoldenJsonRejected) {
  // Without the Fig. 1-④ abstraction, Collect is not a left mover: the
  // rejecting report carries the (LM) failure diagnostics.
  VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Broadcast", "Collect"};
  VerifyResult Result = verifyModule(Options);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_EQ(Result.exitCode(), 1);
  expectMatchesGolden(renderJson(Result), "broadcast_rejected.json");
}

TEST(CliTest, GoldenJsonInputError) {
  VerifyOptions Options;
  Options.Source = "action Main() { skip; }";
  Options.Eliminate = {"Main", "Main"};
  VerifyResult Result = verifyModule(Options);
  EXPECT_EQ(Result.exitCode(), 2);
  expectMatchesGolden(renderJson(Result), "input_error.json");
}

// --- Golden diagnostics (tests/asl_errors corpus) -------------------------
//
// Each corpus file is compiled through the full driver; the rendered
// text (file:line:col: severity: message) is pinned as a golden file, so
// message wording, location precision, and multi-error behavior are all
// part of the tested surface. The GoldenDiag* names ride the
// CliTest.Golden* filter used by tools/update_goldens.sh.

TEST(CliTest, GoldenDiagParseBad) {
  VerifyResult Result = verifyErrorCorpus("parse_bad.asl");
  expectLocated(Result);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_parse_bad.txt");
}

TEST(CliTest, GoldenDiagTypeErrors) {
  VerifyResult Result = verifyErrorCorpus("type_errors.asl");
  expectLocated(Result);
  // No first-error bailout: one run reports every mismatch.
  EXPECT_GE(Result.Diags.size(), 3u);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_type_errors.txt");
}

TEST(CliTest, GoldenDiagBindErrors) {
  VerifyResult Result = verifyErrorCorpus("bind_errors.asl");
  expectLocated(Result);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_bind_errors.txt");
}

TEST(CliTest, GoldenDiagUndefinedNames) {
  VerifyResult Result = verifyErrorCorpus("undefined_names.asl");
  expectLocated(Result);
  EXPECT_GE(Result.Diags.size(), 3u);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_undefined_names.txt");
}

TEST(CliTest, GoldenDiagImportMissing) {
  VerifyResult Result = verifyErrorCorpus("import_missing.asl");
  expectLocated(Result);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_import_missing.txt");
}

TEST(CliTest, GoldenDiagImportCycle) {
  VerifyResult Result = verifyErrorCorpus("import_cycle_a.asl");
  expectLocated(Result);
  expectMatchesGolden(stripCorpusDir(renderText(Result)),
                      "diag_import_cycle.txt");
}

TEST(CliTest, GoldenDiagJson) {
  // The JSON shape of located diagnostics is part of schema version 3:
  // severity, file, line/col, end span, and note per entry.
  VerifyResult Result = verifyErrorCorpus("type_errors.asl");
  expectLocated(Result);
  expectMatchesGolden(stripCorpusDir(renderJson(Result)),
                      "diag_type_errors.json");
}
