//===- tests/printer_test.cpp - ASL pretty-printer round-trip tests ----------------===//

#include "lang/Frontend.h"
#include "lang/Parser.h"
#include "reference/Printer.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::asl;

namespace {

Module parseOk(const std::string &Source) {
  std::vector<Diagnostic> Diags;
  auto M = parseModule(Source, Diags);
  EXPECT_TRUE(M.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  return M ? std::move(*M) : Module();
}

/// Parse → print → parse → print must be a fixed point.
void expectRoundTrip(const std::string &Source) {
  Module First = parseOk(Source);
  std::string Printed = printModule(First);
  Module Second = parseOk(Printed);
  EXPECT_EQ(Printed, printModule(Second)) << "printer not idempotent for:\n"
                                          << Source;
}

std::string exprOf(const std::string &ExprText) {
  Module M = parseOk("action A() { assert " + ExprText + "; }");
  return printExpr(*M.Actions[0].Body[0]->Exprs[0]);
}

} // namespace

TEST(PrinterTest, ExpressionsMinimalParens) {
  EXPECT_EQ(exprOf("1 + 2 * 3"), "1 + 2 * 3");
  EXPECT_EQ(exprOf("(1 + 2) * 3"), "(1 + 2) * 3");
  EXPECT_EQ(exprOf("1 - (2 - 3)"), "1 - (2 - 3)");
  EXPECT_EQ(exprOf("1 - 2 - 3"), "1 - 2 - 3");
  EXPECT_EQ(exprOf("a && b || c"), "a && b || c");
  EXPECT_EQ(exprOf("a && (b || c)"), "a && (b || c)");
  EXPECT_EQ(exprOf("!(a || b)"), "!(a || b)");
  EXPECT_EQ(exprOf("-x + 1"), "-x + 1");
  EXPECT_EQ(exprOf("x == y + 1"), "x == y + 1");
}

TEST(PrinterTest, CallsIndexesAndOptions) {
  EXPECT_EQ(exprOf("size(CH[i]) >= n"), "size(CH[i]) >= n");
  EXPECT_EQ(exprOf("m[1][2] == 3"), "m[1][2] == 3");
  EXPECT_EQ(exprOf("is_some(some(5))"), "is_some(some(5))");
  EXPECT_EQ(exprOf("insert(b, max(b)) == b"), "insert(b, max(b)) == b");
}

TEST(PrinterTest, RoundTripBroadcast) {
  expectRoundTrip(R"(
const n: int;
var value: map<int, int> := map i in 1 .. n : i;
var decision: map<int, option<int>> := map i in 1 .. n : none;
var CH: map<int, bag<int>> := map i in 1 .. n : {};
action Main() {
  for i in 1 .. n {
    async Broadcast(i);
    async Collect(i);
  }
}
action Broadcast(i: int) {
  for j in 1 .. n {
    CH[j] := insert(CH[j], value[i]);
  }
}
action Collect(i: int) {
  await size(CH[i]) >= n;
  choose vs in sub_bags(CH[i], n);
  CH[i] := diff(CH[i], vs);
  decision[i] := some(max(vs));
}
)");
}

TEST(PrinterTest, RoundTripAllStatementForms) {
  expectRoundTrip(R"(
var x: map<int, int> := {};
var q: seq<int> := [];
action A(i: int, b: bool) {
  skip;
  x[i] := i + 1;
  if b { skip; } else { assert false; }
  if x[i] == 2 { x[i] := 0; }
  for j in 1 .. i { async A(j, true); }
  await x[i] > 0;
  choose y in keys(x);
  x[y] := 0;
}
)");
}

TEST(PrinterTest, SeqAndCollectionLiteralsKeepSpelling) {
  Module M = parseOk("var q: seq<int> := [];\nvar s: set<int> := {};\n");
  std::string Printed = printModule(M);
  EXPECT_NE(Printed.find("seq<int> := []"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("set<int> := {}"), std::string::npos) << Printed;
}

TEST(PrinterTest, PrintedModuleCompilesIdentically) {
  // Semantic round trip: compiling the printed text yields a program with
  // the same initial store and the same Main transitions.
  const char *Source = R"(
const n: int;
var total: int := 0;
var b: bag<int> := insert({}, 7);
action Main() {
  for i in 1 .. n { async Add(i); }
}
action Add(i: int) {
  total := total + i;
  if contains(b, 7) { b := erase(b, 7); }
}
)";
  std::vector<Diagnostic> Diags;
  auto C1 = frontend::compileSource(Source, "", {{"n", 3}},
                                    frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C1.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  Module Parsed = parseOk(Source);
  auto C2 = frontend::compileSource(printModule(Parsed), "", {{"n", 3}},
                                    frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C2.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  EXPECT_EQ(C1->InitialStore, C2->InitialStore);
  auto T1 = C1->P.action("Main").transitions(C1->InitialStore, {});
  auto T2 = C2->P.action("Main").transitions(C2->InitialStore, {});
  ASSERT_EQ(T1.size(), T2.size());
  for (size_t I = 0; I < T1.size(); ++I)
    EXPECT_TRUE(T1[I] == T2[I]);
}

TEST(PrinterTest, MapComprehension) {
  EXPECT_EQ(exprOf("size(map i in 1 .. 3 : i * i) == 3"),
            "size(map i in 1 .. 3 : i * i) == 3");
}
