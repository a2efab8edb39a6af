//===- tests/fingerprint_test.cpp - Fingerprint stability ---------------------===//
///
/// \file
/// Stability tests for the semantic fingerprints behind the obligation
/// verdict cache, plus the cache's serialization and disk robustness:
///
///  - golden action fingerprints for the example corpus (set
///    ISQ_UPDATE_GOLDEN=1 to regenerate after an intentional
///    fingerprint-format change — any unintentional drift invalidates
///    every cache in the field);
///  - α-irrelevance: comments, whitespace, binder names, and
///    optimizer-removed statements don't move fingerprints;
///  - dependency precision: editing one action's gate changes exactly
///    that action's fingerprint;
///  - aggregate encode/decode round-trips, and corrupted or
///    truncated cache images degrade to cold lookups, never to wrong
///    decodes — end to end, a stale-format or truncated image verifies
///    exactly like a cold run.
///
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"
#include "driver/VerifyDriver.h"
#include "engine/ObligationCache.h"
#include "lang/Frontend.h"
#include "semantics/Action.h"
#include "semantics/Fingerprint.h"
#include "semantics/Program.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

using namespace isq;
using asl::frontend::FrontendVersion;

namespace {

std::string readExample(const std::string &Name) {
  std::string Path = std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

Program compile(const std::string &Source, const std::string &Path,
                const std::map<std::string, int64_t> &Consts = {}) {
  std::vector<asl::Diagnostic> Diags;
  auto Compiled = asl::frontend::compileSource(Source, Path, Consts,
                                               FrontendVersion::V2, Diags);
  EXPECT_TRUE(Compiled.has_value()) << Path;
  return Compiled->P;
}

std::string hex(const Fingerprint &F) {
  char Buf[36];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(F.Hi),
                static_cast<unsigned long long>(F.Lo));
  return Buf;
}

/// The example corpus with the constants its "Verify with:" headers bind.
const std::vector<std::pair<const char *, std::map<std::string, int64_t>>> &
exampleCorpus() {
  static const std::vector<std::pair<const char *, std::map<std::string, int64_t>>>
      Corpus = {
          {"broadcast.asl", {{"n", 3}}},
          {"ping_pong.asl", {{"T", 3}}},
          {"producer_consumer.asl", {}},
          {"two_phase_commit.asl", {}},
          {"paxos.asl", {}},
      };
  return Corpus;
}

/// A tiny self-contained module for the edit-sensitivity tests: two
/// actions with disjoint behaviors, so an edit to one must leave the
/// other's fingerprint untouched.
const char *TwoActionModule = R"(
var x: int := 0;
var y: int := 0;

action Main() {
  async Inc();
  async Dec();
}

action Inc() {
  if x < 5 {
    x := x + 1;
  }
}

action Dec() {
  if y < 7 {
    y := y - 1;
  }
}
)";

} // namespace

// --- Golden corpus fingerprints -----------------------------------------

TEST(FingerprintTest, GoldenCorpusFingerprints) {
  std::string Rendered;
  for (const auto &[File, Consts] : exampleCorpus()) {
    Program P = compile(readExample(File), std::string(ISQ_SOURCE_DIR) +
                                               "/examples/asl/" + File,
                        Consts);
    for (Symbol A : P.actionNames())
      Rendered += std::string(File) + " " + A.str() + " " +
                  hex(P.action(A).fp()) + "\n";
  }
  std::string Path =
      std::string(ISQ_SOURCE_DIR) + "/tests/golden/fingerprints.txt";
  if (std::getenv("ISQ_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    Out << Rendered;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "no golden fingerprints at " << Path
                         << " (generate with ISQ_UPDATE_GOLDEN=1)";
  std::stringstream Golden;
  Golden << In.rdbuf();
  EXPECT_EQ(Golden.str(), Rendered)
      << "action fingerprints drifted: an intentional format change must "
         "bump FpFormatVersion and regenerate with ISQ_UPDATE_GOLDEN=1; "
         "anything else silently invalidates (or worse, silently "
         "revalidates) every on-disk cache";
}

TEST(FingerprintTest, CorpusFingerprintsNonZeroAndDistinctWithinModule) {
  for (const auto &[File, Consts] : exampleCorpus()) {
    Program P = compile(readExample(File), std::string(ISQ_SOURCE_DIR) +
                                               "/examples/asl/" + File,
                        Consts);
    std::map<std::string, std::string> ByFp;
    for (Symbol A : P.actionNames()) {
      const Fingerprint &F = P.action(A).fp();
      EXPECT_FALSE(F.isZero()) << File << "/" << A.str();
      auto [It, Fresh] = ByFp.emplace(hex(F), A.str());
      EXPECT_TRUE(Fresh) << File << ": " << A.str() << " collides with "
                         << It->second;
    }
  }
}

// --- α-irrelevance ------------------------------------------------------

TEST(FingerprintTest, CommentsAndWhitespaceDoNotMoveFingerprints) {
  std::string Source = readExample("broadcast.asl");
  Program Base = compile(Source, "broadcast.asl", {{"n", 3}});
  std::string Mangled = "// a new leading comment\n" + Source;
  size_t Brace = Mangled.find('{');
  ASSERT_NE(Brace, std::string::npos);
  Mangled.insert(Brace + 1, "\n\n  // an interior comment\n\n");
  Program Edited = compile(Mangled, "broadcast.asl", {{"n", 3}});
  for (Symbol A : Base.actionNames())
    EXPECT_EQ(hex(Base.action(A).fp()), hex(Edited.action(A).fp()))
        << A.str();
}

TEST(FingerprintTest, BinderRenameDoesNotMoveFingerprints) {
  const char *WithI = R"(
var total: int := 0;
action Main() {
  for i in 1 .. 3 {
    total := total + i;
  }
}
)";
  const char *WithK = R"(
var total: int := 0;
action Main() {
  for k in 1 .. 3 {
    total := total + k;
  }
}
)";
  Program A = compile(WithI, "binder_a.asl");
  Program B = compile(WithK, "binder_b.asl");
  EXPECT_EQ(hex(A.action("Main").fp()), hex(B.action("Main").fp()));
}

TEST(FingerprintTest, OptimizedAwayStatementDoesNotMoveFingerprint) {
  // Fingerprints are taken on *optimized* HIR: a trivially true assert is
  // folded away, so sources the optimizer proves equivalent fingerprint
  // identically.
  Program Base = compile(TwoActionModule, "two_action.asl");
  std::string WithAssert = TwoActionModule;
  size_t Pos = WithAssert.find("x := x + 1;");
  ASSERT_NE(Pos, std::string::npos);
  WithAssert.insert(Pos, "assert 0 == 0;\n    ");
  Program Edited = compile(WithAssert, "two_action.asl");
  EXPECT_EQ(hex(Base.action("Inc").fp()), hex(Edited.action("Inc").fp()));
}

// --- Dependency precision -----------------------------------------------

TEST(FingerprintTest, GateEditMovesExactlyTheEditedAction) {
  Program Base = compile(TwoActionModule, "two_action.asl");
  std::string Edited = TwoActionModule;
  size_t Pos = Edited.find("x < 5");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 5, "x < 6");
  Program P2 = compile(Edited, "two_action.asl");
  EXPECT_NE(hex(Base.action("Inc").fp()), hex(P2.action("Inc").fp()))
      << "a gate edit must move the edited action's fingerprint";
  EXPECT_EQ(hex(Base.action("Dec").fp()), hex(P2.action("Dec").fp()))
      << "an edit to Inc must not move Dec";
  EXPECT_EQ(hex(Base.action("Main").fp()), hex(P2.action("Main").fp()))
      << "an edit to Inc must not move Main";
}

// --- Aggregate serialization --------------------------------------------

namespace {

std::vector<engine::ObAggregate> sampleUnits() {
  using engine::ObAggregate;
  std::vector<ObAggregate> Out(3);
  Out[0].Units = 4;
  Out[0].Obligations = 3;
  Out[1].Units = 11;
  Out[1].Obligations = 19;
  Out[1].Failures = 5;
  Out[1].Issues = {{0, 0, "first issue"},
                   {4097, 2, "second issue with ünïcode"}};
  // Channel 2 stays empty: a job that never selected it.
  return Out;
}

void expectSameUnits(const std::vector<engine::ObAggregate> &A,
                     const std::vector<engine::ObAggregate> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Units, B[I].Units) << I;
    EXPECT_EQ(A[I].Obligations, B[I].Obligations) << I;
    EXPECT_EQ(A[I].Failures, B[I].Failures) << I;
    ASSERT_EQ(A[I].Issues.size(), B[I].Issues.size()) << I;
    for (size_t J = 0; J < A[I].Issues.size(); ++J) {
      EXPECT_EQ(A[I].Issues[J].Local, B[I].Issues[J].Local) << I;
      EXPECT_EQ(A[I].Issues[J].Seq, B[I].Issues[J].Seq) << I;
      EXPECT_EQ(A[I].Issues[J].Message, B[I].Issues[J].Message) << I;
    }
  }
}

} // namespace

TEST(ObligationCacheTest, AggregateRoundTrips) {
  std::vector<engine::ObAggregate> Units = sampleUnits();
  std::string Blob = engine::encodeObAggregates(Units);
  std::vector<engine::ObAggregate> Decoded;
  ASSERT_TRUE(engine::decodeObAggregates(Blob.data(), Blob.size(), Decoded));
  expectSameUnits(Units, Decoded);
}

TEST(ObligationCacheTest, TruncatedBlobIsRejectedAtEveryLength) {
  std::vector<engine::ObAggregate> Units = sampleUnits();
  std::string Blob = engine::encodeObAggregates(Units);
  std::vector<engine::ObAggregate> Decoded;
  for (size_t Len = 0; Len < Blob.size(); ++Len)
    EXPECT_FALSE(engine::decodeObAggregates(Blob.data(), Len, Decoded))
        << "truncation to " << Len << " bytes must not decode";
}

// --- Disk tier robustness -----------------------------------------------

namespace {

/// A scratch cache directory, removed on destruction.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    char Template[] = "/tmp/isq_obcache_test_XXXXXX";
    Path = ::mkdtemp(Template);
  }
  ~TempCacheDir() {
    for (const char *F : {"/obcache.bin", "/obcache.jrnl"})
      ::unlink((Path + F).c_str());
    ::rmdir(Path.c_str());
  }
  std::string base() const { return Path + "/obcache.bin"; }
  std::string journal() const { return Path + "/obcache.jrnl"; }
};

engine::ObligationCache::Options dirOptions(const TempCacheDir &Dir) {
  engine::ObligationCache::Options Opts;
  Opts.Dir = Dir.Path;
  return Opts;
}

Fingerprint key(uint64_t N) { return Fingerprint{N, ~N}; }

void corruptAt(const std::string &Path, long Offset, size_t Bytes = 16) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.good()) << Path;
  F.seekp(Offset);
  for (size_t I = 0; I < Bytes; ++I)
    F.put(static_cast<char>(0xa5 ^ I));
}

long fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? St.st_size : -1;
}

} // namespace

TEST(ObligationCacheTest, DiskRoundTripServesEveryEntry) {
  TempCacheDir Dir;
  std::vector<engine::ObAggregate> Units = sampleUnits();
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    for (uint64_t I = 1; I <= 10; ++I)
      Cache.insert(key(I), Units);
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  engine::ObligationCache Reloaded(dirOptions(Dir));
  EXPECT_EQ(Reloaded.counters().DiskEntries, 10u);
  EXPECT_FALSE(Reloaded.counters().DiskRejected);
  for (uint64_t I = 1; I <= 10; ++I) {
    std::vector<engine::ObAggregate> Out;
    bool FromDisk = false;
    ASSERT_TRUE(Reloaded.lookup(key(I), Out, FromDisk)) << I;
    EXPECT_TRUE(FromDisk) << I;
    expectSameUnits(Units, Out);
  }
  EXPECT_EQ(Reloaded.counters().DiskHits, 10u);
}

TEST(ObligationCacheTest, AllHitRunSkipsWriteback) {
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    Cache.insert(key(1), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  struct stat Before;
  ASSERT_EQ(::stat(Dir.base().c_str(), &Before), 0);
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    std::vector<engine::ObAggregate> Out;
    bool FromDisk = false;
    ASSERT_TRUE(Cache.lookup(key(1), Out, FromDisk));
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  struct stat After;
  ASSERT_EQ(::stat(Dir.base().c_str(), &After), 0);
  EXPECT_EQ(Before.st_mtime, After.st_mtime)
      << "an all-hit run must not rewrite the image";
  EXPECT_EQ(fileSize(Dir.journal()), -1)
      << "an all-hit run must not create a journal";
}

TEST(ObligationCacheTest, SmallInsertAppendsJournalInsteadOfRewriting) {
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    for (uint64_t I = 1; I <= 200; ++I)
      Cache.insert(key(I), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  long BaseSize = fileSize(Dir.base());
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    Cache.insert(key(1000), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  EXPECT_EQ(fileSize(Dir.base()), BaseSize)
      << "a small insert must append, not rewrite the base";
  ASSERT_GT(fileSize(Dir.journal()), 0);
  engine::ObligationCache Reloaded(dirOptions(Dir));
  EXPECT_EQ(Reloaded.counters().DiskEntries, 201u);
  std::vector<engine::ObAggregate> Out;
  bool FromDisk = false;
  EXPECT_TRUE(Reloaded.lookup(key(1000), Out, FromDisk));
  EXPECT_TRUE(Reloaded.lookup(key(7), Out, FromDisk));
}

TEST(ObligationCacheTest, CorruptedHeaderRejectsImageAndSelfHeals) {
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    Cache.insert(key(1), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  corruptAt(Dir.base(), 0); // magic
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    EXPECT_TRUE(Cache.counters().DiskRejected);
    EXPECT_EQ(Cache.counters().DiskEntries, 0u);
    std::vector<engine::ObAggregate> Out;
    bool FromDisk = false;
    EXPECT_FALSE(Cache.lookup(key(1), Out, FromDisk));
    // The run proceeds cold and save() rewrites a clean image.
    Cache.insert(key(1), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  engine::ObligationCache Healed(dirOptions(Dir));
  EXPECT_FALSE(Healed.counters().DiskRejected);
  EXPECT_EQ(Healed.counters().DiskEntries, 1u);
}

TEST(ObligationCacheTest, TruncatedImageIsRejected) {
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    for (uint64_t I = 1; I <= 5; ++I)
      Cache.insert(key(I), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  ASSERT_EQ(::truncate(Dir.base().c_str(), 60), 0);
  engine::ObligationCache Cache(dirOptions(Dir));
  EXPECT_TRUE(Cache.counters().DiskRejected);
  std::vector<engine::ObAggregate> Out;
  bool FromDisk = false;
  EXPECT_FALSE(Cache.lookup(key(1), Out, FromDisk));
}

TEST(ObligationCacheTest, InteriorCorruptionFailsChecksumNotVerdict) {
  // Corrupt payload bytes while sparing the record framing: the image
  // still loads, but the damaged entry must fail its checksum and come
  // back a miss — never decode into plausible garbage.
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    for (uint64_t I = 1; I <= 20; ++I)
      Cache.insert(key(I), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error;
  }
  long Size = fileSize(Dir.base());
  corruptAt(Dir.base(), Size / 2, 4); // inside some record's blob
  engine::ObligationCache Cache(dirOptions(Dir));
  EXPECT_FALSE(Cache.counters().DiskRejected);
  EXPECT_EQ(Cache.counters().DiskEntries, 20u);
  size_t Hits = 0, Misses = 0;
  for (uint64_t I = 1; I <= 20; ++I) {
    std::vector<engine::ObAggregate> Out;
    bool FromDisk = false;
    if (Cache.lookup(key(I), Out, FromDisk)) {
      expectSameUnits(sampleUnits(), Out); // a hit is never garbage
      ++Hits;
    } else {
      ++Misses;
    }
  }
  EXPECT_GE(Misses, 1u) << "the damaged record must miss";
  EXPECT_GE(Hits, 15u) << "undamaged records must still serve";
}

TEST(ObligationCacheTest, TornJournalTailCostsOnlyTheTail) {
  TempCacheDir Dir;
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    Cache.insert(key(1), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error; // base
  }
  {
    engine::ObligationCache Cache(dirOptions(Dir));
    for (uint64_t I = 2; I <= 4; ++I)
      Cache.insert(key(I), sampleUnits());
    std::string Error;
    ASSERT_TRUE(Cache.save(Error)) << Error; // journal append
  }
  // Tear the journal mid-way: truncation is a crash mid-append.
  long JSize = fileSize(Dir.journal());
  ASSERT_GT(JSize, 0);
  ASSERT_EQ(::truncate(Dir.journal().c_str(), JSize - 10), 0);
  engine::ObligationCache Cache(dirOptions(Dir));
  EXPECT_FALSE(Cache.counters().DiskRejected);
  std::vector<engine::ObAggregate> Out;
  bool FromDisk = false;
  EXPECT_TRUE(Cache.lookup(key(1), Out, FromDisk)) << "base entry survives";
  // Journal append order is unordered across keys, so the clipped record
  // can be any one of the three; exactly the torn tail must miss.
  size_t JournalHits = 0;
  for (uint64_t I = 2; I <= 4; ++I)
    if (Cache.lookup(key(I), Out, FromDisk)) {
      expectSameUnits(sampleUnits(), Out);
      ++JournalHits;
    }
  EXPECT_EQ(JournalHits, 2u)
      << "whole records before the tear survive; the torn tail misses";
}

TEST(ObligationCacheTest, StaleOrTruncatedImageVerifiesLikeCold) {
  // A rejecting instance (more (CO) failures than retained diagnostics),
  // so replayed diagnostics are part of what must not change. Unreduced:
  // on the symmetry quotient (CO) fails at only 6 representatives.
  TempCacheDir Dir;
  driver::VerifyOptions Opts;
  {
    std::ifstream In(isq::testing::examplePath("two_phase_commit.asl"));
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Opts.Source = Buffer.str();
  }
  Opts.Consts = {{"n", 4}};
  Opts.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Opts.Abstractions = {{"Decide", "DecideAbs"}};
  Opts.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  Opts.Engine.Incremental = true;
  Opts.Engine.CacheDir = Dir.Path;
  Opts.Engine.Symmetry = false;
  auto ExpectSameVerdict = [](const driver::VerifyResult &A,
                              const driver::VerifyResult &B,
                              const std::string &What) {
    EXPECT_EQ(A.Accepted, B.Accepted) << What;
    EXPECT_EQ(A.exitCode(), B.exitCode()) << What;
    EXPECT_EQ(A.Report.str(), B.Report.str()) << What;
  };

  driver::VerifyResult Cold = driver::verifyModule(Opts);
  ASSERT_FALSE(Cold.Accepted);
  ASSERT_GT(Cold.Report.Cooperation.failures(), CheckResult::MaxIssues);
  ASSERT_GT(fileSize(Dir.base()), 0) << "the cold run persists its image";
  driver::VerifyResult Warm = driver::verifyModule(Opts);
  ExpectSameVerdict(Cold, Warm, "warm");
  EXPECT_GT(Warm.Report.Scheduler.Cache.Hits, 0u);

  // The same image stamped with the previous serialization format.
  {
    std::fstream F(Dir.base(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    F.seekp(8); // after the magic: the format version, little-endian
    uint32_t Old = engine::ObligationCache::DiskFormatVersion - 1;
    for (int I = 0; I < 4; ++I)
      F.put(static_cast<char>((Old >> (8 * I)) & 0xff));
  }
  driver::VerifyResult Stale = driver::verifyModule(Opts);
  ExpectSameVerdict(Cold, Stale, "stale format");
  EXPECT_EQ(Stale.Report.Scheduler.Cache.Hits, 0u) << "the image is ignored";

  // The stale run rewrote a current image; cut it inside its last entry.
  long Size = fileSize(Dir.base());
  ASSERT_GT(Size, 16);
  ASSERT_EQ(::truncate(Dir.base().c_str(), Size - 7), 0);
  driver::VerifyResult Truncated = driver::verifyModule(Opts);
  ExpectSameVerdict(Cold, Truncated, "truncated entry");
  EXPECT_EQ(Truncated.Report.Scheduler.Cache.Hits, 0u);
}
