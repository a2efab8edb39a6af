//===- engine/ObligationCache.cpp - Obligation verdict cache ------------------===//

#include "engine/ObligationCache.h"

#include "support/Version.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace isq;
using namespace isq::engine;

namespace {

// All on-disk integers are explicit little-endian, independent of host
// byte order (the file is a cache, but a portable one).

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Bounds-checked little-endian reader over a byte range. Every get sets
/// the latching Bad flag on underrun instead of reading past the end; a
/// parser checks ok() once at the end (and wherever it must branch on a
/// read value).
struct ByteReader {
  const char *P;
  size_t Left;
  bool Bad = false;

  ByteReader(const char *Data, size_t Size) : P(Data), Left(Size) {}

  uint32_t u32() { return static_cast<uint32_t>(fixed(4)); }
  uint64_t u64() { return fixed(8); }
  uint8_t u8() { return static_cast<uint8_t>(fixed(1)); }

  bool bytes(std::string &Out, size_t N) {
    if (Bad || Left < N) {
      Bad = true;
      return false;
    }
    Out.assign(P, N);
    P += N;
    Left -= N;
    return true;
  }

  bool skip(size_t N) {
    if (Bad || Left < N) {
      Bad = true;
      return false;
    }
    P += N;
    Left -= N;
    return true;
  }

  bool ok() const { return !Bad; }
  bool done() const { return !Bad && Left == 0; }

private:
  uint64_t fixed(unsigned N) {
    if (Bad || Left < N) {
      Bad = true;
      return 0;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I < N; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (8 * I);
    P += N;
    Left -= N;
    return V;
  }
};

constexpr char FileMagic[8] = {'I', 'S', 'Q', 'O', 'B', 'C', '0', '1'};
constexpr char JournalMagic[8] = {'I', 'S', 'Q', 'O', 'B', 'J', '0', '1'};

/// Header shared by the base image and the journal: magic, format
/// versions, builder git sha. Returns false if the bytes under \p R don't
/// carry a trustworthy header for this build.
bool readHeader(ByteReader &R, const char (&Magic)[8]) {
  std::string MagicBytes;
  if (!R.bytes(MagicBytes, sizeof(Magic)) ||
      std::memcmp(MagicBytes.data(), Magic, sizeof(Magic)) != 0)
    return false;
  if (R.u32() != ObligationCache::DiskFormatVersion ||
      R.u32() != FpFormatVersion)
    return false;
  uint32_t ShaLen = R.u32();
  std::string Sha;
  return R.ok() && ShaLen <= 128 && R.bytes(Sha, ShaLen) && Sha == gitSha();
}

void writeHeader(std::string &Out, const char (&Magic)[8]) {
  Out.append(Magic, sizeof(Magic));
  putU32(Out, ObligationCache::DiskFormatVersion);
  putU32(Out, FpFormatVersion);
  std::string Sha = gitSha();
  putU32(Out, static_cast<uint32_t>(Sha.size()));
  Out.append(Sha);
}

/// Payload integrity for disk records: framing (sizes, counts) alone
/// cannot catch interior corruption — garbage inside a blob whose record
/// header survived would decode into plausible-but-wrong units. Every
/// record carries this 64-bit checksum of its blob, verified before any
/// decode; a mismatch is a miss (the slice re-runs), never a wrong
/// answer. Bytes are absorbed little-endian so the file stays
/// endianness-portable.
uint64_t blobChecksum(const char *Data, size_t Size) {
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ Size;
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t V = 0;
    for (unsigned B = 0; B < 8; ++B)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[I + B]))
           << (8 * B);
    H = (H ^ V) * 0xc6a4a7935bd1e995ULL;
    H ^= H >> 29;
  }
  uint64_t Tail = 0;
  for (unsigned B = 0; I < Size; ++I, B += 8)
    Tail |= static_cast<uint64_t>(static_cast<unsigned char>(Data[I])) << B;
  H = (H ^ Tail) * 0xc6a4a7935bd1e995ULL;
  H ^= H >> 32;
  return H;
}

bool writeAll(int Fd, const char *Data, size_t Size) {
  while (Size) {
    ssize_t W = ::write(Fd, Data, Size);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    Size -= static_cast<size_t>(W);
  }
  return true;
}

} // namespace

std::string engine::encodeObAggregates(const std::vector<ObAggregate> &Out) {
  std::string Blob;
  putU32(Blob, static_cast<uint32_t>(Out.size()));
  for (const ObAggregate &A : Out) {
    putU64(Blob, A.Units);
    putU64(Blob, A.Obligations);
    putU64(Blob, A.Failures);
    putU32(Blob, static_cast<uint32_t>(A.Issues.size()));
    for (const ObIssue &Issue : A.Issues) {
      putU32(Blob, Issue.Local);
      putU32(Blob, Issue.Seq);
      putU32(Blob, static_cast<uint32_t>(Issue.Message.size()));
      Blob.append(Issue.Message);
    }
  }
  return Blob;
}

bool engine::decodeObAggregates(const char *Data, size_t Size,
                                std::vector<ObAggregate> &Out) {
  ByteReader R(Data, Size);
  uint32_t N = R.u32();
  // Channels are uint8_t; an issue takes more than one byte.
  if (!R.ok() || N == 0 || N > 256)
    return false;
  Out.clear();
  Out.resize(N);
  for (ObAggregate &A : Out) {
    A.Units = R.u64();
    A.Obligations = R.u64();
    A.Failures = R.u64();
    uint32_t NumIssues = R.u32();
    if (!R.ok() || NumIssues > Size || NumIssues > A.Failures)
      return false;
    A.Issues.reserve(NumIssues);
    for (uint32_t J = 0; J < NumIssues; ++J) {
      ObIssue Issue;
      Issue.Local = R.u32();
      Issue.Seq = R.u32();
      uint32_t Len = R.u32();
      if (!R.bytes(Issue.Message, Len))
        return false;
      A.Issues.push_back(std::move(Issue));
    }
  }
  return R.done();
}

ObligationCache::ObligationCache() = default;

ObligationCache::ObligationCache(Options O) : Opts(std::move(O)) {
  if (!Opts.Dir.empty()) {
    loadDisk();
    loadJournal();
  }
}

ObligationCache::~ObligationCache() {
  if (Mapping)
    ::munmap(const_cast<char *>(Mapping), MappingSize);
  if (JMapping)
    ::munmap(const_cast<char *>(JMapping), JMappingSize);
}

std::string ObligationCache::filePath() const {
  return Opts.Dir + "/obcache.bin";
}

std::string ObligationCache::journalPath() const {
  return Opts.Dir + "/obcache.jrnl";
}

void ObligationCache::loadDisk() {
  int Fd = ::open(filePath().c_str(), O_RDONLY);
  if (Fd < 0)
    return; // no cache file yet: cold, not corrupt
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size <= 0) {
    ::close(Fd);
    Stats.DiskRejected = true;
    return;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Map == MAP_FAILED) {
    Stats.DiskRejected = true;
    return;
  }
  Mapping = static_cast<const char *>(Map);
  MappingSize = Size;

  auto Reject = [&] {
    ::munmap(const_cast<char *>(Mapping), MappingSize);
    Mapping = nullptr;
    MappingSize = 0;
    Disk.clear();
    Stats.DiskRejected = true;
    Stats.DiskEntries = 0;
  };

  ByteReader R(Mapping, MappingSize);
  // Git-sha provenance: verdict semantics may change without a format
  // bump, so a cache written by a different build is never trusted — the
  // run proceeds cold and overwrites on save.
  if (!readHeader(R, FileMagic))
    return Reject();

  uint64_t Count = R.u64();
  if (!R.ok() || Count > MappingSize) // each entry takes >1 byte
    return Reject();
  uint64_t MaxUse = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    Fingerprint Key;
    Key.Hi = R.u64();
    Key.Lo = R.u64();
    uint64_t LastUse = R.u64();
    uint64_t BlobSize = R.u64();
    uint64_t Checksum = R.u64();
    if (!R.ok() || BlobSize > R.Left)
      return Reject();
    DiskEntry E;
    E.Offset = static_cast<size_t>(R.P - Mapping);
    E.Size = static_cast<size_t>(BlobSize);
    E.LastUse = LastUse;
    E.Checksum = Checksum;
    R.skip(E.Size);
    Disk[Key] = E;
    MaxUse = std::max(MaxUse, LastUse);
  }
  if (!R.done())
    return Reject();
  Clock = MaxUse;
  Stats.DiskEntries = Disk.size();
}

void ObligationCache::loadJournal() {
  int Fd = ::open(journalPath().c_str(), O_RDONLY);
  if (Fd < 0)
    return; // no journal: the base image is the whole disk tier
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size <= 0) {
    ::close(Fd);
    return; // empty or unreadable: ignored, recreated on next append
  }
  size_t Size = static_cast<size_t>(St.st_size);
  void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Map == MAP_FAILED)
    return;
  JMapping = static_cast<const char *>(Map);
  JMappingSize = Size;

  ByteReader R(JMapping, JMappingSize);
  if (!readHeader(R, JournalMagic)) {
    // Untrusted header (other build, other format): drop the whole file.
    // JournalValidBytes stays 0, so the next append truncates it away.
    ::munmap(const_cast<char *>(JMapping), JMappingSize);
    JMapping = nullptr;
    JMappingSize = 0;
    return;
  }
  // Records are accepted up to the first malformed byte: a torn append
  // (crash mid-write) costs exactly the tail, and the next append
  // truncates back to this point before writing.
  JournalValidBytes = static_cast<size_t>(R.P - JMapping);
  while (R.Left > 0) {
    Fingerprint Key;
    Key.Hi = R.u64();
    Key.Lo = R.u64();
    uint64_t LastUse = R.u64();
    uint64_t BlobSize = R.u64();
    uint64_t Checksum = R.u64();
    if (!R.ok() || BlobSize > R.Left)
      break;
    DiskEntry E;
    E.Offset = static_cast<size_t>(R.P - JMapping);
    E.Size = static_cast<size_t>(BlobSize);
    E.LastUse = LastUse;
    E.Checksum = Checksum;
    E.Journal = true;
    R.skip(E.Size);
    Disk[Key] = E; // journal shadows base
    Clock = std::max(Clock, LastUse);
    JournalValidBytes = static_cast<size_t>(R.P - JMapping);
  }
  Stats.DiskEntries = Disk.size();
}

bool ObligationCache::lookup(const Fingerprint &Key,
                             std::vector<ObAggregate> &Out, bool &FromDisk) {
  const char *Blob = nullptr;
  size_t BlobSize = 0;
  Fingerprint DiskKey;
  bool IsDisk = false;
  uint64_t WantSum = 0;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.Lookups;
    if (auto It = Memory.find(Key); It != Memory.end()) {
      It->second.LastUse = ++Clock;
      Blob = It->second.Blob.data();
      BlobSize = It->second.Blob.size();
      FromDisk = false;
    } else if (auto DIt = Disk.find(Key); DIt != Disk.end()) {
      DIt->second.LastUse = ++Clock;
      FromDisk = !DIt->second.Touched;
      DIt->second.Touched = true;
      Blob = (DIt->second.Journal ? JMapping : Mapping) + DIt->second.Offset;
      BlobSize = DIt->second.Size;
      IsDisk = true;
      DiskKey = Key;
      WantSum = DIt->second.Checksum;
    } else {
      ++Stats.Misses;
      return false;
    }
  }
  // Verify and decode outside the lock: the bytes are stable (memory
  // blobs never shrink or vanish during a run; the mappings live until
  // destruction). Disk payloads are checksummed before decode — framing
  // alone can't catch interior corruption.
  if ((IsDisk && blobChecksum(Blob, BlobSize) != WantSum) ||
      !decodeObAggregates(Blob, BlobSize, Out)) {
    // A corrupt or structurally invalid payload that passed the header
    // checks: forget the entry and report a miss — cold, never wrong.
    std::lock_guard<std::mutex> Lock(M);
    if (IsDisk)
      Disk.erase(DiskKey);
    else
      Memory.erase(Key);
    ++Stats.Misses;
    return false;
  }
  std::lock_guard<std::mutex> Lock(M);
  ++Stats.Hits;
  if (FromDisk)
    ++Stats.DiskHits;
  return true;
}

void ObligationCache::insert(const Fingerprint &Key,
                             const std::vector<ObAggregate> &Out) {
  if (Key.isZero())
    return;
  std::string Blob = encodeObAggregates(Out); // encode outside the lock
  std::lock_guard<std::mutex> Lock(M);
  ++Stats.Inserts;
  Memory[Key] = MemEntry{std::move(Blob), ++Clock};
}

bool ObligationCache::save(std::string &Error) {
  if (Opts.Dir.empty())
    return true;
  std::lock_guard<std::mutex> Lock(M);
  // An all-hit run has nothing to add: the disk tier already holds
  // exactly what a rewrite would produce (modulo LRU recency, which an
  // all-hit run touches uniformly anyway), so write nothing. A rejected
  // base still falls through — compacting it self-heals a corrupt or
  // stale-provenance file.
  if (Stats.Inserts == 0 && !Stats.DiskRejected)
    return true;
  // Few inserts over a healthy base: append them to the journal so the
  // writeback scales with the edit, not the image. Once the journal
  // would outgrow half the base (or the base is gone or untrusted),
  // compact everything into a fresh base instead.
  size_t AppendBytes = 0;
  for (const auto &[Key, E] : Memory)
    AppendBytes += 40 + E.Blob.size();
  if (Mapping && !Stats.DiskRejected &&
      JournalValidBytes + AppendBytes <=
          std::max(MappingSize / 2, size_t(1) << 20))
    return appendJournal(Error);
  return compact(Error);
}

bool ObligationCache::appendJournal(std::string &Error) {
  int Fd = ::open(journalPath().c_str(), O_WRONLY | O_CREAT, 0644);
  if (Fd < 0) {
    Error = "cannot open " + journalPath() + ": " + std::strerror(errno);
    return false;
  }
  std::string Buf;
  if (JournalValidBytes == 0)
    writeHeader(Buf, JournalMagic); // fresh (or untrusted) journal
  // Drop any torn tail before appending so the file stays prefix-valid:
  // a reader accepts records up to the first malformed byte.
  bool Ok = ::ftruncate(Fd, static_cast<off_t>(JournalValidBytes)) == 0 &&
            ::lseek(Fd, 0, SEEK_END) >= 0;
  for (const auto &[Key, E] : Memory) {
    putU64(Buf, Key.Hi);
    putU64(Buf, Key.Lo);
    putU64(Buf, E.LastUse);
    putU64(Buf, E.Blob.size());
    putU64(Buf, blobChecksum(E.Blob.data(), E.Blob.size()));
    Buf.append(E.Blob);
  }
  Ok = Ok && writeAll(Fd, Buf.data(), Buf.size());
  Ok = Ok && ::fsync(Fd) == 0;
  if (::close(Fd) != 0)
    Ok = false;
  if (!Ok) {
    Error = "append to " + journalPath() + " failed: " + std::strerror(errno);
    return false;
  }
  return true;
}

bool ObligationCache::compact(std::string &Error) {
  struct Row {
    Fingerprint Key;
    uint64_t LastUse;
    const char *Data;
    size_t Size;
    uint64_t Checksum;
  };
  std::vector<Row> Rows;
  Rows.reserve(Memory.size() + Disk.size());
  for (const auto &[Key, E] : Memory)
    Rows.push_back({Key, E.LastUse, E.Blob.data(), E.Blob.size(),
                    blobChecksum(E.Blob.data(), E.Blob.size())});
  for (const auto &[Key, E] : Disk)
    if (!Memory.count(Key)) // memory shadows disk
      Rows.push_back({Key, E.LastUse,
                      (E.Journal ? JMapping : Mapping) + E.Offset, E.Size,
                      E.Checksum});

  // LRU cap: newest-used first, keep while under budget. Sort ties (and
  // everything else) by key so the file is deterministic given usage.
  std::sort(Rows.begin(), Rows.end(), [](const Row &X, const Row &Y) {
    if (X.LastUse != Y.LastUse)
      return X.LastUse > Y.LastUse;
    return X.Key < Y.Key;
  });
  constexpr size_t RowOverhead = 8 + 8 + 8 + 8 + 8; // key, use, size, sum
  std::string Header;
  writeHeader(Header, FileMagic);
  size_t Budget = Opts.MaxBytes > Header.size() + 8
                      ? Opts.MaxBytes - Header.size() - 8
                      : 0;
  size_t Keep = 0, Bytes = 0;
  while (Keep < Rows.size() && Bytes + RowOverhead + Rows[Keep].Size <= Budget)
    Bytes += RowOverhead + Rows[Keep++].Size;
  putU64(Header, Keep);

  ::mkdir(Opts.Dir.c_str(), 0755); // EEXIST is fine
  std::string Tmp =
      Opts.Dir + "/obcache.tmp." + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = "cannot create " + Tmp + ": " + std::strerror(errno);
    return false;
  }
  // Batch rows into a few-megabyte buffer between write(2) calls: the
  // image runs to tens of megabytes across hundreds of thousands of
  // rows, and two syscalls per row dominates an otherwise sequential
  // dump.
  bool Ok = writeAll(Fd, Header.data(), Header.size());
  std::string Buf;
  Buf.reserve(4 << 20);
  auto Flush = [&] {
    if (Ok && !Buf.empty())
      Ok = writeAll(Fd, Buf.data(), Buf.size());
    Buf.clear();
  };
  for (size_t I = 0; Ok && I < Keep; ++I) {
    const Row &E = Rows[I];
    putU64(Buf, E.Key.Hi);
    putU64(Buf, E.Key.Lo);
    putU64(Buf, E.LastUse);
    putU64(Buf, E.Size);
    putU64(Buf, E.Checksum);
    Buf.append(E.Data, E.Size);
    if (Buf.size() >= (4 << 20))
      Flush();
  }
  Flush();
  Ok = Ok && ::fsync(Fd) == 0;
  if (::close(Fd) != 0)
    Ok = false;
  if (!Ok) {
    Error = "write failed for " + Tmp + ": " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }
  // Crash-safe publish: readers see the old file or the new one, never a
  // torn mix.
  if (::rename(Tmp.c_str(), filePath().c_str()) != 0) {
    Error = "rename to " + filePath() + " failed: " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }
  // The fresh base subsumes the journal. Unlink after the rename: a crash
  // in between leaves journal records that duplicate base entries with
  // identical content, which the next load shadows consistently.
  ::unlink(journalPath().c_str());
  return true;
}

ObligationCache::Counters ObligationCache::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}
