//===- engine/OpenTable.h - Lock-free-read open-addressing table -*- C++ -*-===//
///
/// \file
/// The one table implementation behind the engine's concurrent indexes:
/// FlatMemo's stripes (ActionCaches.h) and StateArena's hash-cons shards.
/// An OpenTable is an insert-only, open-addressing array of
/// (tag, payload) slots with linear probing.
///
/// Reads take no lock. A slot publishes its nonzero 64-bit tag with
/// release order after its payload is written, so a reader that acquires
/// the tag sees the payload. A reader races an insert at worst by
/// missing the new slot; the owner's locked insert path re-probes.
///
/// Inserts take the table's mutex, which the owner also uses to serialize
/// whatever it stores beside the table (the arena's item blocks).
///
/// Growth and reclamation. Above 60% occupancy an insert copies the live
/// slots into a table twice the size and swaps the atomic table pointer.
/// The superseded table is freed before the insert returns: a reader
/// announces the table it probes in its ThreadSlot hazard (seq_cst
/// exchange, then a re-check of the table pointer), and the grower,
/// after the swap, waits until no hazard names the old table. Readers
/// never wait and must not call out while probing, so the wait is a few
/// probes long; a grower's own hazard is always clear (it is inserting,
/// not probing), so an insert may run inside another table's insert.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_OPENTABLE_H
#define ISQ_ENGINE_OPENTABLE_H

#include "engine/ThreadSlots.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace isq {
namespace engine {

template <typename Payload> class alignas(64) OpenTable {
public:
  /// Every live tag has this bit set, so a zero tag marks an empty slot.
  /// The probe starts at the tag's low bits, which is how growth re-places
  /// slots from their tags alone; tags should therefore come from mix().
  static constexpr uint64_t LiveBit = uint64_t(1) << 63;

  struct Slot {
    std::atomic<uint64_t> Tag{0};
    Payload P{};
  };

  /// \p InitialCap must be a power of two.
  explicit OpenTable(size_t InitialCap) {
    TableP.store(newTable(InitialCap), std::memory_order_relaxed);
  }
  ~OpenTable() { delete TableP.load(std::memory_order_relaxed); }
  OpenTable(const OpenTable &) = delete;
  OpenTable &operator=(const OpenTable &) = delete;

  /// Murmur3 finalizer. Callers hash structured, near-sequential ids
  /// whose low bits cluster badly under a power-of-two mask (a prime
  /// modulus map forgives that; open addressing does not), so every hash
  /// is avalanched before it becomes a tag.
  static uint64_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

  /// Lock-free probe of \p Tag's path: \p Match(SlotTag, Payload) is
  /// called on each live slot until it returns an engaged optional, which
  /// find returns, or an empty slot ends the path. Match must be pure and
  /// quick: the table stays hazard-protected while it runs.
  template <typename MatchF>
  auto find(uint64_t Tag, MatchF Match) const
      -> decltype(Match(uint64_t(), std::declval<const Payload &>())) {
    ThreadSlot &Me = ThreadSlot::mine();
    const Table *T = TableP.load(std::memory_order_relaxed);
    for (;;) {
      Me.Hazard.exchange(T, std::memory_order_seq_cst);
      const Table *Now = TableP.load(std::memory_order_seq_cst);
      if (Now == T)
        break;
      T = Now;
    }
    auto Found = probe(*T, Tag, Match);
    Me.Hazard.store(nullptr, std::memory_order_release);
    return Found;
  }

  /// The insert lock; findLocked and insertLocked require it.
  std::mutex &mutex() const { return M; }

  /// find() for a holder of mutex(): the table cannot move underneath.
  template <typename MatchF>
  auto findLocked(uint64_t Tag, MatchF Match) const
      -> decltype(Match(uint64_t(), std::declval<const Payload &>())) {
    return probe(*TableP.load(std::memory_order_relaxed), Tag, Match);
  }

  /// Places (\p Tag, \p P) and publishes it, growing first to keep
  /// occupancy under 60%. The caller holds mutex() and has found no slot
  /// matching the key under it.
  void insertLocked(uint64_t Tag, const Payload &P) {
    Table *T = TableP.load(std::memory_order_relaxed);
    size_t Size = Count.load(std::memory_order_relaxed);
    if ((Size + 1) * 5 > (T->Mask + 1) * 3)
      T = grow(T);
    Slot &Free = T->Slots[freeSlot(*T, Tag)];
    Free.P = P;
    Free.Tag.store(Tag, std::memory_order_release);
    Count.store(Size + 1, std::memory_order_relaxed);
  }

  // Occupancy, readable any time; exact once no insert is in flight.
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  size_t capacity() const {
    return TableP.load(std::memory_order_relaxed)->Mask + 1;
  }
  static constexpr size_t slotBytes() { return sizeof(Slot); }
  /// Slot bytes of every table allocated and not yet freed; equals
  /// capacity() * slotBytes() once growth is done.
  size_t bytesHeld() const { return Bytes.load(std::memory_order_relaxed); }

private:
  struct Table {
    explicit Table(size_t Cap) : Mask(Cap - 1), Slots(new Slot[Cap]) {}
    size_t Mask;
    std::unique_ptr<Slot[]> Slots;
  };

  template <typename MatchF>
  static auto probe(const Table &T, uint64_t Tag, MatchF &Match)
      -> decltype(Match(uint64_t(), std::declval<const Payload &>())) {
    for (size_t I = Tag & T.Mask;; I = (I + 1) & T.Mask) {
      const Slot &S = T.Slots[I];
      uint64_t Tg = S.Tag.load(std::memory_order_acquire);
      if (Tg == 0)
        return std::nullopt;
      if (auto Found = Match(Tg, S.P))
        return Found;
    }
  }

  /// First empty slot on \p Tag's probe path. Caller holds M.
  static size_t freeSlot(const Table &T, uint64_t Tag) {
    size_t I = Tag & T.Mask;
    while (T.Slots[I].Tag.load(std::memory_order_relaxed) != 0)
      I = (I + 1) & T.Mask;
    return I;
  }

  Table *newTable(size_t Cap) {
    Table *T = new Table(Cap);
    Bytes.fetch_add(Cap * sizeof(Slot), std::memory_order_relaxed);
    return T;
  }

  /// Moves the slots from \p Old to a table twice its size and frees
  /// \p Old once no reader can still be probing it. Caller holds M.
  Table *grow(Table *Old) {
    Table *N = newTable(2 * (Old->Mask + 1));
    for (size_t I = 0; I <= Old->Mask; ++I) {
      const Slot &From = Old->Slots[I];
      uint64_t Tg = From.Tag.load(std::memory_order_relaxed);
      if (!Tg)
        continue;
      Slot &To = N->Slots[freeSlot(*N, Tg)];
      To.P = From.P;
      To.Tag.store(Tg, std::memory_order_relaxed);
    }
    // Publishes every (relaxed) write to N above: readers load the table
    // pointer with seq_cst (acquire) before touching slots.
    TableP.store(N, std::memory_order_seq_cst);
    ThreadSlot::waitUntilUnprotected(Old);
    Bytes.fetch_sub((Old->Mask + 1) * sizeof(Slot),
                    std::memory_order_relaxed);
    delete Old;
    return N;
  }

  std::atomic<Table *> TableP{nullptr};
  mutable std::mutex M;
  // Written under M, readable any time.
  std::atomic<size_t> Count{0};
  std::atomic<size_t> Bytes{0};
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_OPENTABLE_H
