//===- engine/ThreadSlots.h - Per-thread hazard and counter slots *- C++ -*-===//
///
/// \file
/// One cache-line slot per live thread, shared by every concurrent memo
/// and hit counter in the engine. A slot carries:
///  - the thread's hazard pointer: the memo table it is probing right now.
///    FlatMemo publishes it before a probe and clears it once the value
///    is copied out, so a memo that outgrows a table frees it as soon as
///    no slot names it (waitUntilUnprotected);
///  - a small stable index, which picks the thread's cell in every
///    StripedCounter.
///
/// A thread claims a slot on first use and releases it when it exits.
/// Slots are recycled, never freed, so the registry holds as many slots
/// as the most threads ever alive at once, and live threads never share
/// a slot.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_THREADSLOTS_H
#define ISQ_ENGINE_THREADSLOTS_H

#include <atomic>
#include <cstdint>

namespace isq {
namespace engine {

class alignas(64) ThreadSlot {
public:
  /// The calling thread's slot, claimed on first use.
  static ThreadSlot &mine() {
    ThreadSlot *S = current();
    return S ? *S : claim();
  }

  /// Returns once no thread's hazard names \p P. The caller must already
  /// have replaced every shared pointer to \p P with a seq_cst store, so
  /// a reader that publishes \p P afterwards sees the replacement on its
  /// re-check and never dereferences \p P.
  static void waitUntilUnprotected(const void *P);

  /// The table this thread is probing, or null. Written only by the
  /// owning thread: a seq_cst exchange before the probe, a release store
  /// of null after it.
  std::atomic<const void *> Hazard{nullptr};
  /// Distinct among live threads; fixed for the slot's lifetime.
  unsigned Index = 0;

private:
  friend struct ThreadSlotRelease;

  static ThreadSlot *&current() {
    static thread_local ThreadSlot *S = nullptr;
    return S;
  }
  static ThreadSlot &claim();

  std::atomic<bool> Claimed{false};
  ThreadSlot *Next = nullptr; // registry list; immutable once published
};

/// An event counter bumped from many threads and read once they are done.
/// The thread whose slot has index I < NumCells owns cell I outright: no
/// live thread shares it (a recycled slot passes to its next owner
/// through the slot's release/acquire claim), so adding is a plain load
/// and store on the thread's own cache line, with no locked instruction
/// and no contention. Threads beyond the first NumCells slots share one
/// overflow cell through fetch_add. load() sums the cells, which is exact
/// once the adding threads have been joined.
class StripedCounter {
public:
  void add(uint64_t N = 1) {
    unsigned I = ThreadSlot::mine().Index;
    if (I < NumCells) {
      std::atomic<uint64_t> &Own = Cells[I].N;
      Own.store(Own.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
    } else {
      Cells[NumCells].N.fetch_add(N, std::memory_order_relaxed);
    }
  }
  uint64_t load() const {
    uint64_t Sum = 0;
    for (const Cell &C : Cells)
      Sum += C.N.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  static constexpr unsigned NumCells = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> N{0};
  };
  Cell Cells[NumCells + 1]; // the last one is the shared overflow cell
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_THREADSLOTS_H
