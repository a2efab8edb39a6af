//===- engine/ThreadSlots.cpp - Per-thread hazard and counter slots -------===//

#include "engine/ThreadSlots.h"

#include <thread>

using namespace isq;
using namespace isq::engine;

namespace {

/// Every slot ever created, newest first. Pushes and the growers' scans
/// are seq_cst so that a slot pushed before a reader publishes its hazard
/// is visible to any grower that replaced the table after that hazard.
std::atomic<ThreadSlot *> Head{nullptr};
std::atomic<unsigned> NextIndex{0};

} // namespace

namespace isq {
namespace engine {

/// Hands the calling thread's slot back to the registry at thread exit.
struct ThreadSlotRelease {
  ThreadSlot *Slot = nullptr;
  ~ThreadSlotRelease() {
    if (!Slot)
      return;
    ThreadSlot::current() = nullptr;
    Slot->Claimed.store(false, std::memory_order_release);
  }
};

} // namespace engine
} // namespace isq

ThreadSlot &ThreadSlot::claim() {
  ThreadSlot *Slot = nullptr;
  for (ThreadSlot *S = Head.load(std::memory_order_seq_cst); S && !Slot;
       S = S->Next) {
    bool Free = false;
    if (!S->Claimed.load(std::memory_order_relaxed) &&
        S->Claimed.compare_exchange_strong(Free, true,
                                           std::memory_order_acquire))
      Slot = S;
  }
  if (!Slot) {
    Slot = new ThreadSlot;
    Slot->Claimed.store(true, std::memory_order_relaxed);
    Slot->Index = NextIndex.fetch_add(1, std::memory_order_relaxed);
    ThreadSlot *Old = Head.load(std::memory_order_relaxed);
    do
      Slot->Next = Old;
    while (!Head.compare_exchange_weak(Old, Slot, std::memory_order_seq_cst,
                                       std::memory_order_relaxed));
  }
  static thread_local ThreadSlotRelease Release;
  Release.Slot = Slot;
  current() = Slot;
  return *Slot;
}

void ThreadSlot::waitUntilUnprotected(const void *P) {
  for (ThreadSlot *S = Head.load(std::memory_order_seq_cst); S; S = S->Next)
    while (S->Hazard.load(std::memory_order_seq_cst) == P)
      std::this_thread::yield();
}
