//===- engine/ParallelFor.h - Tasks over an atomic index --------*- C++ -*-===//
///
/// \file
/// The engine's one fork-join loop outside exploration: runs Task(I) for
/// every I in [0, N) on up to Threads threads, the calling thread among
/// them, each claiming the next index from a shared atomic counter. The
/// obligation scheduler runs its jobs on it; the IS universe runs its τI
/// enumeration, τI interning and closure-test slices on it.
///
/// Every index runs exactly once unless a task throws: then no further
/// index is claimed, and once every thread has joined the first exception
/// is rethrown. With one thread (or at most one task) the tasks run
/// inline, in index order. A thread that cannot be started leaves its
/// share to the threads that were.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_PARALLELFOR_H
#define ISQ_ENGINE_PARALLELFOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace isq {
namespace engine {

template <typename TaskFn>
void parallelFor(unsigned Threads, size_t N, TaskFn &&Task) {
  size_t Workers = std::min<size_t>(std::max(Threads, 1u), N);
  if (Workers <= 1) {
    for (size_t I = 0; I < N; ++I)
      Task(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::exception_ptr Error;
  std::mutex ErrorMutex;
  auto Work = [&]() {
    try {
      for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
           I = Next.fetch_add(1, std::memory_order_relaxed))
        Task(I);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(ErrorMutex);
      if (!Error)
        Error = std::current_exception();
      Next.store(N, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Pool;
  try {
    Pool.reserve(Workers - 1);
    for (size_t I = 0; I + 1 < Workers; ++I)
      Pool.emplace_back(Work);
  } catch (...) {
    // Out of threads or memory: the workers already running and this
    // thread claim every remaining index.
  }
  Work();
  for (std::thread &T : Pool)
    T.join();
  if (Error)
    std::rethrow_exception(Error);
}

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_PARALLELFOR_H
