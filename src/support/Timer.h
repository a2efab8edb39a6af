//===- support/Timer.h - Wall-clock timing ----------------------*- C++ -*-===//
///
/// \file
/// A monotonic wall-clock stopwatch used by the verification pipeline and
/// the benchmark harness to report per-check times (Table 1 column "Time"),
/// and a stopwatch of the calling thread's CPU time for work that runs on
/// pool threads, where summed wall time would also count the time a
/// worker sat descheduled.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SUPPORT_TIMER_H
#define ISQ_SUPPORT_TIMER_H

#include <chrono>
#include <ctime>

namespace isq {

/// Starts on construction; elapsed() reports seconds since construction or
/// the last reset().
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  /// Seconds elapsed since construction / last reset.
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Starts on construction; elapsed() reports the CPU seconds the calling
/// thread has used since (CLOCK_THREAD_CPUTIME_ID). Start and read it on
/// the same thread.
class ThreadCpuTimer {
public:
  ThreadCpuTimer() : Start(now()) {}

  double elapsed() const { return now() - Start; }

private:
  static double now() {
    timespec Ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
    return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
  }
  double Start;
};

} // namespace isq

#endif // ISQ_SUPPORT_TIMER_H
