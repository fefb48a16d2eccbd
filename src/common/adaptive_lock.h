// Spin-then-block primitives for the commit path's short hand-offs.
//
// A futex sleep and wake costs a few microseconds — about as long as the
// critical sections and apply turns the commit pipeline hands between
// committers. When the wait is that short, parking the waiter doubles
// it. These helpers spin briefly (with the CPU's pause hint, so a
// hyper-threaded sibling keeps its share of the core) and fall back to
// blocking once the budget is spent, so a long wait still costs no CPU:
//
//   * spin_until(done, budget) — polls `done` for at most `budget` of
//     wall time and reports whether it came true;
//   * adaptive_lock(mu) — try_lock for about kLockSpin, then lock().
//     It returns a std::unique_lock, so std::condition_variable waits
//     work on it unchanged.
//
// Spinning never changes what a waiter observes, only how soon: every
// spin ends either in the same state a blocking wait returns in, or in
// that blocking wait itself.
#pragma once

#include <chrono>
#include <mutex>

namespace argus {

/// Tells the CPU the caller is in a spin loop.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Polls `done` with cpu_relax() between polls until it returns true or
/// `budget` of wall time has passed. Returns the last value of done().
template <typename Pred>
[[nodiscard]] bool spin_until(Pred&& done, std::chrono::nanoseconds budget) {
  if (done()) return true;
  // Read the clock every few polls: a pause is tens of nanoseconds, a
  // clock read about as much again.
  constexpr int kPollsPerClockRead = 8;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (;;) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      cpu_relax();
      if (done()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
}

/// How long adaptive_lock tries before it blocks: a little under one
/// futex sleep/wake round trip, and longer than the short critical
/// sections it guards.
inline constexpr std::chrono::nanoseconds kLockSpin{2500};

/// Locks `mu`, spinning on try_lock for up to kLockSpin before blocking.
[[nodiscard]] inline std::unique_lock<std::mutex> adaptive_lock(
    std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock() &&
      !spin_until([&] { return lock.try_lock(); }, kLockSpin)) {
    lock.lock();
  }
  return lock;
}

}  // namespace argus
