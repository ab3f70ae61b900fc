// The parallel engine's round barrier (engine.h): the last of `parties`
// threads to arrive runs the completion, then releases the others by
// bumping a generation counter.
//
// std::barrier parks every waiter in the kernel. A round of the Figure 6
// engine lasts tens of microseconds, so the futex wake-up dominates it. Here
// a waiter first spins on the generation for a bounded kSpinPauses pauses,
// then parks on std::atomic::wait. The generation is 32 bits so that
// wait/notify stay a plain futex in libstdc++, and notify_all skips the
// syscall when nobody is parked.
//
// Spinning only pays while each spinner has a core of its own. With as many
// workers as hardware threads, a spinner can steal the core the last
// arriver needs. On a 4-vCPU x86-64 host, 4 spinning workers ran a
// 2,000-event Figure 6 schedule in 13-64 ms over five runs, against
// 16-19 ms parked; 2 workers ran the perfbench sim-fig6 schedule about
// 1.3x faster spinning than parked. wait_mode_for() therefore spins only
// when the parties leave a hardware thread free.
//
// Memory order: every arrival is an acq_rel RMW on `arrived_`, so the last
// arriver — and with it the completion — sees every thread's writes from
// before its arrival. The generation store publishes those and the
// completion's writes to every waiter's load. That store is seq_cst, not
// release. libstdc++'s notify_all reads a parked-waiter count and skips the
// futex wake when it reads zero; a parking waiter bumps the count, then
// re-reads the generation. With a release store that is the store-buffering
// pattern: the count read can pass the store, both sides read stale values,
// and the waiter sleeps through its round. A 2-thread stress whose
// completion dirties cold cache lines hit that lost wake-up within a
// million rounds; the engine hit it about once per 1,500 Figure 6 runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace gryphon {

enum class BarrierWait : std::uint8_t {
  kSpinThenPark,  // spin up to kSpinPauses pauses, then park
  kPark,          // park at once
};

/// kSpinThenPark when `parties` threads leave a hardware thread free.
inline BarrierWait wait_mode_for(std::size_t parties) {
  return parties < std::thread::hardware_concurrency() ? BarrierWait::kSpinThenPark
                                                       : BarrierWait::kPark;
}

template <typename Completion>
class RoundBarrier {
 public:
  /// Spin bound: ~20 us at the ~20 ns a pause takes on current x86 cores.
  static constexpr int kSpinPauses = 1000;

  RoundBarrier(std::size_t parties, BarrierWait mode, Completion completion)
      : parties_(static_cast<std::uint32_t>(parties)),
        mode_(mode),
        completion_(std::move(completion)) {}

  RoundBarrier(const RoundBarrier&) = delete;
  RoundBarrier& operator=(const RoundBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint32_t generation = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Nobody arrives again before the generation moves, so the reset
      // cannot race a next-round arrival.
      arrived_.store(0, std::memory_order_relaxed);
      completion_();
      // seq_cst, not release: notify_all skips the wake when it reads no
      // parked waiter, and that read must not pass this store (see above).
      generation_.store(generation + 1, std::memory_order_seq_cst);
      generation_.notify_all();
      return;
    }
    if (mode_ == BarrierWait::kSpinThenPark) {
      for (int i = 0; i < kSpinPauses; ++i) {
        if (generation_.load(std::memory_order_acquire) != generation) return;
        pause();
      }
    }
    while (generation_.load(std::memory_order_acquire) == generation) {
      generation_.wait(generation, std::memory_order_seq_cst);
    }
  }

 private:
  static void pause() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const std::uint32_t parties_;
  const BarrierWait mode_;
  Completion completion_;
  // Separate lines: arrivals write `arrived_` while spinners read
  // `generation_`.
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace gryphon
