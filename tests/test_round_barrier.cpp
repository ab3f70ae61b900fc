// RoundBarrier (sim/round_barrier.h), the parallel engine's round boundary:
// the completion runs exactly once per round, on the last arriver, and every
// thread sees every other thread's pre-barrier writes afterwards. Plain
// (non-atomic) slots make a missing happens-before edge a TSan report.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/round_barrier.h"

namespace gryphon {
namespace {

void run_rounds(BarrierWait mode, std::size_t threads, int rounds) {
  std::vector<int> slot(threads, -1);
  int completions = 0;
  int completion_errors = 0;
  // Two barriers per round, so the completion for round r runs as the
  // (2r)th and (2r+1)th call, both with every slot at r.
  auto completion = [&]() noexcept {
    for (const int value : slot) {
      if (value != completions / 2) ++completion_errors;
    }
    ++completions;
  };
  RoundBarrier<decltype(completion)> barrier(threads, mode, completion);

  std::vector<int> reader_errors(threads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (int round = 0; round < rounds; ++round) {
        slot[t] = round;
        barrier.arrive_and_wait();
        if (completions != 2 * round + 1) ++reader_errors[t];
        for (const int value : slot) {
          if (value != round) ++reader_errors[t];
        }
        // Nobody overwrites a slot before everyone has read this round.
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(completions, 2 * rounds);
  for (std::size_t t = 0; t < threads; ++t) EXPECT_EQ(reader_errors[t], 0) << "thread " << t;
  EXPECT_EQ(completion_errors, 0);
}

TEST(RoundBarrier, SpinThenParkRunsCompletionOncePerRound) {
  run_rounds(BarrierWait::kSpinThenPark, 3, 10000);
}

TEST(RoundBarrier, ParkRunsCompletionOncePerRound) {
  run_rounds(BarrierWait::kPark, 4, 10000);
}

}  // namespace
}  // namespace gryphon
