// parallel_for: runs fn(i) for every i in [0, count) on up to `threads`
// threads — the caller plus threads - 1 helpers, started for this call and
// joined before it returns. Indices are handed out one at a time from a
// shared counter, so one long item (the simulator's shared control plane)
// overlaps the short ones instead of stalling a fixed block.
//
// Meant for construction work whose items write disjoint slots: results
// are then identical for every thread count by construction. With one
// thread, or one item, no thread is started and the items run in order.
// The first exception any item throws is rethrown on the caller after
// every thread has stopped; items not yet started are skipped. A thread
// that cannot be started leaves its share to the threads that run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace gryphon {

template <typename Fn>
void parallel_for(std::size_t threads, std::size_t count, Fn&& fn) {
  const std::size_t workers = std::min(std::max<std::size_t>(threads, 1), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < count && !failed.load(); i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no more threads to be had: the ones running share the items
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace gryphon
