// The delivery oracle. Expected deliveries come from each client's live
// subscriptions evaluated by NaiveMatcher, a brute-force matcher that shares
// no code with the PST kernels the brokers run. A client expects one copy
// of every event that matches at least one of its subscriptions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "event/event.h"
#include "event/subscription.h"
#include "matching/naive_matcher.h"

namespace perfbench {

class Oracle {
 public:
  void add(std::int64_t key, std::uint16_t client, const gryphon::Subscription& subscription);
  void remove(std::int64_t key);
  /// Sorted distinct clients expecting `event`.
  [[nodiscard]] std::vector<std::uint16_t> expected(const gryphon::Event& event) const;

 private:
  gryphon::NaiveMatcher matcher_;
  std::unordered_map<std::int64_t, std::uint16_t> client_of_;
};

/// Compares what each client's application received with what it expected.
class DeliveryCheck {
 public:
  DeliveryCheck(std::size_t clients, std::size_t events);

  void expect(std::uint32_t event, const std::vector<std::uint16_t>& clients);
  /// One delivery of `event` handed to client `client` by Client::take_deliveries.
  void got(std::size_t client, std::uint32_t event);

  [[nodiscard]] bool expected(std::size_t client, std::uint32_t event) const {
    return expected_[client][event] != 0;
  }
  [[nodiscard]] std::uint64_t expected_for(std::size_t client) const {
    return expected_per_client_[client];
  }

  struct Verdict {
    std::uint64_t expected{0};
    std::uint64_t missing{0};
    std::uint64_t spurious{0};
    std::uint64_t duplicates{0};
    [[nodiscard]] std::uint64_t failed() const { return missing + spurious + duplicates; }
  };
  [[nodiscard]] Verdict verdict() const;

 private:
  std::vector<std::vector<std::uint8_t>> expected_;  // [client][event]
  std::vector<std::vector<std::uint16_t>> got_;      // [client][event]
  std::vector<std::uint64_t> expected_per_client_;
  std::uint64_t expected_total_{0};
  std::uint64_t out_of_range_{0};  // deliveries of ids never published
};

}  // namespace perfbench
