#include "oracle.h"

#include <algorithm>

namespace perfbench {

using gryphon::SubscriptionId;

void Oracle::add(std::int64_t key, std::uint16_t client,
                 const gryphon::Subscription& subscription) {
  matcher_.add(SubscriptionId{key}, subscription);
  client_of_[key] = client;
}

void Oracle::remove(std::int64_t key) {
  matcher_.remove(SubscriptionId{key});
  client_of_.erase(key);
}

std::vector<std::uint16_t> Oracle::expected(const gryphon::Event& event) const {
  std::vector<SubscriptionId> matched;
  matcher_.match_into(event, matched);
  std::vector<std::uint16_t> clients;
  clients.reserve(matched.size());
  for (const SubscriptionId id : matched) clients.push_back(client_of_.at(id.value));
  std::sort(clients.begin(), clients.end());
  clients.erase(std::unique(clients.begin(), clients.end()), clients.end());
  return clients;
}

DeliveryCheck::DeliveryCheck(std::size_t clients, std::size_t events)
    : expected_(clients, std::vector<std::uint8_t>(events, 0)),
      got_(clients, std::vector<std::uint16_t>(events, 0)),
      expected_per_client_(clients, 0) {}

void DeliveryCheck::expect(std::uint32_t event, const std::vector<std::uint16_t>& clients) {
  for (const std::uint16_t client : clients) {
    if (expected_[client][event] != 0) continue;
    expected_[client][event] = 1;
    ++expected_per_client_[client];
    ++expected_total_;
  }
}

void DeliveryCheck::got(std::size_t client, std::uint32_t event) {
  if (client >= got_.size() || event >= got_[client].size()) {
    ++out_of_range_;
    return;
  }
  std::uint16_t& count = got_[client][event];
  if (count != 0xffff) ++count;
}

DeliveryCheck::Verdict DeliveryCheck::verdict() const {
  Verdict v;
  v.expected = expected_total_;
  v.spurious = out_of_range_;
  for (std::size_t c = 0; c < got_.size(); ++c) {
    for (std::size_t e = 0; e < got_[c].size(); ++e) {
      const std::uint16_t n = got_[c][e];
      if (expected_[c][e] != 0) {
        if (n == 0) ++v.missing;
        if (n > 1) v.duplicates += n - 1;
      } else {
        v.spurious += n;
      }
    }
  }
  return v;
}

}  // namespace perfbench
