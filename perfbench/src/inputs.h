// Seeded workload inputs: schema, subscriptions, events and schedules.
//
// Everything the programs under test receive is generated here from the
// run's --seed, so a seed names one exact input set. Subscriptions and
// event values follow the paper's Section 4.1 workload (equality tests,
// zipf values, per-region locality of interest). Each event additionally
// carries an "id" attribute, which no subscription tests, so a delivery can
// be traced back to its publication; Figure 6 events also carry a ~1 KiB
// "payload" string that no subscription tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "event/event.h"
#include "event/schema.h"
#include "event/subscription.h"

namespace perfbench {

using gryphon::Event;
using gryphon::Rng;
using gryphon::SchemaPtr;
using gryphon::Subscription;

/// The paper's synthetic schema shape (Section 4.1).
inline constexpr std::size_t kAttributes = 10;
inline constexpr std::size_t kValuesPerAttribute = 5;
inline constexpr double kNonStarDecay = 0.85;

/// One subscription and the subscriber client (workload-local index) that
/// registers it.
struct SubSpec {
  std::size_t client{0};
  Subscription subscription;
};

class InputFactory {
 public:
  /// `payload_bytes` > 0 appends a string attribute of that length.
  InputFactory(std::uint64_t seed, std::size_t payload_bytes);

  [[nodiscard]] const SchemaPtr& schema() const { return schema_; }
  [[nodiscard]] std::size_t id_index() const { return id_index_; }

  /// A paper-style subscription; `region` selects the locality-of-interest
  /// value order (one region = no locality).
  Subscription subscription(Rng& rng, std::uint32_t region) const;
  /// The all-don't-care subscription.
  [[nodiscard]] Subscription catch_all() const;
  /// A paper-style event (id 0) drawn with the region's value order.
  Event event(Rng& rng, std::uint32_t region) const;

  /// Sub-stream of the run seed for one named input component.
  [[nodiscard]] Rng stream(std::uint64_t label) const;

 private:
  std::uint64_t seed_;
  std::size_t payload_bytes_;
  SchemaPtr base_;    // the synthetic attributes only (generator schema)
  SchemaPtr schema_;  // base + id (+ payload)
  std::size_t id_index_{0};
};

/// Stamps the publication id into a copy of a pool event.
Event with_id(const Event& base, std::size_t id_index, std::uint32_t id);

/// The id attribute of an event.
std::uint32_t event_id(const Event& event, std::size_t id_index);

/// The event id carried by a Publish, EventForward or Deliver frame, read
/// without decoding the rest of the event; nullopt for other frames.
std::optional<std::uint32_t> frame_event_id(std::span<const std::uint8_t> frame,
                                            std::size_t id_index);

}  // namespace perfbench
