#include "inputs.h"

#include "broker/wire.h"
#include "common/zipf.h"
#include "event/codec.h"
#include "workload/generators.h"

namespace perfbench {

using namespace gryphon;

namespace {

std::vector<std::uint32_t> region_order(std::uint32_t region) {
  return locality_permutation(kValuesPerAttribute, region);
}

}  // namespace

InputFactory::InputFactory(std::uint64_t seed, std::size_t payload_bytes)
    : seed_(seed), payload_bytes_(payload_bytes),
      base_(make_synthetic_schema(kAttributes, kValuesPerAttribute)) {
  std::vector<Attribute> attributes = base_->attributes();
  id_index_ = attributes.size();
  attributes.push_back(Attribute{"id", AttributeType::kInt, {}});
  if (payload_bytes_ > 0) attributes.push_back(Attribute{"payload", AttributeType::kString, {}});
  schema_ = make_schema("perfbench", std::move(attributes));
}

Rng InputFactory::stream(std::uint64_t label) const {
  std::uint64_t state = seed_ ^ (label * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(state));
}

Subscription InputFactory::subscription(Rng& rng, std::uint32_t region) const {
  const SubscriptionGenerator generator(base_, SubscriptionWorkloadConfig{0.98, kNonStarDecay, 1.0});
  const std::vector<std::uint32_t> order = region_order(region);
  std::vector<AttributeTest> tests = generator.generate(rng, &order).tests();
  tests.resize(schema_->attribute_count(), AttributeTest::dont_care());
  return Subscription(schema_, std::move(tests));
}

Subscription InputFactory::catch_all() const { return Subscription::match_all(schema_); }

Event InputFactory::event(Rng& rng, std::uint32_t region) const {
  const EventGenerator generator(base_);
  const std::vector<std::uint32_t> order = region_order(region);
  std::vector<Value> values = generator.generate(rng, &order).values();
  values.emplace_back(std::int64_t{0});
  if (payload_bytes_ > 0) {
    std::string payload(payload_bytes_, ' ');
    for (char& c : payload) c = static_cast<char>('a' + rng.below(26));
    values.emplace_back(std::move(payload));
  }
  return Event(schema_, std::move(values));
}

Event with_id(const Event& base, std::size_t id_index, std::uint32_t id) {
  Event event = base;
  event.set(id_index, Value(static_cast<std::int64_t>(id)));
  return event;
}

std::uint32_t event_id(const Event& event, std::size_t id_index) {
  return static_cast<std::uint32_t>(event.value(id_index).as_int());
}

std::optional<std::uint32_t> frame_event_id(std::span<const std::uint8_t> frame,
                                            std::size_t id_index) {
  // Fixed header bytes before the event's u32 length prefix (broker/wire.cpp).
  std::size_t header = 0;
  switch (wire::peek_type(frame)) {
    case wire::FrameType::kPublish: header = 1 + 2; break;
    case wire::FrameType::kEventForward: header = 1 + 4 + 2; break;
    case wire::FrameType::kDeliver: header = 1 + 8 + 2; break;
    default: return std::nullopt;
  }
  Decoder dec(frame.subspan(header + 4));
  dec.get_u16();  // value count
  for (std::size_t i = 0; i < id_index; ++i) dec.get_value();
  return static_cast<std::uint32_t>(dec.get_value().as_int());
}

}  // namespace perfbench
