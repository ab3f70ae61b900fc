#include "event/codec.h"

#include <cstring>

namespace gryphon {

namespace {
enum ValueTag : std::uint8_t {
  kTagUnset = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagString = 3,
  kTagBool = 4,
};
}  // namespace

void Encoder::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void Encoder::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Encoder::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void Encoder::put_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void Encoder::put_string(std::string_view v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Encoder::put_bytes(std::span<const std::uint8_t> v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Encoder::put_value(const Value& v) {
  if (!v.is_set()) {
    put_u8(kTagUnset);
  } else if (v.is_int()) {
    put_u8(kTagInt);
    put_i64(v.as_int());
  } else if (v.is_double()) {
    put_u8(kTagDouble);
    put_f64(v.as_double());
  } else if (v.is_string()) {
    put_u8(kTagString);
    put_string(v.as_string());
  } else {
    put_u8(kTagBool);
    put_u8(v.as_bool() ? 1 : 0);
  }
}

void Encoder::put_event(const Event& e) {
  put_u16(static_cast<std::uint16_t>(e.size()));
  for (std::size_t i = 0; i < e.size(); ++i) put_value(e.value(i));
}

void Encoder::put_test(const AttributeTest& t) {
  put_u8(static_cast<std::uint8_t>(t.kind()));
  switch (t.kind()) {
    case TestKind::kDontCare:
      break;
    case TestKind::kEquals:
    case TestKind::kNotEquals:
      put_value(t.operand());
      break;
    case TestKind::kRange: {
      std::uint8_t flags = 0;
      if (t.lo()) flags |= 1;
      if (t.hi()) flags |= 2;
      if (t.lo_inclusive()) flags |= 4;
      if (t.hi_inclusive()) flags |= 8;
      put_u8(flags);
      if (t.lo()) put_value(*t.lo());
      if (t.hi()) put_value(*t.hi());
      break;
    }
  }
}

void Encoder::put_subscription(const Subscription& s) {
  put_u16(static_cast<std::uint16_t>(s.tests().size()));
  for (const AttributeTest& t : s.tests()) put_test(t);
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) throw CodecError("decode past end of buffer");
}

std::uint8_t Decoder::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Decoder::get_u16() {
  const auto lo = get_u8();
  const auto hi = get_u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t Decoder::get_u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(get_u8()) << (8 * i);
  return v;
}

std::uint64_t Decoder::get_u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(get_u8()) << (8 * i);
  return v;
}

std::int64_t Decoder::get_i64() { return static_cast<std::int64_t>(get_u64()); }

double Decoder::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::get_string() {
  const std::uint32_t n = get_u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> Decoder::get_bytes() {
  const std::uint32_t n = get_u32();
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Value Decoder::get_value() {
  switch (get_u8()) {
    case kTagUnset: return Value();
    case kTagInt: return Value(get_i64());
    case kTagDouble: return Value(get_f64());
    case kTagString: return Value(get_string());
    case kTagBool: return Value(get_u8() != 0);
    default: throw CodecError("bad value tag");
  }
}

Event Decoder::get_event(const SchemaPtr& schema) {
  const std::uint16_t n = get_u16();
  if (n != schema->attribute_count()) throw CodecError("event arity mismatch with schema");
  std::vector<Value> values;
  values.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) values.push_back(get_value());
  return Event(schema, std::move(values));
}

AttributeTest Decoder::get_test() {
  const auto kind = get_u8();
  if (kind > static_cast<std::uint8_t>(TestKind::kRange)) throw CodecError("bad test kind");
  switch (static_cast<TestKind>(kind)) {
    case TestKind::kDontCare:
      break;
    case TestKind::kEquals:
      return AttributeTest::equals(get_value());
    case TestKind::kNotEquals:
      return AttributeTest::not_equals(get_value());
    case TestKind::kRange: {
      const std::uint8_t flags = get_u8();
      std::optional<Value> lo;
      std::optional<Value> hi;
      if (flags & 1) lo = get_value();
      if (flags & 2) hi = get_value();
      return AttributeTest::range(std::move(lo), std::move(hi), (flags & 4) != 0,
                                  (flags & 8) != 0);
    }
  }
  return AttributeTest::dont_care();
}

Subscription Decoder::get_subscription(const SchemaPtr& schema) {
  const std::uint16_t n = get_u16();
  if (n != schema->attribute_count()) throw CodecError("subscription arity mismatch with schema");
  std::vector<AttributeTest> tests;
  tests.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) tests.push_back(get_test());
  return Subscription(schema, std::move(tests));
}

std::vector<std::uint8_t> encode_event(const Event& e) {
  Encoder enc;
  enc.put_event(e);
  return enc.take();
}

Event decode_event(const SchemaPtr& schema, std::span<const std::uint8_t> data) {
  Decoder dec(data);
  return dec.get_event(schema);
}

std::vector<std::uint8_t> encode_subscription(const Subscription& s) {
  Encoder enc;
  enc.put_subscription(s);
  return enc.take();
}

Subscription decode_subscription(const SchemaPtr& schema, std::span<const std::uint8_t> data) {
  Decoder dec(data);
  return dec.get_subscription(schema);
}

}  // namespace gryphon
