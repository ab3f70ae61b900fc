#include "event/subscription.h"

#include <sstream>
#include <stdexcept>

namespace gryphon {

AttributeTest AttributeTest::equals(Value v) {
  AttributeTest t;
  t.kind_ = TestKind::kEquals;
  t.operand_ = std::move(v);
  return t;
}

AttributeTest AttributeTest::not_equals(Value v) {
  AttributeTest t;
  t.kind_ = TestKind::kNotEquals;
  t.operand_ = std::move(v);
  return t;
}

AttributeTest AttributeTest::less_than(Value v, bool inclusive) {
  return range(std::nullopt, std::move(v), true, inclusive);
}

AttributeTest AttributeTest::greater_than(Value v, bool inclusive) {
  return range(std::move(v), std::nullopt, inclusive, true);
}

AttributeTest AttributeTest::between(Value lo, Value hi, bool lo_inclusive, bool hi_inclusive) {
  return range(std::move(lo), std::move(hi), lo_inclusive, hi_inclusive);
}

AttributeTest AttributeTest::range(std::optional<Value> lo, std::optional<Value> hi,
                                   bool lo_inclusive, bool hi_inclusive) {
  AttributeTest t;
  t.kind_ = TestKind::kRange;
  if (lo || hi) t.bounds_ = std::make_shared<const Bounds>(Bounds{std::move(lo), std::move(hi)});
  t.lo_inclusive_ = lo_inclusive;
  t.hi_inclusive_ = hi_inclusive;
  return t;
}

bool AttributeTest::accepts(const Value& v) const {
  switch (kind_) {
    case TestKind::kDontCare:
      return true;
    case TestKind::kEquals:
      return v == operand_;
    case TestKind::kNotEquals:
      return v != operand_;
    case TestKind::kRange: {
      if (const Value* lo = this->lo()) {
        if (lo_inclusive_ ? v < *lo : v <= *lo) return false;
      }
      if (const Value* hi = this->hi()) {
        if (hi_inclusive_ ? v > *hi : v >= *hi) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {
// Two optional bounds are equal when both are open or both hold equal values.
bool same_bound(const Value* a, const Value* b) {
  return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}
}  // namespace

bool operator==(const AttributeTest& a, const AttributeTest& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case TestKind::kDontCare: return true;
    case TestKind::kEquals:
    case TestKind::kNotEquals: return a.operand_ == b.operand_;
    case TestKind::kRange:
      // Inclusivity of an absent bound is meaningless; ignore it.
      return same_bound(a.lo(), b.lo()) && same_bound(a.hi(), b.hi()) &&
             (a.lo() == nullptr || a.lo_inclusive_ == b.lo_inclusive_) &&
             (a.hi() == nullptr || a.hi_inclusive_ == b.hi_inclusive_);
  }
  return false;
}

std::string AttributeTest::to_text(const std::string& attribute_name) const {
  std::ostringstream os;
  switch (kind_) {
    case TestKind::kDontCare:
      os << attribute_name << " = *";
      break;
    case TestKind::kEquals:
      os << attribute_name << " = " << operand_.to_text();
      break;
    case TestKind::kNotEquals:
      os << attribute_name << " != " << operand_.to_text();
      break;
    case TestKind::kRange: {
      // Emit the conjunction form so the output re-parses (see parser.h).
      const Value* lo = this->lo();
      const Value* hi = this->hi();
      if (lo && hi) {
        os << attribute_name << (lo_inclusive_ ? " >= " : " > ") << lo->to_text() << " & "
           << attribute_name << (hi_inclusive_ ? " <= " : " < ") << hi->to_text();
      } else if (lo) {
        os << attribute_name << (lo_inclusive_ ? " >= " : " > ") << lo->to_text();
      } else if (hi) {
        os << attribute_name << (hi_inclusive_ ? " <= " : " < ") << hi->to_text();
      } else {
        os << attribute_name << " = *";
      }
      break;
    }
  }
  return os.str();
}

std::size_t AttributeTest::heap_bytes() const {
  std::size_t bytes = operand_.heap_bytes();
  if (bounds_ != nullptr) {
    bytes += sizeof(Bounds);
    if (bounds_->lo) bytes += bounds_->lo->heap_bytes();
    if (bounds_->hi) bytes += bounds_->hi->heap_bytes();
  }
  return bytes;
}

namespace {
void validate_test(const EventSchema& schema, std::size_t index, const AttributeTest& test) {
  const Attribute& attr = schema.attribute(index);
  const auto check = [&](const Value& v) {
    if (!v.matches_type(attr.type)) {
      throw std::invalid_argument("Subscription: operand " + v.to_text() +
                                  " has wrong type for attribute '" + attr.name + "'");
    }
  };
  switch (test.kind()) {
    case TestKind::kDontCare:
      break;
    case TestKind::kEquals:
    case TestKind::kNotEquals:
      check(test.operand());
      if (attr.has_finite_domain() && !schema.accepts(index, test.operand())) {
        throw std::invalid_argument("Subscription: operand " + test.operand().to_text() +
                                    " outside the domain of '" + attr.name + "'");
      }
      break;
    case TestKind::kRange:
      if (!test.lo() && !test.hi()) {
        throw std::invalid_argument("Subscription: unbounded range test on '" + attr.name + "'");
      }
      if (attr.type == AttributeType::kBool) {
        throw std::invalid_argument("Subscription: range test on bool attribute '" + attr.name +
                                    "'");
      }
      if (test.lo()) check(*test.lo());
      if (test.hi()) check(*test.hi());
      if (test.lo() && test.hi() && *test.hi() < *test.lo()) {
        throw std::invalid_argument("Subscription: empty range on '" + attr.name + "'");
      }
      break;
  }
}
}  // namespace

Subscription::Subscription(SchemaPtr schema, std::vector<AttributeTest> tests)
    : schema_(std::move(schema)), tests_(std::move(tests)) {
  if (!schema_) throw std::invalid_argument("Subscription: null schema");
  if (tests_.size() != schema_->attribute_count()) {
    throw std::invalid_argument("Subscription: arity mismatch for schema '" + schema_->name() +
                                "'");
  }
  for (std::size_t i = 0; i < tests_.size(); ++i) validate_test(*schema_, i, tests_[i]);
  // Immutable from here on, and held for the subscription's lifetime: a
  // builder's spare capacity (e.g. a vector grown by resize) would be
  // resident for as long.
  tests_.shrink_to_fit();
}

Subscription Subscription::match_all(SchemaPtr schema) {
  std::vector<AttributeTest> tests(schema->attribute_count());
  return Subscription(std::move(schema), std::move(tests));
}

std::size_t Subscription::specific_test_count() const {
  std::size_t n = 0;
  for (const AttributeTest& t : tests_) {
    if (!t.is_dont_care()) ++n;
  }
  return n;
}

bool Subscription::matches(const Event& event) const {
  for (std::size_t i = 0; i < tests_.size(); ++i) {
    if (!tests_[i].accepts(event.value(i))) return false;
  }
  return true;
}

bool Subscription::equality_only() const {
  for (const AttributeTest& t : tests_) {
    if (t.kind() != TestKind::kDontCare && t.kind() != TestKind::kEquals) return false;
  }
  return true;
}

std::size_t Subscription::memory_bytes() const {
  std::size_t bytes = sizeof(Subscription) + tests_.capacity() * sizeof(AttributeTest);
  for (const AttributeTest& t : tests_) bytes += t.heap_bytes();
  return bytes;
}

std::string Subscription::to_text() const {
  std::ostringstream os;
  os << '(';
  bool first = true;
  bool any = false;
  for (std::size_t i = 0; i < tests_.size(); ++i) {
    if (tests_[i].is_dont_care()) continue;
    if (!first) os << " & ";
    os << tests_[i].to_text(schema_->attribute(i).name);
    first = false;
    any = true;
  }
  if (!any) os << "*";
  os << ')';
  return os.str();
}

}  // namespace gryphon
