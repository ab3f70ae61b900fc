#include "event/subscription.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "event/codec.h"
#include "event/parser.h"
#include "matching/covering_index.h"

namespace gryphon {
namespace {

SchemaPtr stock_schema() {
  return make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                Attribute{"price", AttributeType::kDouble, {}},
                                Attribute{"volume", AttributeType::kInt, {}}});
}

Event trade(const SchemaPtr& schema, const char* issue, double price, int volume) {
  return Event(schema, {Value(issue), Value(price), Value(volume)});
}

TEST(AttributeTest, DontCareAcceptsEverything) {
  const auto t = AttributeTest::dont_care();
  EXPECT_TRUE(t.accepts(Value(1)));
  EXPECT_TRUE(t.accepts(Value("x")));
  EXPECT_TRUE(t.is_dont_care());
}

TEST(AttributeTest, Equals) {
  const auto t = AttributeTest::equals(Value(5));
  EXPECT_TRUE(t.accepts(Value(5)));
  EXPECT_FALSE(t.accepts(Value(6)));
}

TEST(AttributeTest, NotEquals) {
  const auto t = AttributeTest::not_equals(Value("IBM"));
  EXPECT_FALSE(t.accepts(Value("IBM")));
  EXPECT_TRUE(t.accepts(Value("HP")));
}

TEST(AttributeTest, OpenRanges) {
  const auto lt = AttributeTest::less_than(Value(120.0));
  EXPECT_TRUE(lt.accepts(Value(119.9)));
  EXPECT_FALSE(lt.accepts(Value(120.0)));
  EXPECT_FALSE(lt.accepts(Value(121.0)));

  const auto le = AttributeTest::less_than(Value(120.0), /*inclusive=*/true);
  EXPECT_TRUE(le.accepts(Value(120.0)));

  const auto gt = AttributeTest::greater_than(Value(1000));
  EXPECT_FALSE(gt.accepts(Value(1000)));
  EXPECT_TRUE(gt.accepts(Value(1001)));

  const auto ge = AttributeTest::greater_than(Value(1000), /*inclusive=*/true);
  EXPECT_TRUE(ge.accepts(Value(1000)));
}

TEST(AttributeTest, ClosedRange) {
  const auto t = AttributeTest::between(Value(10), Value(20));
  EXPECT_TRUE(t.accepts(Value(10)));
  EXPECT_TRUE(t.accepts(Value(15)));
  EXPECT_TRUE(t.accepts(Value(20)));
  EXPECT_FALSE(t.accepts(Value(9)));
  EXPECT_FALSE(t.accepts(Value(21)));

  const auto open = AttributeTest::between(Value(10), Value(20), false, false);
  EXPECT_FALSE(open.accepts(Value(10)));
  EXPECT_FALSE(open.accepts(Value(20)));
  EXPECT_TRUE(open.accepts(Value(11)));
}

TEST(AttributeTest, StructuralEquality) {
  EXPECT_EQ(AttributeTest::equals(Value(1)), AttributeTest::equals(Value(1)));
  EXPECT_FALSE(AttributeTest::equals(Value(1)) == AttributeTest::equals(Value(2)));
  EXPECT_FALSE(AttributeTest::equals(Value(1)) == AttributeTest::not_equals(Value(1)));
  EXPECT_EQ(AttributeTest::between(Value(1), Value(2)), AttributeTest::between(Value(1), Value(2)));
  EXPECT_FALSE(AttributeTest::between(Value(1), Value(2)) ==
               AttributeTest::between(Value(1), Value(2), false));
  EXPECT_EQ(AttributeTest::dont_care(), AttributeTest::dont_care());
}

TEST(Subscription, PaperExamplePredicate) {
  // (issue="IBM" & price < 120 & volume > 1000), from the paper's Section 1.
  const auto schema = stock_schema();
  const Subscription sub(schema, {AttributeTest::equals(Value("IBM")),
                                  AttributeTest::less_than(Value(120.0)),
                                  AttributeTest::greater_than(Value(1000))});
  EXPECT_TRUE(sub.matches(trade(schema, "IBM", 119.0, 3000)));
  EXPECT_FALSE(sub.matches(trade(schema, "HP", 119.0, 3000)));
  EXPECT_FALSE(sub.matches(trade(schema, "IBM", 120.0, 3000)));
  EXPECT_FALSE(sub.matches(trade(schema, "IBM", 119.0, 1000)));
  EXPECT_EQ(sub.specific_test_count(), 3u);
  EXPECT_FALSE(sub.equality_only());
}

TEST(Subscription, MatchAll) {
  const auto schema = stock_schema();
  const auto sub = Subscription::match_all(schema);
  EXPECT_TRUE(sub.matches(trade(schema, "X", 0.0, 0)));
  EXPECT_EQ(sub.specific_test_count(), 0u);
  EXPECT_TRUE(sub.equality_only());
  EXPECT_EQ(sub.to_text(), "(*)");
}

TEST(Subscription, EqualityOnlyDetection) {
  const auto schema = stock_schema();
  const Subscription eq_only(schema, {AttributeTest::equals(Value("IBM")),
                                      AttributeTest::dont_care(), AttributeTest::dont_care()});
  EXPECT_TRUE(eq_only.equality_only());
  const Subscription with_range(schema, {AttributeTest::dont_care(),
                                         AttributeTest::less_than(Value(1.0)),
                                         AttributeTest::dont_care()});
  EXPECT_FALSE(with_range.equality_only());
}

TEST(Subscription, ArityMismatchThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(Subscription(schema, {AttributeTest::dont_care()}), std::invalid_argument);
}

TEST(Subscription, OperandTypeMismatchThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(Subscription(schema, {AttributeTest::equals(Value(1)),  // issue is string
                                     AttributeTest::dont_care(), AttributeTest::dont_care()}),
               std::invalid_argument);
}

TEST(Subscription, EmptyRangeThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(Subscription(schema, {AttributeTest::dont_care(),
                                     AttributeTest::between(Value(20.0), Value(10.0)),
                                     AttributeTest::dont_care()}),
               std::invalid_argument);
}

TEST(Subscription, UnboundedRangeThrows) {
  const auto schema = stock_schema();
  const AttributeTest t = AttributeTest::range(std::nullopt, std::nullopt);  // no bounds at all
  EXPECT_THROW(Subscription(schema, {AttributeTest::dont_care(), t, AttributeTest::dont_care()}),
               std::invalid_argument);
}

TEST(Subscription, RangeOnBoolThrows) {
  const auto schema = make_schema("s", {Attribute{"flag", AttributeType::kBool, {}}});
  EXPECT_THROW(Subscription(schema, {AttributeTest::greater_than(Value(true))}),
               std::invalid_argument);
}

TEST(Subscription, ToTextRendersTests) {
  const auto schema = stock_schema();
  const Subscription sub(schema, {AttributeTest::equals(Value("IBM")),
                                  AttributeTest::less_than(Value(120.0)),
                                  AttributeTest::dont_care()});
  EXPECT_EQ(sub.to_text(), "(issue = \"IBM\" & price < 120)");
}

TEST(Subscription, DomainEnforced) {
  const auto schema = make_synthetic_schema(2, 3);
  EXPECT_THROW(Subscription(schema, {AttributeTest::equals(Value(7)), AttributeTest::dont_care()}),
               std::invalid_argument);
}

// The compact layout: every kind and every range shape (each bound absent,
// inclusive or exclusive) survives the codec, to_text -> parser,
// operator== and copying, and accepts() and test_covers() agree with the
// tests' meaning on a grid that includes each bound, the values either side
// of it, and values outside every range.
struct TestCase {
  std::string name;
  AttributeTest test;
  // The meaning of the test, written independently of accepts().
  std::function<bool(double)> meaning;
};

std::vector<TestCase> every_test_shape() {
  std::vector<TestCase> cases{
      {"dont_care", AttributeTest::dont_care(), [](double) { return true; }},
      {"eq5", AttributeTest::equals(Value(5.0)), [](double v) { return v == 5.0; }},
      {"eq15", AttributeTest::equals(Value(15.0)), [](double v) { return v == 15.0; }},
      {"ne5", AttributeTest::not_equals(Value(5.0)), [](double v) { return v != 5.0; }},
      {"ne15", AttributeTest::not_equals(Value(15.0)), [](double v) { return v != 15.0; }},
      {"point15", AttributeTest::between(Value(15.0), Value(15.0)),
       [](double v) { return v == 15.0; }},
  };
  // Each bound absent, inclusive or exclusive; both absent is the
  // unbounded range, which accepts everything.
  using Bound = std::optional<bool>;  // inclusive?
  for (const Bound lo : {Bound{}, Bound{true}, Bound{false}}) {
    for (const Bound hi : {Bound{}, Bound{true}, Bound{false}}) {
      std::string name = "range";
      name += !lo ? "_open" : *lo ? "_ge10" : "_gt10";
      name += !hi ? "_open" : *hi ? "_le20" : "_lt20";
      cases.push_back({name,
                       AttributeTest::range(lo ? std::optional<Value>(10.0) : std::nullopt,
                                            hi ? std::optional<Value>(20.0) : std::nullopt,
                                            lo.value_or(true), hi.value_or(true)),
                       [lo, hi](double v) {
                         if (lo && (*lo ? v < 10.0 : v <= 10.0)) return false;
                         if (hi && (*hi ? v > 20.0 : v >= 20.0)) return false;
                         return true;
                       }});
    }
  }
  return cases;
}

const std::vector<double>& probe_grid() {
  static const std::vector<double> grid{-100, 0,    5,  9.5, 10, 10.5, 15,
                                        19.5, 20, 20.5, 25, 100};
  return grid;
}

TEST(AttributeTestLayout, CompactAndAllocationFreeForEqualityTests) {
  static_assert(sizeof(AttributeTest) <= 64);
  EXPECT_EQ(AttributeTest::dont_care().heap_bytes(), 0U);
  EXPECT_EQ(AttributeTest::equals(Value(5)).heap_bytes(), 0U);
  EXPECT_EQ(AttributeTest::not_equals(Value("IBM")).heap_bytes(), 0U);
  EXPECT_EQ(AttributeTest::dont_care().lo(), nullptr);
  EXPECT_EQ(AttributeTest::equals(Value(5)).hi(), nullptr);
  // A long string operand owns its buffer; a range owns its bound block,
  // and copies share it.
  EXPECT_GT(AttributeTest::equals(Value(std::string(100, 'x'))).heap_bytes(), 100U);
  const AttributeTest range = AttributeTest::between(Value(1), Value(9));
  EXPECT_GT(range.heap_bytes(), 0U);
  const std::vector<AttributeTest> copies{range, range};
  for (const AttributeTest& copy : copies) {
    EXPECT_EQ(copy.lo(), range.lo());
    EXPECT_EQ(copy.hi(), range.hi());
    EXPECT_EQ(copy, range);
  }
}

TEST(AttributeTestLayout, EveryKindAndRangeShapeRoundTrips) {
  const auto schema = make_schema("s", {Attribute{"x", AttributeType::kDouble, {}}});
  const std::vector<TestCase> cases = every_test_shape();
  for (const TestCase& c : cases) {
    SCOPED_TRACE(c.name);
    // accepts() against the written meaning.
    for (const double v : probe_grid()) {
      EXPECT_EQ(c.test.accepts(Value(v)), c.meaning(v)) << "at " << v;
    }
    // The codec: the decoded test is equal and re-encodes to the same
    // bytes (inclusivity flags of absent bounds included).
    Encoder enc;
    enc.put_test(c.test);
    Decoder dec(enc.buffer());
    const AttributeTest decoded = dec.get_test();
    EXPECT_EQ(decoded, c.test);
    Encoder again;
    again.put_test(decoded);
    EXPECT_EQ(again.buffer(), enc.buffer());
    // to_text -> parser, for every test a subscription may hold.
    const bool unbounded = c.test.kind() == TestKind::kRange && c.test.lo() == nullptr &&
                           c.test.hi() == nullptr;
    if (!unbounded) {
      const Subscription sub(schema, {c.test});
      const Subscription parsed = parse_subscription(schema, sub.to_text());
      EXPECT_EQ(parsed, sub) << sub.to_text();
      EXPECT_EQ(decode_subscription(schema, encode_subscription(sub)), sub);
    }
    for (const TestCase& other : cases) {
      // Every case has its own shape, so equality holds only on the diagonal.
      EXPECT_EQ(c.test == other.test, &other == &c) << "vs " << other.name;
      // Covering: a covers b exactly when a accepts everything b accepts.
      bool contains = true;
      for (const double v : probe_grid()) contains &= !other.meaning(v) || c.meaning(v);
      EXPECT_EQ(CoveringIndex::test_covers(c.test, other.test), contains)
          << c.name << " covers " << other.name;
    }
  }
}

}  // namespace
}  // namespace gryphon
