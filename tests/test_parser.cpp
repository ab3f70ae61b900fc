#include "event/parser.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gryphon {
namespace {

SchemaPtr stock_schema() {
  return make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                                Attribute{"price", AttributeType::kDouble, {}},
                                Attribute{"volume", AttributeType::kInt, {}},
                                Attribute{"urgent", AttributeType::kBool, {}}});
}

Event trade(const SchemaPtr& schema, const char* issue, double price, int volume,
            bool urgent = false) {
  return Event(schema, {Value(issue), Value(price), Value(volume), Value(urgent)});
}

TEST(Parser, PaperExample) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "issue=\"IBM\" & price < 120 & volume > 1000");
  EXPECT_TRUE(sub.matches(trade(schema, "IBM", 119.0, 1500)));
  EXPECT_FALSE(sub.matches(trade(schema, "IBM", 121.0, 1500)));
  EXPECT_FALSE(sub.matches(trade(schema, "SUN", 119.0, 1500)));
  EXPECT_FALSE(sub.matches(trade(schema, "IBM", 119.0, 999)));
}

TEST(Parser, SingleQuotesAndDoubleAmp) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "issue='HP' && volume >= 10");
  EXPECT_TRUE(sub.matches(trade(schema, "HP", 1.0, 10)));
  EXPECT_FALSE(sub.matches(trade(schema, "HP", 1.0, 9)));
}

TEST(Parser, AndKeyword) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "price <= 5 and volume != 3");
  EXPECT_TRUE(sub.matches(trade(schema, "X", 5.0, 4)));
  EXPECT_FALSE(sub.matches(trade(schema, "X", 5.0, 3)));
  EXPECT_FALSE(sub.matches(trade(schema, "X", 5.5, 4)));
}

TEST(Parser, DoubleEqualsAccepted) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "issue == \"IBM\"");
  EXPECT_TRUE(sub.matches(trade(schema, "IBM", 0.0, 0)));
}

TEST(Parser, BoolLiterals) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "urgent = true");
  EXPECT_TRUE(sub.matches(trade(schema, "A", 1.0, 1, true)));
  EXPECT_FALSE(sub.matches(trade(schema, "A", 1.0, 1, false)));
}

TEST(Parser, IntervalFolding) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "price > 100 & price <= 120");
  const auto& test = sub.test(1);
  EXPECT_EQ(test.kind(), TestKind::kRange);
  ASSERT_NE(test.lo(), nullptr);
  ASSERT_NE(test.hi(), nullptr);
  EXPECT_DOUBLE_EQ(test.lo()->as_double(), 100.0);
  EXPECT_DOUBLE_EQ(test.hi()->as_double(), 120.0);
  EXPECT_FALSE(test.lo_inclusive());
  EXPECT_TRUE(test.hi_inclusive());
  EXPECT_TRUE(sub.matches(trade(schema, "A", 120.0, 0)));
  EXPECT_FALSE(sub.matches(trade(schema, "A", 100.0, 0)));
}

TEST(Parser, TighterBoundWins) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "volume < 100 & volume < 50");
  EXPECT_TRUE(sub.matches(trade(schema, "A", 0.0, 49)));
  EXPECT_FALSE(sub.matches(trade(schema, "A", 0.0, 50)));
}

TEST(Parser, ContradictoryRangeThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_subscription(schema, "price > 120 & price < 100"), std::invalid_argument);
}

TEST(Parser, ContradictoryEqualityThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_subscription(schema, "volume = 1 & volume = 2"), std::invalid_argument);
  EXPECT_THROW(parse_subscription(schema, "volume = 5 & volume != 5"), std::invalid_argument);
  EXPECT_THROW(parse_subscription(schema, "volume = 5 & volume > 10"), std::invalid_argument);
}

TEST(Parser, EqualityConsistentWithBoundsReduces) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "volume = 5 & volume < 10");
  EXPECT_EQ(sub.test(2).kind(), TestKind::kEquals);
  EXPECT_TRUE(sub.matches(trade(schema, "A", 0.0, 5)));
}

TEST(Parser, EmptyPredicateIsMatchAll) {
  const auto schema = stock_schema();
  EXPECT_TRUE(parse_subscription(schema, "").matches(trade(schema, "Z", 9.0, 9)));
  EXPECT_TRUE(parse_subscription(schema, "all").matches(trade(schema, "Z", 9.0, 9)));
}

TEST(Parser, UnknownAttributeThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_subscription(schema, "ghost = 1"), std::invalid_argument);
}

TEST(Parser, TypeMismatchThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_subscription(schema, "issue = 42"), std::invalid_argument);
  EXPECT_THROW(parse_subscription(schema, "volume = \"x\""), std::invalid_argument);
  EXPECT_THROW(parse_subscription(schema, "volume = 1.5"), std::invalid_argument);
}

TEST(Parser, SyntaxErrors) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_subscription(schema, "issue"), ParseError);
  EXPECT_THROW(parse_subscription(schema, "issue = "), ParseError);
  EXPECT_THROW(parse_subscription(schema, "issue = \"unterminated"), ParseError);
  EXPECT_THROW(parse_subscription(schema, "price < 1 volume > 2"), ParseError);
  EXPECT_THROW(parse_subscription(schema, "price # 1"), ParseError);
}

TEST(Parser, NegativeNumbers) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "volume > -5");
  EXPECT_TRUE(sub.matches(trade(schema, "A", 0.0, -4)));
  EXPECT_FALSE(sub.matches(trade(schema, "A", 0.0, -5)));
}

TEST(Parser, ScientificNotationForDoubles) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "price < 1.2e2");
  EXPECT_TRUE(sub.matches(trade(schema, "A", 119.0, 0)));
  EXPECT_FALSE(sub.matches(trade(schema, "A", 121.0, 0)));
}

TEST(Parser, OuterParenthesesTolerated) {
  const auto schema = stock_schema();
  const auto sub = parse_subscription(schema, "(issue = \"IBM\" & volume > 1)");
  EXPECT_TRUE(sub.matches(trade(schema, "IBM", 0.0, 2)));
}

TEST(ParseEvent, RoundTrip) {
  const auto schema = stock_schema();
  const auto e = parse_event(schema, R"({issue: "IBM", price: 119.5, volume: 3000,
                                         urgent: false})");
  EXPECT_EQ(e.value(0).as_string(), "IBM");
  EXPECT_DOUBLE_EQ(e.value(1).as_double(), 119.5);
  EXPECT_EQ(e.value(2).as_int(), 3000);
  EXPECT_FALSE(e.value(3).as_bool());
}

TEST(ParseEvent, AttributesInAnyOrder) {
  const auto schema = stock_schema();
  const auto e =
      parse_event(schema, "{volume: 1, urgent: true, price: 2.0, issue: 'A'}");
  EXPECT_EQ(e.value(0).as_string(), "A");
  EXPECT_TRUE(e.value(3).as_bool());
}

TEST(ParseEvent, MissingAttributeThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_event(schema, "{issue: 'A'}"), std::invalid_argument);
}

TEST(ParseEvent, DuplicateAttributeThrows) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_event(schema, "{issue: 'A', issue: 'B', price: 1.0, volume: 1, urgent: true}"),
               std::invalid_argument);
}

TEST(ParseEvent, IntLiteralForDoubleAttribute) {
  const auto schema = stock_schema();
  const auto e = parse_event(schema, "{issue: 'A', price: 5, volume: 1, urgent: false}");
  EXPECT_TRUE(e.value(1).is_double());
  EXPECT_DOUBLE_EQ(e.value(1).as_double(), 5.0);
}


TEST(ParseDisjunction, SingleArmEqualsPlainParse) {
  const auto schema = stock_schema();
  const auto subs = parse_disjunction(schema, "issue = \"IBM\" & price < 120");
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0] == parse_subscription(schema, "issue = \"IBM\" & price < 120"));
}

TEST(ParseDisjunction, PipeSplitsArms) {
  const auto schema = stock_schema();
  const auto subs = parse_disjunction(schema, "issue = \"IBM\" | volume > 50000");
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_TRUE(subs[0].matches(trade(schema, "IBM", 1.0, 1)));
  EXPECT_FALSE(subs[0].matches(trade(schema, "HP", 1.0, 1)));
  EXPECT_TRUE(subs[1].matches(trade(schema, "HP", 1.0, 60000)));
}

TEST(ParseDisjunction, DoublePipeAndOrKeyword) {
  const auto schema = stock_schema();
  EXPECT_EQ(parse_disjunction(schema, "price > 1 || price < 0").size(), 2u);
  EXPECT_EQ(parse_disjunction(schema, "price > 1 or volume > 2 OR urgent = true").size(), 3u);
}

TEST(ParseDisjunction, PipeInsideStringIsLiteral) {
  const auto schema = stock_schema();
  const auto subs = parse_disjunction(schema, "issue = \"A|B\"");
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0].matches(trade(schema, "A|B", 1.0, 1)));
}

TEST(ParseDisjunction, OrInsideIdentifierNotSplit) {
  const auto schema = make_schema(
      "s", {Attribute{"order_id", AttributeType::kInt, {}}});
  const auto subs = parse_disjunction(schema, "order_id = 5");
  ASSERT_EQ(subs.size(), 1u);
}

TEST(ParseDisjunction, EmptyArmRejected) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_disjunction(schema, "price > 1 |"), ParseError);
  EXPECT_THROW(parse_disjunction(schema, "| price > 1"), ParseError);
  EXPECT_THROW(parse_disjunction(schema, "price > 1 | | volume > 2"), ParseError);
}

TEST(ParseDisjunction, ArmsValidatedIndependently) {
  const auto schema = stock_schema();
  EXPECT_THROW(parse_disjunction(schema, "price > 1 | ghost = 2"), std::invalid_argument);
}


TEST(Parser, StarFormsAreMatchAll) {
  const auto schema = stock_schema();
  EXPECT_TRUE(parse_subscription(schema, "*").matches(trade(schema, "Z", 9.0, 9)));
  EXPECT_TRUE(parse_subscription(schema, "(*)").matches(trade(schema, "Z", 9.0, 9)));
}

TEST(Parser, SubscriptionTextRoundTrips) {
  // to_text() emits predicate text the parser accepts, reproducing the
  // original subscription exactly — including two-sided ranges.
  const auto schema = stock_schema();
  const char* predicates[] = {
      "",
      "issue = \"IBM\"",
      "issue != 'HP' & volume >= 7",
      "price > 100 & price <= 120",
      "price >= 1.5 & price < 2.5 & urgent = true",
      "volume > -10 & volume < 10 & issue = \"A|B\"",
  };
  for (const char* text : predicates) {
    const Subscription original = parse_subscription(schema, text);
    const Subscription reparsed = parse_subscription(schema, original.to_text());
    EXPECT_TRUE(original == reparsed) << text << " -> " << original.to_text();
  }
}

TEST(Parser, RandomizedSubscriptionTextRoundTrips) {
  const auto schema = stock_schema();
  Rng rng(314159);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<AttributeTest> tests(4);
    if (rng.chance(0.6)) {
      tests[0] = rng.chance(0.8)
                     ? AttributeTest::equals(Value("S" + std::to_string(rng.below(20))))
                     : AttributeTest::not_equals(Value("S" + std::to_string(rng.below(20))));
    }
    if (rng.chance(0.6)) {
      const double lo = static_cast<double>(rng.between(-50, 50));
      if (rng.chance(0.5)) {
        tests[1] = AttributeTest::between(Value(lo), Value(lo + 10.0), rng.chance(0.5),
                                          rng.chance(0.5));
      } else {
        tests[1] = rng.chance(0.5) ? AttributeTest::greater_than(Value(lo), rng.chance(0.5))
                                   : AttributeTest::less_than(Value(lo), rng.chance(0.5));
      }
    }
    if (rng.chance(0.5)) {
      tests[2] = AttributeTest::equals(Value(static_cast<int>(rng.below(1000))));
    }
    if (rng.chance(0.3)) tests[3] = AttributeTest::equals(Value(rng.chance(0.5)));
    const Subscription original(schema, tests);
    const Subscription reparsed = parse_subscription(schema, original.to_text());
    ASSERT_TRUE(original == reparsed) << original.to_text();
  }
}

}  // namespace
}  // namespace gryphon
