// The factoring optimization (paper Section 2.1): index on the leading
// attributes, replicate don't-care subscriptions across buckets.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "matching/pst_matcher.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

TEST(FactoringIndex, EventKeyPicksFactoredValues) {
  const auto schema = make_synthetic_schema(4, 3);
  FactoringIndex index(schema, {0, 1});
  const Event e(schema, {Value(2), Value(1), Value(0), Value(0)});
  FactoringIndex::Key key;
  index.event_key_into(e, key);
  EXPECT_EQ(key, (FactoringIndex::Key{Value(2), Value(1)}));
  // A reused buffer is overwritten, not appended to.
  index.event_key_into(Event(schema, {Value(0), Value(2), Value(1), Value(1)}), key);
  EXPECT_EQ(key, (FactoringIndex::Key{Value(0), Value(2)}));
}

TEST(FactoringIndex, PinnedSubscriptionHasOneKey) {
  const auto schema = make_synthetic_schema(4, 3);
  FactoringIndex index(schema, {0, 1});
  std::vector<AttributeTest> tests(4);
  tests[0] = AttributeTest::equals(Value(1));
  tests[1] = AttributeTest::equals(Value(2));
  const auto keys = index.subscription_keys(Subscription(schema, tests));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (FactoringIndex::Key{Value(1), Value(2)}));
}

TEST(FactoringIndex, DontCareReplicatesAcrossDomain) {
  const auto schema = make_synthetic_schema(4, 3);
  FactoringIndex index(schema, {0, 1});
  std::vector<AttributeTest> tests(4);
  tests[0] = AttributeTest::equals(Value(1));
  // a2 is don't-care: replicate over its 3 domain values.
  EXPECT_EQ(index.subscription_keys(Subscription(schema, tests)).size(), 3u);
  // Both factored attributes don't-care: full cartesian product.
  EXPECT_EQ(index.subscription_keys(Subscription::match_all(schema)).size(), 9u);
}

TEST(FactoringIndex, RangeTestEnumeratesMatchingValues) {
  const auto schema = make_synthetic_schema(4, 3);
  FactoringIndex index(schema, {0});
  std::vector<AttributeTest> tests(4);
  tests[0] = AttributeTest::greater_than(Value(0));  // accepts 1, 2
  const auto keys = index.subscription_keys(Subscription(schema, tests));
  EXPECT_EQ(keys.size(), 2u);
}

TEST(FactoringIndex, RequiresFiniteDomain) {
  const auto schema = make_schema("s", {Attribute{"open", AttributeType::kString, {}}});
  EXPECT_THROW(FactoringIndex(schema, {0}), std::invalid_argument);
}

TEST(PstMatcherFactoring, ProbeCostDropsWithFactoring) {
  const auto schema = make_synthetic_schema(10, 5);
  Rng rng(11);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  EventGenerator events(schema);

  PstMatcherOptions flat_options;
  PstMatcherOptions factored_options;
  factored_options.factoring_levels = 2;
  PstMatcher flat(schema, flat_options);
  PstMatcher factored(schema, factored_options);
  for (std::int64_t i = 0; i < 1000; ++i) {
    const auto s = gen.generate(rng);
    flat.add(SubscriptionId{i}, s);
    factored.add(SubscriptionId{i}, s);
  }

  MatchStats flat_stats, factored_stats;
  std::vector<SubscriptionId> a, b;
  for (int i = 0; i < 100; ++i) {
    const Event e = events.generate(rng);
    a.clear();
    b.clear();
    flat.match_into(e, a, &flat_stats);
    factored.match_into(e, b, &factored_stats);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
  EXPECT_LT(factored_stats.nodes_visited, flat_stats.nodes_visited);
}

TEST(PstMatcherFactoring, BucketTreesReportedOnAdd) {
  const auto schema = make_synthetic_schema(3, 2);
  PstMatcherOptions options;
  options.factoring_levels = 1;
  PstMatcher matcher(schema, options);

  std::vector<AttributeTest> pinned(3);
  pinned[0] = AttributeTest::equals(Value(0));
  auto touched = matcher.add_with_result(
      SubscriptionId{1}, std::make_shared<const Subscription>(Subscription(schema, pinned)));
  ASSERT_EQ(touched.size(), 1u);
  EXPECT_TRUE(touched[0].tree_created);
  EXPECT_EQ(matcher.tree_count(), 1u);

  // A don't-care subscription reuses bucket 0 and creates bucket 1.
  auto touched2 = matcher.add_with_result(
      SubscriptionId{2}, std::make_shared<const Subscription>(Subscription::match_all(schema)));
  ASSERT_EQ(touched2.size(), 2u);
  EXPECT_EQ(matcher.tree_count(), 2u);
  const int created = static_cast<int>(touched2[0].tree_created) +
                      static_cast<int>(touched2[1].tree_created);
  EXPECT_EQ(created, 1);
}

TEST(PstMatcherFactoring, EventInEmptyBucketMatchesNothing) {
  const auto schema = make_synthetic_schema(3, 2);
  PstMatcherOptions options;
  options.factoring_levels = 1;
  PstMatcher matcher(schema, options);
  std::vector<AttributeTest> pinned(3);
  pinned[0] = AttributeTest::equals(Value(0));
  matcher.add(SubscriptionId{1}, Subscription(schema, pinned));

  EXPECT_EQ(matcher.tree_for_event(Event(schema, {Value(1), Value(0), Value(0)})), nullptr);
  std::vector<SubscriptionId> out;
  matcher.match_into(Event(schema, {Value(1), Value(0), Value(0)}), out);
  EXPECT_TRUE(out.empty());
}

TEST(PstMatcherFactoring, RemoveCleansAllReplicas) {
  const auto schema = make_synthetic_schema(3, 3);
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(schema, options);
  matcher.add(SubscriptionId{1}, Subscription::match_all(schema));
  EXPECT_EQ(matcher.tree_count(), 9u);
  const auto touched = matcher.remove_with_result(SubscriptionId{1});
  EXPECT_EQ(touched.size(), 9u);
  std::vector<SubscriptionId> out;
  matcher.match_into(Event(schema, {Value(0), Value(1), Value(2)}), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(matcher.subscription_count(), 0u);
}

TEST(PstMatcherFactoring, FactoringLevelsBounds) {
  const auto schema = make_synthetic_schema(3, 3);
  PstMatcherOptions options;
  options.factoring_levels = 4;
  EXPECT_THROW(PstMatcher(schema, options), std::invalid_argument);
}

TEST(PstMatcherFactoring, FullyFactoredTreeStillMatches) {
  // factoring_levels == attribute_count: the residual trees are pure leaf
  // buckets (order is empty).
  const auto schema = make_synthetic_schema(2, 2);
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(schema, options);
  std::vector<AttributeTest> tests(2);
  tests[0] = AttributeTest::equals(Value(1));
  matcher.add(SubscriptionId{5}, Subscription(schema, tests));
  std::vector<SubscriptionId> out;
  matcher.match_into(Event(schema, {Value(1), Value(0)}), out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{SubscriptionId{5}}));
  out.clear();
  matcher.match_into(Event(schema, {Value(0), Value(0)}), out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace gryphon
