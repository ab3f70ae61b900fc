#include "workload/generators.h"

#include <gtest/gtest.h>

#include "common/zipf.h"

namespace gryphon {
namespace {

TEST(SubscriptionGenerator, RespectsSchema) {
  const auto schema = make_synthetic_schema(10, 5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{});
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto s = gen.generate(rng);
    EXPECT_EQ(s.tests().size(), 10u);
    EXPECT_TRUE(s.equality_only());
  }
}

TEST(SubscriptionGenerator, NonStarProbabilityDecays) {
  const auto schema = make_synthetic_schema(10, 5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  Rng rng(42);
  std::vector<int> non_star(10, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = gen.generate(rng);
    for (std::size_t a = 0; a < 10; ++a) {
      if (!s.test(a).is_dont_care()) ++non_star[a];
    }
  }
  // First attribute: ~0.98; attribute i: 0.98 * 0.85^i.
  double expected = 0.98;
  for (std::size_t a = 0; a < 10; ++a) {
    EXPECT_NEAR(static_cast<double>(non_star[a]) / n, expected, 0.02) << "attribute " << a;
    expected *= 0.85;
  }
}

TEST(SubscriptionGenerator, ValuesAreZipfSkewed) {
  const auto schema = make_synthetic_schema(1, 5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{1.0, 1.0, 1.0});
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto s = gen.generate(rng);
    ASSERT_EQ(s.test(0).kind(), TestKind::kEquals);
    ++counts[static_cast<std::size_t>(s.test(0).operand().as_int())];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[4]);
}

TEST(SubscriptionGenerator, LocalityPermutationShiftsHotValue) {
  const auto schema = make_synthetic_schema(1, 5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{1.0, 1.0, 1.0});
  const auto perm1 = locality_permutation(5, 1);
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto s = gen.generate(rng, &perm1);
    ++counts[static_cast<std::size_t>(s.test(0).operand().as_int())];
  }
  // The hottest value is perm1[0], not 0.
  const auto hottest = static_cast<std::size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  EXPECT_EQ(hottest, perm1[0]);
  EXPECT_NE(hottest, 0u);
}

TEST(SubscriptionGenerator, RequiresFiniteDomains) {
  const auto schema = make_schema("s", {Attribute{"open", AttributeType::kString, {}}});
  EXPECT_THROW(SubscriptionGenerator(schema, SubscriptionWorkloadConfig{}),
               std::invalid_argument);
}

TEST(EventGenerator, ProducesCompleteDomainEvents) {
  const auto schema = make_synthetic_schema(10, 5);
  EventGenerator gen(schema);
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const Event e = gen.generate(rng);
    EXPECT_TRUE(e.complete());
    for (std::size_t a = 0; a < 10; ++a) {
      EXPECT_GE(e.value(a).as_int(), 0);
      EXPECT_LT(e.value(a).as_int(), 5);
    }
  }
}

TEST(Selectivity, PaperWorkloadIsVerySelective) {
  // Section 4.1 (network loading): 10 attributes, 5 values, first-attribute
  // p=0.98, decay 0.85 -> "on average, each event matches only about 0.1%
  // of subscriptions". Accept the right order of magnitude.
  const auto schema = make_synthetic_schema(10, 5);
  SubscriptionGenerator sub_gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  EventGenerator ev_gen(schema);
  Rng rng(2025);
  std::vector<Subscription> subs;
  std::vector<Event> events;
  for (int i = 0; i < 2000; ++i) subs.push_back(sub_gen.generate(rng));
  for (int i = 0; i < 200; ++i) events.push_back(ev_gen.generate(rng));
  const double selectivity = measure_selectivity(subs, events);
  EXPECT_GT(selectivity, 0.0002);
  EXPECT_LT(selectivity, 0.02);
}

TEST(Selectivity, MatchingTimeWorkloadIsLessSelective) {
  // Section 4.1 (matching time): 10 attributes, 3 values, decay 0.82 ->
  // about 1.3% of subscriptions.
  const auto schema = make_synthetic_schema(10, 3);
  SubscriptionGenerator sub_gen(schema, SubscriptionWorkloadConfig{0.98, 0.82, 1.0});
  EventGenerator ev_gen(schema);
  Rng rng(2026);
  std::vector<Subscription> subs;
  std::vector<Event> events;
  for (int i = 0; i < 2000; ++i) subs.push_back(sub_gen.generate(rng));
  for (int i = 0; i < 200; ++i) events.push_back(ev_gen.generate(rng));
  const double selectivity = measure_selectivity(subs, events);
  EXPECT_GT(selectivity, 0.004);
  EXPECT_LT(selectivity, 0.06);
}

TEST(Selectivity, EmptyInputsGiveZero) {
  EXPECT_EQ(measure_selectivity({}, {}), 0.0);
}

}  // namespace
}  // namespace gryphon
