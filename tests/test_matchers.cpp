// Cross-checks the matcher implementations against each other and
// against brute-force predicate evaluation on randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "matching/naive_matcher.h"
#include "matching/pst_matcher.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

// Explicit values: the parameterized test names print them.
enum class Kind { kNaive = 0, kPst = 2, kPstFactored = 3 };

std::unique_ptr<Matcher> make_matcher(Kind kind, const SchemaPtr& schema) {
  switch (kind) {
    case Kind::kNaive: return std::make_unique<NaiveMatcher>();
    case Kind::kPst: return std::make_unique<PstMatcher>(schema);
    case Kind::kPstFactored: {
      PstMatcherOptions options;
      options.factoring_levels = 2;
      return std::make_unique<PstMatcher>(schema, options);
    }
  }
  return nullptr;
}

class MatcherParity : public ::testing::TestWithParam<Kind> {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(6, 4);
};

TEST_P(MatcherParity, AgreesWithBruteForceUnderChurn) {
  Rng rng(2024);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema_);
  auto matcher = make_matcher(GetParam(), schema_);

  std::vector<std::pair<SubscriptionId, Subscription>> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 400; ++round) {
    if (live.empty() || rng.chance(0.65)) {
      const Subscription s = gen.generate(rng);
      const SubscriptionId id{next_id++};
      matcher->add(id, s);
      live.emplace_back(id, s);
    } else {
      const std::size_t pick = rng.below(live.size());
      EXPECT_TRUE(matcher->remove(live[pick].first));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_EQ(matcher->subscription_count(), live.size());

  for (int i = 0; i < 100; ++i) {
    const Event e = events.generate(rng);
    std::vector<SubscriptionId> got = matcher->match(e).ids;
    std::sort(got.begin(), got.end());
    std::vector<SubscriptionId> want;
    for (const auto& [id, s] : live) {
      if (s.matches(e)) want.push_back(id);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_P(MatcherParity, DuplicateAddThrows) {
  auto matcher = make_matcher(GetParam(), schema_);
  const auto sub = Subscription::match_all(schema_);
  matcher->add(SubscriptionId{1}, sub);
  EXPECT_THROW(matcher->add(SubscriptionId{1}, sub), std::invalid_argument);
}

TEST_P(MatcherParity, RemoveUnknownReturnsFalse) {
  auto matcher = make_matcher(GetParam(), schema_);
  EXPECT_FALSE(matcher->remove(SubscriptionId{404}));
}

TEST_P(MatcherParity, RangeSubscriptionsSupported) {
  auto matcher = make_matcher(GetParam(), schema_);
  std::vector<AttributeTest> tests(6);
  tests[1] = AttributeTest::between(Value(1), Value(2));
  tests[4] = AttributeTest::not_equals(Value(0));
  matcher->add(SubscriptionId{7}, Subscription(schema_, tests));

  const Event hit(schema_, {Value(0), Value(2), Value(0), Value(0), Value(3), Value(0)});
  const Event miss(schema_, {Value(0), Value(3), Value(0), Value(0), Value(3), Value(0)});
  EXPECT_EQ(matcher->match(hit).ids, (std::vector<SubscriptionId>{SubscriptionId{7}}));
  EXPECT_TRUE(matcher->match(miss).ids.empty());
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherParity,
                         ::testing::Values(Kind::kNaive, Kind::kPst, Kind::kPstFactored),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kNaive: return "Naive";
                             case Kind::kPst: return "Pst";
                             case Kind::kPstFactored: return "PstFactored";
                           }
                           return "?";
                         });

TEST(PstVsNaiveCost, TreeBeatsScanOnSelectiveWorkloads) {
  const auto schema = make_synthetic_schema(10, 5);
  Rng rng(5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  EventGenerator events(schema);
  NaiveMatcher naive;
  PstMatcher pst(schema);
  for (std::int64_t i = 0; i < 2000; ++i) {
    const auto s = gen.generate(rng);
    naive.add(SubscriptionId{i}, s);
    pst.add(SubscriptionId{i}, s);
  }
  MatchStats naive_stats, pst_stats;
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 50; ++i) {
    const Event e = events.generate(rng);
    out.clear();
    naive.match_into(e, out, &naive_stats);
    out.clear();
    pst.match_into(e, out, &pst_stats);
  }
  // The PST visits far fewer nodes than the scan visits subscriptions.
  EXPECT_LT(pst_stats.nodes_visited * 2, naive_stats.nodes_visited);
}

// Memory accounting: the registry counts at least each subscription's
// object and test array, the trees and kernels are non-empty once built,
// and removing every subscription gives the registry's and the trees'
// per-subscription bytes back.
TEST(PstMatcherMemory, AccountsRegistryTreesAndKernels) {
  const auto schema = make_synthetic_schema(10, 5);
  Rng rng(11);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  PstMatcher pst(schema);
  const std::size_t empty_registry = pst.registry_bytes();
  constexpr std::int64_t kSubs = 500;
  for (std::int64_t i = 0; i < kSubs; ++i) pst.add(SubscriptionId{i}, gen.generate(rng));
  const std::size_t per_subscription = sizeof(Subscription) + 10 * sizeof(AttributeTest);
  EXPECT_GE(pst.registry_bytes(), kSubs * per_subscription);
  EXPECT_GT(pst.tree_bytes(), 0u);
  EXPECT_EQ(pst.memory_bytes(), pst.registry_bytes() + pst.tree_bytes());
  EXPECT_EQ(pst.kernel_bytes(), 0u);  // nothing frozen yet
  pst.freeze();
  EXPECT_GT(pst.kernel_bytes(), 0u);
  const std::size_t full_trees = pst.tree_bytes();
  for (std::int64_t i = 0; i < kSubs; ++i) ASSERT_TRUE(pst.remove(SubscriptionId{i}));
  EXPECT_LT(pst.registry_bytes(), empty_registry + kSubs * per_subscription / 10);
  EXPECT_LE(pst.tree_bytes(), full_trees);
}

}  // namespace
}  // namespace gryphon
