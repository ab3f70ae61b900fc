// Differential proof for the batched data plane: draining events through
// DispatchBatch must decide exactly what the scalar shim decides. Every
// decision a batch produces — forward set, local matches (in order),
// steps — must be identical to the scalar path on the
// same core, in add() order, across control-plane churn and across
// batches that interleave information spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "broker/broker_core.h"
#include "common/rng.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

PstMatcherOptions factored_options() {
  PstMatcherOptions options;
  options.factoring_levels = 2;  // events are bucketed by factoring key
  return options;
}

/// Field-by-field equality of two decisions.
void expect_same_decision(const Decision& a, const Decision& b, const char* context) {
  EXPECT_EQ(a.forward, b.forward) << context;
  EXPECT_EQ(a.local_matches, b.local_matches) << context;  // order included
  EXPECT_EQ(a.steps, b.steps) << context;
}

/// Dispatches every (event, root) pair through the batch API and the
/// scalar shim and requires identical decisions; match_all must return
/// exactly the live subscriptions that match each event.
void expect_batch_agrees(const BrokerCore& core, const std::vector<Event>& pool,
                         const std::map<SubscriptionId, Subscription>& live) {
  for (int root = 0; root < 3; ++root) {
    DispatchBatch batch;
    for (const Event& e : pool) batch.add(kSpace0, e, BrokerId{root});
    const auto decisions = core.dispatch(batch);
    ASSERT_EQ(decisions.size(), pool.size());
    MatchScratch scratch;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Decision scalar = core.dispatch(kSpace0, pool[i], BrokerId{root}, scratch);
      expect_same_decision(decisions[i], scalar, "batch vs scalar shim");
    }
  }
  for (const Event& e : pool) {
    std::vector<SubscriptionId> expected;
    for (const auto& [id, s] : live) {
      if (s.matches(e)) expected.push_back(id);
    }
    std::vector<SubscriptionId> got = core.match_all(kSpace0, e);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

class BatchDispatchTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  BrokerNetwork topo_ = make_line(3, 10, 0, 1);
};

TEST_F(BatchDispatchTest, BatchEqualsScalarAcrossChurn) {
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options());

  Rng rng(2026);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(events.generate(rng));
  std::map<SubscriptionId, Subscription> live;
  const auto add = [&](std::int64_t i) {
    const SubscriptionId id{i};
    live.emplace(id, gen.generate(rng));
    core.add_subscription(kSpace0, id, live.at(id),
                          BrokerId{static_cast<BrokerId::rep_type>(rng.below(3))});
  };

  // Phase 1: adds.
  for (std::int64_t i = 0; i < 120; ++i) add(i);
  expect_batch_agrees(core, pool, live);

  // Phase 2: churn — remove a third, then add a fresh wave.
  for (std::int64_t i = 0; i < 120; i += 3) {
    ASSERT_TRUE(core.remove_subscription(SubscriptionId{i}));
    live.erase(SubscriptionId{i});
  }
  expect_batch_agrees(core, pool, live);

  for (std::int64_t i = 200; i < 240; ++i) add(i);
  expect_batch_agrees(core, pool, live);
}

TEST_F(BatchDispatchTest, BatchAgreesWithScalarShimOnSameCore) {
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options());
  Rng rng(7);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 80; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng),
                          BrokerId{static_cast<BrokerId::rep_type>(rng.below(3))});
  }
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 30; ++i) pool.push_back(events.generate(rng));

  DispatchBatch batch;
  for (const Event& e : pool) batch.add(kSpace0, e, BrokerId{0});
  const auto decisions = core.dispatch(batch);
  ASSERT_EQ(decisions.size(), pool.size());
  MatchScratch scratch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Decision scalar = core.dispatch(kSpace0, pool[i], BrokerId{0}, scratch);
    expect_same_decision(decisions[i], scalar, "batch vs scalar shim");
  }
}

TEST_F(BatchDispatchTest, DecisionsComeBackInAddOrder) {
  // The decision span is indexed by staging order: decisions()[i] must
  // belong to the i-th add(), with its own tree root.
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options());
  Rng rng(11);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 60; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng),
                          BrokerId{static_cast<BrokerId::rep_type>(rng.below(3))});
  }
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 50; ++i) pool.push_back(events.generate(rng));

  DispatchBatch batch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    batch.add(kSpace0, pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)});
  }
  const auto decisions = core.dispatch(batch);
  MatchScratch scratch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Decision scalar = core.dispatch(
        kSpace0, pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)}, scratch);
    expect_same_decision(decisions[i], scalar, "decision order");
  }
}

TEST_F(BatchDispatchTest, InterleavedSpacesComeBackInAddOrder) {
  // One batch interleaving two information spaces with different schemas:
  // each decision must be the scalar shim's for its own space and event.
  const SchemaPtr other = make_synthetic_schema(3, 4, "other");
  constexpr SpaceId kSpace1{1};
  BrokerCore core(BrokerId{1}, topo_, {schema_, other}, factored_options());
  Rng rng(17);
  SubscriptionGenerator gen0(schema_, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  SubscriptionGenerator gen1(other, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  for (std::int64_t i = 0; i < 60; ++i) {
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    core.add_subscription(kSpace0, SubscriptionId{i}, gen0.generate(rng), owner);
    core.add_subscription(kSpace1, SubscriptionId{1000 + i}, gen1.generate(rng), owner);
  }
  EventGenerator events0(schema_);
  EventGenerator events1(other);
  std::vector<Event> pool;
  std::vector<SpaceId> spaces;
  for (int i = 0; i < 40; ++i) {
    const bool first = rng.below(2) == 0;
    pool.push_back(first ? events0.generate(rng) : events1.generate(rng));
    spaces.push_back(first ? kSpace0 : kSpace1);
  }

  DispatchBatch batch;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    batch.add(spaces[i], pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)});
  }
  const auto decisions = core.dispatch(batch);
  ASSERT_EQ(decisions.size(), pool.size());
  MatchScratch scratch;
  std::size_t local_hits[2] = {0, 0};
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Decision scalar = core.dispatch(
        spaces[i], pool[i], BrokerId{static_cast<BrokerId::rep_type>(i % 3)}, scratch);
    expect_same_decision(decisions[i], scalar, "interleaved spaces");
    for (const SubscriptionId id : decisions[i].local_matches) {
      EXPECT_EQ(id.value >= 1000, spaces[i] == kSpace1) << "match from the other space";
    }
    if (!decisions[i].local_matches.empty()) ++local_hits[spaces[i].value];
  }
  // Both spaces must contribute matches, or the interleaving proves nothing.
  EXPECT_GT(local_hits[0], 0u);
  EXPECT_GT(local_hits[1], 0u);
}

TEST_F(BatchDispatchTest, BatchValidatesBeforeDispatching) {
  BrokerCore core(BrokerId{1}, topo_, {schema_}, factored_options());
  EventGenerator events(schema_);
  Rng rng(3);
  const Event e = events.generate(rng);

  DispatchBatch bad_root;
  bad_root.add(kSpace0, e, BrokerId{77});
  EXPECT_THROW(core.dispatch(bad_root), std::invalid_argument);

  DispatchBatch bad_space;
  bad_space.add(SpaceId{9}, e, BrokerId{0});
  EXPECT_THROW(core.dispatch(bad_space), std::invalid_argument);

  DispatchBatch empty;
  EXPECT_TRUE(core.dispatch(empty).empty());
}

}  // namespace
}  // namespace gryphon
