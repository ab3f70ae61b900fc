// Covering-aware control plane: differential proof that subscription
// aggregation (matching/covering_index.h) and delta compilation are pure
// control-plane optimizations. A core with covering on must produce
// bit-identical match sets — forwarding decisions, local deliveries, the
// network-wide match_all set — to a core with covering off, for the same
// subscription history, across randomized churn, slice growth, and the
// broker-level reconnect reconciliation path (tombstones + uncovering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/broker_core.h"
#include "broker/client.h"
#include "broker/inproc_transport.h"
#include "common/rng.h"
#include "matching/covering_index.h"
#include "matching/naive_matcher.h"
#include "topology/builders.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

constexpr SpaceId kSpace0{0};

ControlPlaneOptions covering_off() {
  ControlPlaneOptions options;
  options.covering = false;
  return options;
}

// ---------------------------------------------------------------------------
// test_covers: the per-attribute containment relation.

using T = AttributeTest;

Value iv(std::int64_t v) { return Value(v); }

TEST(TestCovers, TruthTable) {
  // Don't-care (and the unbounded range) cover everything.
  EXPECT_TRUE(CoveringIndex::test_covers(T::dont_care(), T::dont_care()));
  EXPECT_TRUE(CoveringIndex::test_covers(T::dont_care(), T::equals(iv(1))));
  EXPECT_TRUE(CoveringIndex::test_covers(T::dont_care(), T::between(iv(1), iv(5))));
  const T unbounded = T::range(std::nullopt, std::nullopt);  // no bounds: accepts every value
  EXPECT_TRUE(CoveringIndex::test_covers(unbounded, T::dont_care()));
  // Nothing narrower covers don't-care.
  EXPECT_FALSE(CoveringIndex::test_covers(T::equals(iv(1)), T::dont_care()));
  EXPECT_FALSE(CoveringIndex::test_covers(T::between(iv(1), iv(5)), T::dont_care()));
  EXPECT_FALSE(CoveringIndex::test_covers(T::not_equals(iv(1)), T::dont_care()));

  // Equality on the right: containment is acceptance of the one value.
  EXPECT_TRUE(CoveringIndex::test_covers(T::equals(iv(1)), T::equals(iv(1))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::equals(iv(1)), T::equals(iv(2))));
  EXPECT_TRUE(CoveringIndex::test_covers(T::not_equals(iv(2)), T::equals(iv(1))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::not_equals(iv(1)), T::equals(iv(1))));
  EXPECT_TRUE(CoveringIndex::test_covers(T::between(iv(1), iv(5)), T::equals(iv(3))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::between(iv(2), iv(5)), T::equals(iv(1))));

  // Not-equals on the right: only the same co-set (or accept-all) works.
  EXPECT_TRUE(CoveringIndex::test_covers(T::not_equals(iv(1)), T::not_equals(iv(1))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::not_equals(iv(2)), T::not_equals(iv(1))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::between(iv(0), iv(9)), T::not_equals(iv(1))));

  // Range in range: per-side bound containment, inclusivity included.
  EXPECT_TRUE(CoveringIndex::test_covers(T::between(iv(1), iv(5)), T::between(iv(2), iv(5))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::between(iv(2), iv(5)), T::between(iv(1), iv(5))));
  EXPECT_TRUE(CoveringIndex::test_covers(T::between(iv(1), iv(5), true, true),
                                         T::between(iv(1), iv(5), false, true)));
  EXPECT_FALSE(CoveringIndex::test_covers(T::between(iv(1), iv(5), false, true),
                                          T::between(iv(1), iv(5), true, true)));
  // Half-open ranges (greater_than / less_than are exclusive by default).
  EXPECT_TRUE(CoveringIndex::test_covers(T::greater_than(iv(1)), T::greater_than(iv(2))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::greater_than(iv(2)), T::greater_than(iv(1))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::greater_than(iv(1)), T::less_than(iv(5))));
  EXPECT_TRUE(CoveringIndex::test_covers(T::greater_than(iv(1)), T::between(iv(2), iv(9))));

  // Equality covers exactly the degenerate closed range.
  EXPECT_TRUE(CoveringIndex::test_covers(T::equals(iv(2)), T::between(iv(2), iv(2))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::equals(iv(2)), T::between(iv(2), iv(3))));
  // Not-equals covers a range that misses its hole.
  EXPECT_TRUE(CoveringIndex::test_covers(T::not_equals(iv(1)), T::between(iv(2), iv(5))));
  EXPECT_FALSE(CoveringIndex::test_covers(T::not_equals(iv(3)), T::between(iv(2), iv(5))));
}

/// A random test over the small int domain [0, domain).
T random_test(Rng& rng, std::int64_t domain) {
  const auto value = [&] { return iv(static_cast<std::int64_t>(rng.below(domain))); };
  switch (rng.below(5)) {
    case 0:
      return T::dont_care();
    case 1:
      return T::equals(value());
    case 2:
      return T::not_equals(value());
    case 3: {
      std::int64_t lo = static_cast<std::int64_t>(rng.below(domain));
      std::int64_t hi = static_cast<std::int64_t>(rng.below(domain));
      if (hi < lo) std::swap(lo, hi);
      return T::between(iv(lo), iv(hi), rng.below(2) == 0, rng.below(2) == 0);
    }
    default:
      return rng.below(2) == 0 ? T::greater_than(value(), rng.below(2) == 0)
                               : T::less_than(value(), rng.below(2) == 0);
  }
}

TEST(TestCovers, RandomizedSoundnessAgainstExhaustiveEvaluation) {
  // test_covers(a, b) claims "every value b accepts, a accepts". The domain
  // is small enough to check that claim exhaustively; soundness (no false
  // covers) is what correctness rests on, so it must hold for every pair.
  constexpr std::int64_t kDomain = 6;
  Rng rng(424242);
  int covered_pairs = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const T a = random_test(rng, kDomain);
    const T b = random_test(rng, kDomain);
    if (!CoveringIndex::test_covers(a, b)) continue;
    ++covered_pairs;
    for (std::int64_t v = 0; v < kDomain; ++v) {
      if (b.accepts(iv(v))) {
        EXPECT_TRUE(a.accepts(iv(v)))
            << "unsound cover: value " << v << " accepted by covered but not coverer";
      }
    }
  }
  EXPECT_GT(covered_pairs, 100);  // the trial actually exercised the relation
}

TEST(TestCovers, SubscriptionCoversImpliesMatchContainment) {
  const SchemaPtr schema = make_synthetic_schema(3, 4);
  Rng rng(1337);
  EventGenerator events(schema);
  int covered_pairs = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<T> ta;
    std::vector<T> tb;
    for (int i = 0; i < 3; ++i) {
      ta.push_back(random_test(rng, 4));
      tb.push_back(random_test(rng, 4));
    }
    const Subscription a(schema, ta);
    const Subscription b(schema, tb);
    if (!CoveringIndex::covers(a, b)) continue;
    ++covered_pairs;
    for (int e = 0; e < 20; ++e) {
      const Event event = events.generate(rng);
      if (b.matches(event)) {
        EXPECT_TRUE(a.matches(event)) << "cover misses an event its child matches";
      }
    }
  }
  EXPECT_GT(covered_pairs, 50);
}

// ---------------------------------------------------------------------------
// CoveringIndex mechanics: park, demote, promote.

TEST(CoveringIndexMechanics, ParkDemoteAndPromote) {
  const SchemaPtr schema = make_synthetic_schema(3, 5);
  CoveringIndex index(schema);
  const auto broad = std::make_shared<const Subscription>(
      Subscription(schema, {T::equals(iv(0)), T::dont_care(), T::dont_care()}));
  const auto tight = std::make_shared<const Subscription>(
      Subscription(schema, {T::equals(iv(0)), T::equals(iv(1)), T::dont_care()}));
  const auto tighter = std::make_shared<const Subscription>(
      Subscription(schema, {T::equals(iv(0)), T::equals(iv(1)), T::equals(iv(2))}));

  // Frontier entry, then a covered child parks under it.
  const auto r1 = index.add(SubscriptionId{1}, broad, BrokerId{0});
  EXPECT_FALSE(r1.parked);
  const auto r2 = index.add(SubscriptionId{2}, tight, BrokerId{0});
  EXPECT_TRUE(r2.parked);
  EXPECT_EQ(r2.coverer, SubscriptionId{1});
  EXPECT_EQ(index.frontier_count(), 1u);
  EXPECT_EQ(index.parked_count(), 1u);
  EXPECT_TRUE(index.is_parked(SubscriptionId{2}));

  // Covering never crosses owners: the same predicate from another broker
  // enters the frontier (its forwarding link differs).
  const auto r3 = index.add(SubscriptionId{3}, tight, BrokerId{1});
  EXPECT_FALSE(r3.parked);
  EXPECT_EQ(index.frontier_count(), 2u);

  // Demotion: a broader late arrival pulls the owner's frontier entry in.
  const auto r4 = index.add(SubscriptionId{4}, broad, BrokerId{1});
  EXPECT_FALSE(r4.parked);
  ASSERT_EQ(r4.demoted.size(), 1u);
  EXPECT_EQ(r4.demoted[0], SubscriptionId{3});
  EXPECT_EQ(index.frontier_count(), 2u);
  EXPECT_EQ(index.parked_count(), 2u);

  // Parked children survive their own removal path.
  const auto parked_removal = index.remove(SubscriptionId{3});
  EXPECT_TRUE(parked_removal.known);
  EXPECT_TRUE(parked_removal.was_parked);
  EXPECT_TRUE(parked_removal.promoted.empty());
  EXPECT_EQ(index.parked_count(), 1u);

  // Removing a coverer promotes orphans with no remaining coverer.
  const auto r5 = index.add(SubscriptionId{5}, tighter, BrokerId{0});
  EXPECT_TRUE(r5.parked);
  EXPECT_EQ(r5.coverer, SubscriptionId{1});
  const auto uncover = index.remove(SubscriptionId{1});
  EXPECT_TRUE(uncover.known);
  EXPECT_FALSE(uncover.was_parked);
  // Broadest-first re-homing: `tight` promotes, then re-covers `tighter`.
  ASSERT_EQ(uncover.promoted.size(), 1u);
  EXPECT_EQ(uncover.promoted[0].id, SubscriptionId{2});
  EXPECT_EQ(index.frontier_count(), 2u);  // {2 (promoted), 4}
  EXPECT_EQ(index.parked_count(), 1u);    // 5 re-parked under 2
  EXPECT_TRUE(index.is_parked(SubscriptionId{5}));

  // The children accessor mirrors the parked set.
  const auto children = index.children_of(SubscriptionId{2});
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], SubscriptionId{5});
  EXPECT_TRUE(index.children_of(SubscriptionId{5}).empty());  // parked: no children
  EXPECT_TRUE(index.children_of(SubscriptionId{1}).empty());  // removed
}

TEST(CoveringIndexMechanics, ParksWheneverTheAnchoredCandidateCovers) {
  // find_coverer rejects candidates on packed signatures before it runs
  // covers(); that filter must never reject a real coverer. A frontier
  // entry is a candidate when it has no equality test or the newcomer
  // pins its first equality attribute by an equality test (the anchor
  // probe); the small domain makes one-value ranges [v, v] common, the
  // case where an equality covers a non-equality test.
  const SchemaPtr schema = make_synthetic_schema(3, 3);
  Rng rng(4242);
  int parked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<T> at;
    std::vector<T> bt;
    for (int i = 0; i < 3; ++i) at.push_back(random_test(rng, 3));
    for (int i = 0; i < 3; ++i) bt.push_back(random_test(rng, 3));
    const auto a = std::make_shared<const Subscription>(Subscription(schema, at));
    const auto b = std::make_shared<const Subscription>(Subscription(schema, bt));
    const auto anchor = std::find_if(at.begin(), at.end(), [](const T& t) {
      return t.kind() == TestKind::kEquals;
    });
    const bool candidate =
        anchor == at.end() ||
        bt[static_cast<std::size_t>(anchor - at.begin())].kind() == TestKind::kEquals;
    CoveringIndex index(schema);
    ASSERT_FALSE(index.add(SubscriptionId{1}, a, BrokerId{0}).parked);
    const auto result = index.add(SubscriptionId{2}, b, BrokerId{0});
    EXPECT_EQ(result.parked, candidate && CoveringIndex::covers(*a, *b)) << "trial " << trial;
    if (result.parked) ++parked;
  }
  EXPECT_GT(parked, 100);
}

TEST(CoveringIndexMechanics, LocalOwnerBypassesCovering) {
  // Subscriptions owned by the local broker always stay frontier: they
  // never park (local fan-out must come out of the compiled kernels) and
  // never cover (a local coverer would park later local subscriptions).
  // Remote owners aggregate as usual.
  const SchemaPtr schema = make_synthetic_schema(3, 5);
  CoveringIndex index(schema, BrokerId{1});
  const auto broad = std::make_shared<const Subscription>(
      Subscription(schema, {T::equals(iv(0)), T::dont_care(), T::dont_care()}));
  const auto tight = std::make_shared<const Subscription>(
      Subscription(schema, {T::equals(iv(0)), T::equals(iv(1)), T::dont_care()}));

  EXPECT_FALSE(index.add(SubscriptionId{1}, broad, BrokerId{1}).parked);
  const auto local_tight = index.add(SubscriptionId{2}, tight, BrokerId{1});
  EXPECT_FALSE(local_tight.parked);
  EXPECT_TRUE(local_tight.demoted.empty());
  EXPECT_EQ(index.frontier_count(), 2u);
  EXPECT_EQ(index.parked_count(), 0u);

  // The same shapes under a remote owner park as before.
  EXPECT_FALSE(index.add(SubscriptionId{3}, broad, BrokerId{0}).parked);
  EXPECT_TRUE(index.add(SubscriptionId{4}, tight, BrokerId{0}).parked);
  EXPECT_EQ(index.parked_count(), 1u);

  // Local frontier entries look up and remove cleanly.
  EXPECT_NE(index.find(SubscriptionId{2}), nullptr);
  EXPECT_TRUE(index.remove(SubscriptionId{2}).known);
  EXPECT_TRUE(index.remove(SubscriptionId{1}).known);
  EXPECT_EQ(index.frontier_count(), 1u);
  EXPECT_EQ(index.parked_count(), 1u);  // the remote pair is untouched
}

// ---------------------------------------------------------------------------
// Differential: covering on vs off must be bit-identical.

/// Compares every decision field whose value covering may not change:
/// forwarding, local delivery, and the delivered id sets. Step counts and
/// local-match order legitimately differ (the covering frontier compiles
/// into differently-shaped kernels; match_all additionally appends parked
/// remote ids by expansion).
void expect_equivalent(const BrokerCore& with, const BrokerCore& without,
                       const std::vector<Event>& pool, int roots) {
  with.control_plane().assert_serialized();
  without.control_plane().assert_serialized();
  MatchScratch scratch_a;
  MatchScratch scratch_b;
  for (int root = 0; root < roots; ++root) {
    for (const Event& e : pool) {
      const Decision a = with.dispatch(kSpace0, e, BrokerId{root}, scratch_a);
      const Decision b = without.dispatch(kSpace0, e, BrokerId{root}, scratch_b);
      EXPECT_EQ(a.forward, b.forward) << "forwarding differs under covering";
      std::vector<SubscriptionId> la = a.local_matches;
      std::vector<SubscriptionId> lb = b.local_matches;
      std::sort(la.begin(), la.end());
      std::sort(lb.begin(), lb.end());
      EXPECT_EQ(la, lb) << "local match set differs under covering";
    }
  }
  for (const Event& e : pool) {
    std::vector<SubscriptionId> ma = with.match_all(kSpace0, e);
    std::vector<SubscriptionId> mb = without.match_all(kSpace0, e);
    std::sort(ma.begin(), ma.end());
    std::sort(mb.begin(), mb.end());
    EXPECT_EQ(ma, mb) << "match_all set differs under covering";
  }
}

class CoveringDifferentialTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  BrokerNetwork topo_ = make_line(3, 10, 0, 1);
};

TEST_F(CoveringDifferentialTest, EqualityWorkloadAcrossRandomizedChurn) {
  BrokerCore with(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  BrokerCore without(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), covering_off());

  Rng rng(90210);
  // A heavy-star workload so covering actually bites: most subscriptions
  // test one or two attributes, producing deep cover chains.
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.55, 1.0});
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(events.generate(rng));

  std::vector<SubscriptionId> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 6; ++round) {
    for (int a = 0; a < 60; ++a) {
      const SubscriptionId id{next_id++};
      const Subscription s = gen.generate(rng);
      const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
      with.add_subscription(kSpace0, id, s, owner);
      without.add_subscription(kSpace0, id, s, owner);
      live.push_back(id);
    }
    // Remove a random half — coverers and covered alike, so promotion and
    // re-parking both fire.
    for (int r = 0; r < 30 && !live.empty(); ++r) {
      const std::size_t pick = rng.below(live.size());
      const SubscriptionId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(with.remove_subscription(id));
      ASSERT_TRUE(without.remove_subscription(id));
    }
    expect_equivalent(with, without, pool, 3);
  }

  // The aggregation must have parked something for the diff to mean much,
  // and the live accounting must balance.
  with.control_plane().assert_serialized();
  without.control_plane().assert_serialized();
  EXPECT_GT(with.covered_count(kSpace0), 0u);
  EXPECT_EQ(with.frontier_count(kSpace0) + with.covered_count(kSpace0),
            with.subscription_count(kSpace0));
  EXPECT_EQ(without.covered_count(kSpace0), 0u);
  EXPECT_LT(with.frontier_count(kSpace0), without.frontier_count(kSpace0));
}

TEST_F(CoveringDifferentialTest, RangeAndNotEqualsWorkload) {
  BrokerCore with(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  BrokerCore without(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), covering_off());

  Rng rng(5150);
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(events.generate(rng));

  std::vector<SubscriptionId> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 5; ++round) {
    for (int a = 0; a < 50; ++a) {
      std::vector<T> tests;
      for (int i = 0; i < 4; ++i) tests.push_back(random_test(rng, 3));
      const Subscription s(schema_, tests);
      const SubscriptionId id{next_id++};
      const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
      with.add_subscription(kSpace0, id, s, owner);
      without.add_subscription(kSpace0, id, s, owner);
      live.push_back(id);
    }
    for (int r = 0; r < 25 && !live.empty(); ++r) {
      const std::size_t pick = rng.below(live.size());
      const SubscriptionId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(with.remove_subscription(id));
      ASSERT_TRUE(without.remove_subscription(id));
    }
    expect_equivalent(with, without, pool, 3);
  }
  with.control_plane().assert_serialized();
  EXPECT_GT(with.covered_count(kSpace0), 0u);
}

TEST_F(CoveringDifferentialTest, FactoredDeltaSegmentsAgree) {
  // The full stack at once: factoring + covering + multiple delta segments
  // (tiny target forces slice growth) against the plain core.
  PstMatcherOptions factored;
  factored.factoring_levels = 2;
  ControlPlaneOptions delta;
  delta.delta_segment_target = 16;
  delta.max_delta_segments = 8;
  BrokerCore with(BrokerId{1}, topo_, {schema_}, factored, delta);
  BrokerCore without(BrokerId{1}, topo_, {schema_}, factored, covering_off());

  Rng rng(777);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.7, 1.0});
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(events.generate(rng));

  std::vector<SubscriptionId> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 4; ++round) {
    for (int a = 0; a < 80; ++a) {
      const SubscriptionId id{next_id++};
      const Subscription s = gen.generate(rng);
      const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
      with.add_subscription(kSpace0, id, s, owner);
      without.add_subscription(kSpace0, id, s, owner);
      live.push_back(id);
    }
    for (int r = 0; r < 40 && !live.empty(); ++r) {
      const std::size_t pick = rng.below(live.size());
      const SubscriptionId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(with.remove_subscription(id));
      ASSERT_TRUE(without.remove_subscription(id));
    }
    expect_equivalent(with, without, pool, 3);
  }

  with.control_plane().assert_serialized();
  EXPECT_GT(with.segment_count(kSpace0), 1u) << "growth never triggered";
  const ControlPlaneStats stats = with.control_plane_stats();
  EXPECT_GT(stats.delta_publishes, 0u);
  EXPECT_GT(stats.segments_reused, 0u);
  // Every frontier mutation published once; parked churn published nothing.
  EXPECT_LT(stats.compile_publishes, 4u * (80 + 40));
  EXPECT_EQ(stats.frontier_subscriptions + stats.covered_subscriptions,
            with.subscription_count());
}

TEST_F(CoveringDifferentialTest, DeferredPublicationIsInvisibleUntilPublishSpace) {
  BrokerCore deferred(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  BrokerCore eager(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});

  Rng rng(31);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.7, 1.0});
  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int i = 0; i < 20; ++i) pool.push_back(events.generate(rng));

  const std::uint64_t before = deferred.snapshot_version();
  for (std::int64_t i = 0; i < 50; ++i) {
    const Subscription s = gen.generate(rng);
    const BrokerId owner{static_cast<BrokerId::rep_type>(rng.below(3))};
    deferred.add_subscription(kSpace0, SubscriptionId{i}, s, owner,
                              SnapshotPolicy::kDefer);
    eager.add_subscription(kSpace0, SubscriptionId{i}, s, owner);
  }
  // Nothing published: the data plane still sees the empty space, while
  // the eager core already forwards or delivers on the same events.
  EXPECT_EQ(deferred.snapshot_version(), before);
  MatchScratch scratch;
  bool eager_acts = false;
  for (int root = 0; root < 3; ++root) {
    for (const Event& e : pool) {
      const Decision d = deferred.dispatch(kSpace0, e, BrokerId{root}, scratch);
      EXPECT_TRUE(d.forward.empty());
      EXPECT_TRUE(d.local_matches.empty());
      const Decision ref = eager.dispatch(kSpace0, e, BrokerId{root}, scratch);
      eager_acts = eager_acts || !ref.forward.empty() || !ref.local_matches.empty();
    }
  }
  EXPECT_TRUE(eager_acts);

  deferred.control_plane().assert_serialized();
  deferred.publish_space(kSpace0);
  EXPECT_GT(deferred.snapshot_version(), before);
  expect_equivalent(deferred, eager, pool, 3);
  // Idempotent when nothing is pending.
  const std::uint64_t published = deferred.snapshot_version();
  deferred.publish_space(kSpace0);
  EXPECT_EQ(deferred.snapshot_version(), published);
}

TEST_F(CoveringDifferentialTest, ParkedOnlyChurnPublishesNothing) {
  // Parking or unparking touches no compiled tree and no decision: a
  // parked child's same-owner coverer already decides its links, and local
  // subscriptions never park. So a burst of parked-only churn, published
  // eagerly or deferred, leaves the snapshot as it was, while match_all (a
  // control-plane query) still reports the parked ids. One tree mutation
  // in a burst makes it compile.
  BrokerCore core(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  core.control_plane().assert_serialized();
  const BrokerId remote{0};
  const Subscription everything(schema_, std::vector<T>(4, T::dont_care()));
  core.add_subscription(kSpace0, SubscriptionId{0}, everything, remote);
  Rng rng(8080);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.7, 1.0});
  NaiveMatcher oracle;
  oracle.add(SubscriptionId{0}, everything);
  // A local and a second remote frontier subscription, so the decisions
  // below carry local matches and more than one forwarding link.
  for (const auto& [id, owner] : {std::pair{200, BrokerId{1}}, std::pair{201, BrokerId{2}}}) {
    const Subscription s = gen.generate(rng);
    core.add_subscription(kSpace0, SubscriptionId{id}, s, owner);
    oracle.add(SubscriptionId{id}, s);
  }
  ASSERT_EQ(core.covered_count(kSpace0), 0u);
  const std::uint64_t version = core.snapshot_version();
  const ControlPlaneStats before = core.control_plane_stats();

  EventGenerator events(schema_);
  std::vector<Event> pool;
  for (int e = 0; e < 20; ++e) pool.push_back(events.generate(rng));
  MatchScratch scratch;
  const auto decide_all = [&] {
    std::vector<Decision> out;
    for (int root = 0; root < 3; ++root) {
      for (const Event& e : pool) {
        out.push_back(core.dispatch(kSpace0, e, BrokerId{root}, scratch));
      }
    }
    return out;
  };
  const std::vector<Decision> pinned = decide_all();

  // Parked-only burst: adds (every other one deferred), then removals.
  constexpr std::int64_t kBurst = 50;
  for (std::int64_t i = 1; i <= kBurst; ++i) {
    const Subscription s = gen.generate(rng);
    core.add_subscription(kSpace0, SubscriptionId{i}, s, remote,
                          i % 2 == 0 ? SnapshotPolicy::kDefer : SnapshotPolicy::kPublish);
    oracle.add(SubscriptionId{i}, s);
  }
  ASSERT_EQ(core.covered_count(kSpace0), static_cast<std::size_t>(kBurst));
  for (std::int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(core.remove_subscription(
        SubscriptionId{i}, i % 2 == 0 ? SnapshotPolicy::kDefer : SnapshotPolicy::kPublish));
    oracle.remove(SubscriptionId{i});
  }
  core.publish_space(kSpace0);
  EXPECT_EQ(core.snapshot_version(), version);
  EXPECT_EQ(core.control_plane_stats().compile_publishes, before.compile_publishes);

  const std::vector<Decision> after = decide_all();
  ASSERT_EQ(after.size(), pinned.size());
  for (std::size_t d = 0; d < after.size(); ++d) {
    EXPECT_EQ(after[d].forward, pinned[d].forward) << "decision " << d;
    EXPECT_EQ(after[d].local_matches, pinned[d].local_matches) << "decision " << d;
    EXPECT_EQ(after[d].steps, pinned[d].steps) << "decision " << d;
  }

  // match_all reports the parked ids, exactly as a flat matcher would.
  bool saw_parked = false;
  for (const Event& event : pool) {
    std::vector<SubscriptionId> got = core.match_all(kSpace0, event);
    std::vector<SubscriptionId> want = oracle.match(event).ids;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    for (const SubscriptionId id : got) {
      saw_parked = saw_parked || core.covering_index(kSpace0)->is_parked(id);
    }
  }
  EXPECT_TRUE(saw_parked);

  // A frontier add (another owner) beside a parked one: one compile.
  core.add_subscription(kSpace0, SubscriptionId{100}, everything, BrokerId{2},
                        SnapshotPolicy::kDefer);
  core.add_subscription(kSpace0, SubscriptionId{101}, gen.generate(rng), remote,
                        SnapshotPolicy::kDefer);
  ASSERT_TRUE(core.covering_index(kSpace0)->is_parked(SubscriptionId{101}));
  core.publish_space(kSpace0);
  EXPECT_EQ(core.snapshot_version(), version + 1);
  EXPECT_EQ(core.control_plane_stats().compile_publishes, before.compile_publishes + 1);
  const std::vector<SubscriptionId> matched = core.match_all(kSpace0, events.generate(rng));
  EXPECT_NE(std::find(matched.begin(), matched.end(), SubscriptionId{100}), matched.end());
}

TEST_F(CoveringDifferentialTest, SelfOwnedSubscriptionsNeverPark) {
  // The dispatch hot path relies on this: local fan-out comes straight out
  // of the compiled kernels, with no parked-child expansion. An all-local
  // population therefore compiles fully — zero covered — even under a
  // workload dense with containment.
  BrokerCore core(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  Rng rng(2468);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.9, 0.55, 1.0});
  for (std::int64_t i = 0; i < 200; ++i) {
    core.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng), BrokerId{1});
  }
  EXPECT_EQ(core.covered_count(kSpace0), 0u);
  EXPECT_EQ(core.frontier_count(kSpace0), 200u);
  EXPECT_EQ(core.control_plane_stats().covered_subscriptions, 0u);

  // The same workload under a remote owner does aggregate, which pins the
  // blame for the zero above on the owner, not the workload.
  BrokerCore remote(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  Rng rng2(2468);
  for (std::int64_t i = 0; i < 200; ++i) {
    remote.add_subscription(kSpace0, SubscriptionId{i}, gen.generate(rng2), BrokerId{0});
  }
  EXPECT_GT(remote.covered_count(kSpace0), 0u);
}

TEST_F(CoveringDifferentialTest, CoveringOnOffRejectIdentically) {
  // Exception parity: a schema-arity mismatch must throw the same way
  // whether the subscription would have parked or entered a matcher, and
  // must leave no partial state behind in either config.
  BrokerCore with(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), {});
  BrokerCore without(BrokerId{1}, topo_, {schema_}, PstMatcherOptions(), covering_off());
  const SchemaPtr other = make_synthetic_schema(2, 3);
  const Subscription wrong = Subscription::match_all(other);
  const Subscription broad = Subscription::match_all(schema_);

  with.add_subscription(kSpace0, SubscriptionId{1}, broad, BrokerId{1});
  without.add_subscription(kSpace0, SubscriptionId{1}, broad, BrokerId{1});
  for (BrokerCore* core : {&with, &without}) {
    EXPECT_THROW(core->add_subscription(kSpace0, SubscriptionId{2}, wrong, BrokerId{1}),
                 std::invalid_argument);
    core->control_plane().assert_serialized();
    EXPECT_FALSE(core->has_subscription(SubscriptionId{2}));
    EXPECT_EQ(core->subscription_count(kSpace0), 1u);
    EXPECT_FALSE(core->remove_subscription(SubscriptionId{2}));
  }
}

// ---------------------------------------------------------------------------
// Broker-level: reconnect reconciliation (PR 4 tombstones) composes with
// uncovering — a stale replica of a removed *coverer* must not resurrect,
// and its promoted child must keep matching.

TEST(CoveringBrokerIntegration, TombstonedCovererStaysDeadAndChildPromotes) {
  const SchemaPtr schema =
      make_schema("trades", {Attribute{"issue", AttributeType::kString, {}},
                             Attribute{"price", AttributeType::kDouble, {}},
                             Attribute{"volume", AttributeType::kInt, {}}});
  const BrokerNetwork topo = make_line(2, 10, 0, 1);
  InProcNetwork net;
  Ticks clock{0};
  std::vector<std::unique_ptr<Broker>> brokers;
  for (int b = 0; b < 2; ++b) {
    auto* endpoint = net.create_endpoint("broker" + std::to_string(b));
    Broker::Options opts;
    opts.session_epoch = 100 + static_cast<std::uint64_t>(b);
    opts.clock = [&clock] { return clock; };
    brokers.push_back(std::make_unique<Broker>(BrokerId{b}, topo,
                                               std::vector<SchemaPtr>{schema}, *endpoint,
                                               opts));
    endpoint->set_handler(brokers.back().get());
  }
  ConnId link = net.connect("broker0", "broker1");
  brokers[0]->attach_broker_link(link, BrokerId{1});
  net.pump();

  std::vector<std::unique_ptr<Client>> clients;
  const auto add_client = [&](const std::string& name, int broker) -> Client& {
    auto* endpoint = net.create_endpoint(name);
    clients.push_back(
        std::make_unique<Client>(name, *endpoint, std::vector<SchemaPtr>{schema}));
    endpoint->set_handler(clients.back().get());
    clients.back()->bind(net.connect(name, "broker" + std::to_string(broker)));
    net.pump();
    return *clients.back();
  };
  Client& sub = add_client("sub", 1);
  Client& pub = add_client("pub", 0);

  // Same client, same owner broker: "volume > 10" parks under "volume > 0"
  // on both replicas.
  const std::uint64_t broad_token = sub.subscribe(0, "volume > 0");
  sub.subscribe(0, "volume > 10");
  net.pump();
  ASSERT_EQ(brokers[0]->subscription_count(), 2u);
  const auto broad_id = sub.subscription_id(broad_token);
  ASSERT_TRUE(broad_id.has_value());

  // The coverer dies while the link is down: broker 1 promotes the child
  // locally, broker 0 keeps a stale replica of the coverer.
  net.drop("broker0", link);
  sub.unsubscribe(*broad_id);
  net.pump();
  EXPECT_EQ(brokers[1]->subscription_count(), 1u);
  EXPECT_EQ(brokers[0]->subscription_count(), 2u);  // stale

  // Reconnect: broker 0 re-floods the stale coverer, broker 1's tombstone
  // kills it on both sides; the promoted child must be what remains.
  link = net.connect("broker0", "broker1");
  brokers[0]->attach_broker_link(link, BrokerId{1});
  net.pump();
  EXPECT_EQ(brokers[0]->subscription_count(), 1u);
  EXPECT_EQ(brokers[1]->subscription_count(), 1u);

  // Below the promoted child's threshold: silence. Above it: delivery. A
  // resurrection of the dead coverer would turn volume=5 into a delivery.
  pub.publish(0, Event(schema, {Value("IBM"), Value(100.0), Value(5)}));
  net.pump();
  EXPECT_TRUE(sub.take_deliveries().empty());
  pub.publish(0, Event(schema, {Value("IBM"), Value(100.0), Value(20)}));
  net.pump();
  EXPECT_EQ(sub.take_deliveries().size(), 1u);

  const auto stats = brokers[1]->stats();
  EXPECT_EQ(stats.control_plane.frontier_subscriptions, 1u);
  EXPECT_EQ(stats.control_plane.covered_subscriptions, 0u);
}

}  // namespace
}  // namespace gryphon
