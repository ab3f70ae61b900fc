// The mask-refinement search of paper Section 3.3.
#include "routing/link_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "matching/attribute_order.h"
#include "trit_reference.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

// link_match with masks written as strings of Y, M and N.
struct Routed {
  std::string mask;
  std::uint64_t steps{0};
};
Routed route(const AnnotatedPst& ann, const Event& e, const std::string& init) {
  MatchScratch scratch;
  const std::vector<TritWord> packed_init = reference::pack(init);
  std::vector<TritWord> out(2 * ann.words());
  const std::uint64_t steps = link_match(ann, e, packed_init, scratch, out);
  return {reference::unpack(out, ann.link_count()), steps};
}

Subscription sub_eq(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<AttributeTest> tests;
  for (const int v : values) {
    tests.push_back(v < 0 ? AttributeTest::dont_care() : AttributeTest::equals(Value(v)));
  }
  return Subscription(schema, std::move(tests));
}

Event ev(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<Value> v;
  for (const int x : values) v.emplace_back(x);
  return Event(schema, std::move(v));
}

class LinkMatchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kLinks = 4;
  SchemaPtr schema_ = make_synthetic_schema(4, 3);
  Pst tree_{schema_, identity_order(schema_)};
  std::unordered_map<SubscriptionId, LinkIndex> links_;
  std::int64_t next_id_{0};
  std::vector<std::pair<Subscription, LinkIndex>> subs_;

  SubscriptionLinkFn link_fn() {
    return [this](SubscriptionId id) { return links_.at(id); };
  }

  void add(std::vector<int> values, int link) {
    const SubscriptionId id{next_id_++};
    links_[id] = LinkIndex{link};
    const auto s = sub_eq(schema_, std::move(values));
    tree_.add(id, s);
    subs_.emplace_back(s, LinkIndex{link});
  }

  /// Ground truth: links with at least one matching subscriber.
  std::set<int> expected_links(const Event& e) {
    std::set<int> out;
    for (const auto& [s, link] : subs_) {
      if (s.matches(e)) out.insert(link.value);
    }
    return out;
  }

  std::set<int> yes_set(const std::string& mask) {
    std::set<int> out;
    for (std::size_t l = 0; l < mask.size(); ++l) {
      if (mask[l] == 'Y') out.insert(static_cast<int>(l));
    }
    return out;
  }
};

TEST_F(LinkMatchTest, ForwardsExactlyToMatchingLinks) {
  add({0, -1, -1, -1}, 0);
  add({1, -1, -1, -1}, 1);
  add({0, 1, -1, -1}, 2);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  const std::string init(kLinks, 'M');

  const auto r1 = route(ann, ev(schema_, {0, 1, 0, 0}), init);
  EXPECT_EQ(yes_set(r1.mask), (std::set<int>{0, 2}));
  EXPECT_EQ(r1.mask.find('M'), std::string::npos);

  const auto r2 = route(ann, ev(schema_, {1, 0, 0, 0}), init);
  EXPECT_EQ(yes_set(r2.mask), (std::set<int>{1}));

  const auto r3 = route(ann, ev(schema_, {2, 0, 0, 0}), init);
  EXPECT_TRUE(yes_set(r3.mask).empty());
}

TEST_F(LinkMatchTest, InitializationMaskBlocksNonDescendantLinks) {
  // Link 1 has a matching subscriber, but the spanning tree says nothing
  // downstream is reachable through it (No in the initialization mask).
  add({0, -1, -1, -1}, 0);
  add({0, -1, -1, -1}, 1);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  const std::string init = "MNMM";
  const auto r = route(ann, ev(schema_, {0, 0, 0, 0}), init);
  EXPECT_EQ(yes_set(r.mask), (std::set<int>{0}));
  EXPECT_EQ(r.mask[1], 'N');
}

TEST_F(LinkMatchTest, AllNoMaskShortCircuits) {
  add({-1, -1, -1, -1}, 0);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  const auto r = route(ann, ev(schema_, {0, 0, 0, 0}), std::string(kLinks, 'N'));
  EXPECT_EQ(r.steps, 0u);
  EXPECT_TRUE(yes_set(r.mask).empty());
}

TEST_F(LinkMatchTest, RootRefinementCanEndTheSearch) {
  // Match-all subscriptions on every link: the root annotation is all Yes,
  // so the search terminates after one visit (step 2 of the algorithm).
  for (int l = 0; l < static_cast<int>(kLinks); ++l) add({-1, -1, -1, -1}, l);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  const auto r = route(ann, ev(schema_, {0, 0, 0, 0}), std::string(kLinks, 'M'));
  EXPECT_EQ(yes_set(r.mask), (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.steps, 1u);
}

TEST_F(LinkMatchTest, MaskWidthMismatchThrows) {
  add({0, -1, -1, -1}, 0);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  // Packed, a mask names its width by its word count and by the bits it
  // sets: two words per plane, or a Maybe on a fifth link, is not a
  // 4-link mask.
  EXPECT_THROW(route(ann, ev(schema_, {0, 0, 0, 0}), std::string(65, 'M')),
               std::invalid_argument);
  EXPECT_THROW(route(ann, ev(schema_, {0, 0, 0, 0}), std::string(5, 'M')),
               std::invalid_argument);
}

TEST_F(LinkMatchTest, StaleAnnotationThrows) {
  add({0, -1, -1, -1}, 0);
  AnnotatedPst ann(tree_, kLinks, link_fn());
  add({1, -1, -1, -1}, 1);  // tree mutated, annotation not updated
  EXPECT_THROW(route(ann, ev(schema_, {0, 0, 0, 0}), std::string(kLinks, 'M')),
               std::logic_error);
}

TEST_F(LinkMatchTest, PartialMatchingCostsLessThanFullMatch) {
  // Link matching only needs to refine kLinks trits; on a broker with few
  // links and a selective workload it visits fewer nodes than enumerating
  // every matching subscription.
  Rng rng(44);
  const auto schema = make_synthetic_schema(10, 5);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  Pst tree(schema, identity_order(schema));
  std::unordered_map<SubscriptionId, LinkIndex> links;
  for (std::int64_t i = 0; i < 3000; ++i) {
    links[SubscriptionId{i}] = LinkIndex{static_cast<int>(rng.below(3))};
    tree.add(SubscriptionId{i}, gen.generate(rng));
  }
  AnnotatedPst ann(tree, 3, [&](SubscriptionId id) { return links.at(id); });

  EventGenerator events(schema);
  std::uint64_t link_steps = 0;
  MatchStats full_stats;
  std::vector<SubscriptionId> scratch;
  for (int i = 0; i < 100; ++i) {
    const Event e = events.generate(rng);
    link_steps += route(ann, e, std::string(3, 'M')).steps;
    scratch.clear();
    tree.match(e, scratch, &full_stats);
  }
  EXPECT_LT(link_steps, full_stats.nodes_visited);
}

TEST_F(LinkMatchTest, DelayedBranchingSavesSteps) {
  // A hot `*` subtree plus selective value branches: searching value
  // branches first lets the mask resolve before the star subtree is
  // explored.
  Rng rng(91);
  const auto schema = make_synthetic_schema(8, 4);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.7, 0.9, 1.0});

  Pst::Options delayed;
  Pst::Options eager;
  eager.delayed_star = false;
  Pst tree_delayed(schema, identity_order(schema), delayed);
  Pst tree_eager(schema, identity_order(schema), eager);
  std::unordered_map<SubscriptionId, LinkIndex> links;
  for (std::int64_t i = 0; i < 2000; ++i) {
    const auto s = gen.generate(rng);
    links[SubscriptionId{i}] = LinkIndex{static_cast<int>(rng.below(2))};
    tree_delayed.add(SubscriptionId{i}, s);
    tree_eager.add(SubscriptionId{i}, s);
  }
  const auto link_fn = [&](SubscriptionId id) { return links.at(id); };
  AnnotatedPst ann_delayed(tree_delayed, 2, link_fn);
  AnnotatedPst ann_eager(tree_eager, 2, link_fn);

  EventGenerator events(schema);
  std::uint64_t steps_delayed = 0, steps_eager = 0;
  for (int i = 0; i < 200; ++i) {
    const Event e = events.generate(rng);
    const auto rd = route(ann_delayed, e, std::string(2, 'M'));
    const auto re = route(ann_eager, e, std::string(2, 'M'));
    EXPECT_EQ(rd.mask, re.mask);  // same decision either way
    steps_delayed += rd.steps;
    steps_eager += re.steps;
  }
  EXPECT_LE(steps_delayed, steps_eager);
}

TEST_F(LinkMatchTest, PropertyYesLinksEqualMatchingSubscriberLinks) {
  Rng rng(7);
  SubscriptionGenerator gen(schema_, SubscriptionWorkloadConfig{0.85, 0.9, 1.0});
  for (int i = 0; i < 600; ++i) {
    const auto s = gen.generate(rng);
    const SubscriptionId id{next_id_++};
    const int link = static_cast<int>(rng.below(kLinks));
    links_[id] = LinkIndex{link};
    tree_.add(id, s);
    subs_.emplace_back(s, LinkIndex{link});
  }
  AnnotatedPst ann(tree_, kLinks, link_fn());
  EventGenerator events(schema_);
  const std::string init(kLinks, 'M');
  for (int i = 0; i < 300; ++i) {
    const Event e = events.generate(rng);
    const auto r = route(ann, e, init);
    EXPECT_EQ(r.mask.find('M'), std::string::npos);
    EXPECT_EQ(yes_set(r.mask), expected_links(e)) << "event " << e.to_text();
  }
}

}  // namespace
}  // namespace gryphon
