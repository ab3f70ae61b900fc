// Trit annotation of the PST (paper Section 3.1).
#include "routing/annotated_pst.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "matching/attribute_order.h"
#include "trit_reference.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

Subscription sub_eq(const SchemaPtr& schema, std::vector<int> values) {
  std::vector<AttributeTest> tests;
  for (const int v : values) {
    tests.push_back(v < 0 ? AttributeTest::dont_care() : AttributeTest::equals(Value(v)));
  }
  return Subscription(schema, std::move(tests));
}

class AnnotatedPstTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = make_synthetic_schema(2, 3);  // 2 attributes, values {0,1,2}
  std::unordered_map<SubscriptionId, LinkIndex> links_;

  SubscriptionLinkFn link_fn() {
    return [this](SubscriptionId id) { return links_.at(id); };
  }

  void add(Pst& tree, std::int64_t id, std::vector<int> values, int link) {
    links_[SubscriptionId{id}] = LinkIndex{link};
    tree.add(SubscriptionId{id}, sub_eq(schema_, std::move(values)));
  }

  std::string root_annotation(const Pst& tree) {
    AnnotatedPst ann(tree, 3, link_fn());
    return reference::unpack(ann.annotation(tree.root()), 3);
  }
};

TEST_F(AnnotatedPstTest, LeafAnnotation) {
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, 0}, 0);
  add(tree, 2, {0, 0}, 2);  // same leaf, different link
  AnnotatedPst ann(tree, 3, link_fn());
  // Walk to the leaf: root -> eq 0 -> eq 0.
  const auto l1 = tree.eq_children(tree.root())[0].second;
  const auto leaf = tree.eq_children(l1)[0].second;
  ASSERT_TRUE(tree.is_leaf(leaf));
  EXPECT_EQ(reference::unpack(ann.annotation(leaf), 3), "YNY");
}

TEST_F(AnnotatedPstTest, UncoveredValuesForceMaybe) {
  // One subscription pinned to a1=0 on link 0: an event with a1 != 0
  // matches nothing, so the root must say Maybe for link 0 (not Yes).
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, -1}, 0);
  EXPECT_EQ(root_annotation(tree), "MNN");
}

TEST_F(AnnotatedPstTest, FullDomainCoverageGivesYes) {
  // Subscriptions on link 0 for every a1 value, all don't-care on a2: any
  // event matches some subscription on link 0 -> root annotation Yes.
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, -1}, 0);
  add(tree, 2, {1, -1}, 0);
  add(tree, 3, {2, -1}, 0);
  EXPECT_EQ(root_annotation(tree), "YNN");
}

TEST_F(AnnotatedPstTest, StarBranchParallelCombineDominates) {
  // A match-all subscription on link 1 guarantees delivery on link 1 no
  // matter what the value branches say.
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, 0}, 0);
  add(tree, 2, {-1, -1}, 1);
  EXPECT_EQ(root_annotation(tree), "MYN");
}

TEST_F(AnnotatedPstTest, AlternativeAcrossValueBranches) {
  // Link 0 subscribed under a1=0, link 1 under a1=1: from the root the
  // outcome depends on the test -> Maybe for both.
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, -1}, 0);
  add(tree, 2, {1, -1}, 1);
  EXPECT_EQ(root_annotation(tree), "MMN");
}

TEST_F(AnnotatedPstTest, StarOnlyChainIsAnnotationTransparent) {
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {-1, 2}, 1);
  AnnotatedPst ann(tree, 3, link_fn());
  const auto star = tree.star_child(tree.root());
  ASSERT_NE(star, Pst::kNoNode);
  EXPECT_EQ(ann.annotation(tree.root()), ann.annotation(star));
}

TEST_F(AnnotatedPstTest, PaperFigure5Composition) {
  // Reconstruct the figure's situation at the root: value children whose
  // annotations alternative-combine to MYM, a star child with YYN, and a
  // final parallel combine to YYM. Domain {0,1,2} with a 2-branch ensures
  // full coverage (no implicit all-No).
  Pst tree(schema_, identity_order(schema_));
  // Child a1=0 should annotate MYY: link 0 Maybe (pinned a2), 1 Yes, 2 Yes.
  add(tree, 1, {0, 0}, 0);
  add(tree, 2, {0, -1}, 1);
  add(tree, 3, {0, -1}, 2);
  // Child a1=1 should annotate NYN.
  add(tree, 4, {1, -1}, 1);
  // Child a1=2 also NYN (keeps the domain covered, mirroring the figure's
  // two-alternative merge).
  add(tree, 5, {2, -1}, 1);
  // Star child annotates YYN.
  add(tree, 6, {-1, -1}, 0);
  add(tree, 7, {-1, -1}, 1);

  AnnotatedPst ann(tree, 3, link_fn());
  const auto a0 = tree.eq_children(tree.root())[0].second;
  const auto a1 = tree.eq_children(tree.root())[1].second;
  const auto star = tree.star_child(tree.root());
  const auto text = [&](Pst::NodeId n) { return reference::unpack(ann.annotation(n), 3); };
  EXPECT_EQ(text(a0), "MYY");
  EXPECT_EQ(text(a1), "NYN");
  EXPECT_EQ(text(star), "YYN");
  EXPECT_EQ(text(tree.root()), "YYM");
}

TEST_F(AnnotatedPstTest, RangeBranchesAnnotateConservatively) {
  // The paper's annotation covers equality-only trees; general branches are
  // handled here with the sound fallback: a range branch can contribute
  // Maybe or No at its parent, never Yes (the implicit all-No alternative
  // is always in its Alternative combine).
  Pst tree(schema_, identity_order(schema_));
  std::vector<AttributeTest> tests(2);
  tests[0] = AttributeTest::between(Value(0), Value(2));  // accepts the whole domain
  links_[SubscriptionId{1}] = LinkIndex{0};
  tree.add(SubscriptionId{1}, Subscription(schema_, tests));
  // Even though the range accepts every domain value, coverage is not
  // provable, so the root says Maybe — conservative, not wrong.
  EXPECT_EQ(root_annotation(tree), "MNN");

  // A match-all subscription still yields Yes through the star branch.
  links_[SubscriptionId{2}] = LinkIndex{1};
  AnnotatedPst ann(tree, 3, link_fn());
  ann.apply(tree.add(SubscriptionId{2}, sub_eq(schema_, {-1, -1})));
  EXPECT_EQ(reference::unpack(ann.annotation(tree.root()), 3), "MYN");
  ann.check_consistency();
}

TEST_F(AnnotatedPstTest, IncrementalTracksMutations) {
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, 0}, 0);
  AnnotatedPst ann(tree, 3, link_fn());
  EXPECT_TRUE(ann.in_sync());

  links_[SubscriptionId{2}] = LinkIndex{1};
  const auto mutation = tree.add(SubscriptionId{2}, sub_eq(schema_, {-1, -1}));
  EXPECT_FALSE(ann.in_sync());
  ann.apply(mutation);
  EXPECT_TRUE(ann.in_sync());
  ann.check_consistency();

  const auto removal = tree.remove(SubscriptionId{1}, sub_eq(schema_, {0, 0}));
  ASSERT_TRUE(removal.has_value());
  ann.apply(*removal);
  ann.check_consistency();
}

TEST_F(AnnotatedPstTest, StaleAnnotationDetected) {
  Pst tree(schema_, identity_order(schema_));
  add(tree, 1, {0, 0}, 0);
  AnnotatedPst ann(tree, 3, link_fn());
  add(tree, 2, {1, 1}, 1);  // mutation not applied to ann
  EXPECT_FALSE(ann.in_sync());
}

TEST_F(AnnotatedPstTest, IncrementalMatchesRebuildUnderChurn) {
  Rng rng(123);
  const auto schema = make_synthetic_schema(5, 3);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  Pst tree(schema, identity_order(schema));
  std::unordered_map<SubscriptionId, LinkIndex> links;
  AnnotatedPst ann(tree, 4, [&](SubscriptionId id) { return links.at(id); });

  std::vector<std::pair<SubscriptionId, Subscription>> live;
  std::int64_t next_id = 0;
  for (int round = 0; round < 250; ++round) {
    if (live.empty() || rng.chance(0.6)) {
      const Subscription s = gen.generate(rng);
      const SubscriptionId id{next_id++};
      links[id] = LinkIndex{static_cast<int>(rng.below(4))};
      ann.apply(tree.add(id, s));
      live.emplace_back(id, s);
    } else {
      const std::size_t pick = rng.below(live.size());
      const auto mutation = tree.remove(live[pick].first, live[pick].second);
      ASSERT_TRUE(mutation.has_value());
      ann.apply(*mutation);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 25 == 0) ann.check_consistency();
  }
  ann.check_consistency();
}

TEST_F(AnnotatedPstTest, NullLinkFunctionRejected) {
  Pst tree(schema_, identity_order(schema_));
  EXPECT_THROW(AnnotatedPst(tree, 3, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace gryphon
