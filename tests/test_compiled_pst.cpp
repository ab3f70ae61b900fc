// Differential tests for the compiled flat PST kernel: under randomized
// subscribe/unsubscribe churn, the compiled representation must produce
// exactly the match sets of the mutable Pst (and of brute-force predicate
// evaluation — the oracle idiom of test_concurrent_matching.cpp), and
// compiled_dispatch must produce bit-identical link-matching decisions to
// two references: link_match over an AnnotatedPst (the refined mask, and
// the step count when no local enumeration is asked for) and a naive
// matcher filtered to the local link (the local-match set), at 4 links
// under churn and at link counts on both sides of each 64-link plane-word
// boundary; and the reach-list dispatch (CompiledPst::reach plus
// compiled_dispatch over the list) holds to the kernel walk and link_match
// at those widths, under both star orders. Plus direct coverage of the
// representational edges: string
// interning, the -0.0/+0.0 double key, and the precompiled
// eq_children_cover_domain flag; and, in the CompiledPstStructure suite,
// the kernel's structural contract: star-chain collapse, match sets equal
// to the live tree's, and equal steps under trivial-test elimination.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "matching/attribute_order.h"
#include "matching/compiled_pst.h"
#include "matching/naive_matcher.h"
#include "matching/pst.h"
#include "matching/pst_matcher.h"
#include "routing/annotated_pst.h"
#include "routing/compiled_annotation.h"
#include "routing/link_matcher.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// A mixed schema: finite-domain ints (equality/range/star branches) plus a
// string attribute (interning) — richer than the synthetic generator covers.
SchemaPtr mixed_schema() {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 3; ++i) {
    attrs.push_back({"i" + std::to_string(i), AttributeType::kInt,
                     {Value(0), Value(1), Value(2), Value(3)}});
  }
  attrs.push_back({"s", AttributeType::kString, {}});
  return make_schema("mixed", std::move(attrs));
}

const std::vector<std::string>& string_pool() {
  static const std::vector<std::string> pool{"", "alpha", "alp", "beta", "Ωmega"};
  return pool;
}

Subscription random_subscription(const SchemaPtr& schema, Rng& rng) {
  std::vector<AttributeTest> tests;
  for (std::size_t a = 0; a < schema->attribute_count(); ++a) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 3) {
      tests.push_back(AttributeTest::dont_care());
      continue;
    }
    if (schema->attribute(a).type == AttributeType::kString) {
      tests.push_back(AttributeTest::equals(
          Value(string_pool()[rng.below(string_pool().size())])));
      continue;
    }
    const auto v = static_cast<int>(rng.below(4));
    if (roll < 8) {
      tests.push_back(AttributeTest::equals(Value(v)));
    } else if (roll == 8) {
      tests.push_back(AttributeTest::less_than(Value(v), /*inclusive=*/true));
    } else {
      tests.push_back(AttributeTest::not_equals(Value(v)));
    }
  }
  return Subscription(schema, std::move(tests));
}

Event random_event(const SchemaPtr& schema, Rng& rng) {
  std::vector<Value> values;
  for (std::size_t a = 0; a < schema->attribute_count(); ++a) {
    if (schema->attribute(a).type == AttributeType::kString) {
      // 1-in-4 events carry a string no subscription ever tests for, so the
      // kUnknownKey path is exercised continuously.
      values.emplace_back(rng.below(4) == 0 ? std::string("unknown-" +
                                                          std::to_string(rng.below(3)))
                                            : string_pool()[rng.below(string_pool().size())]);
    } else {
      values.emplace_back(static_cast<int>(rng.below(4)));
    }
  }
  return Event(schema, std::move(values));
}

// CompiledAnnotation's flat tables from per-group link functions: every
// subscriber is its own owner (ids are small and dense), and group g's
// table maps owner i to group_fns[g](SubscriptionId{i}).
CompiledAnnotation annotate(const CompiledPst& kernel, std::size_t links,
                            const std::vector<SubscriptionLinkFn>& group_fns, LinkIndex local) {
  std::vector<std::uint32_t> owners;
  for (const SubscriptionId id : kernel.subscriber_arena()) {
    owners.push_back(static_cast<std::uint32_t>(id.value));
  }
  const std::uint32_t bound =
      owners.empty() ? 0 : *std::max_element(owners.begin(), owners.end()) + 1;
  std::vector<std::vector<LinkIndex>> tables;
  for (const SubscriptionLinkFn& fn : group_fns) {
    std::vector<LinkIndex>& table = tables.emplace_back();
    for (std::uint32_t i = 0; i < bound; ++i) table.push_back(fn(SubscriptionId{i}));
  }
  return CompiledAnnotation(kernel, links, owners, tables, local);
}

class CompiledPstChurn : public ::testing::TestWithParam<bool> {};

TEST_P(CompiledPstChurn, MatchSetsIdenticalToMutableTreeAndOracle) {
  const SchemaPtr schema = mixed_schema();
  const Pst::Options options{.trivial_test_elimination = true, .delayed_star = GetParam()};
  Pst tree(schema, {0, 1, 2, 3}, options);
  std::map<SubscriptionId, Subscription> live;
  Rng rng(411);
  MatchScratch scratch;
  std::int64_t next_id = 0;

  for (int round = 0; round < 25; ++round) {
    for (std::uint64_t i = 0, n = 4 + rng.below(20); i < n; ++i) {
      const SubscriptionId id{next_id++};
      live.emplace(id, random_subscription(schema, rng));
      tree.add(id, live.at(id));
    }
    while (!live.empty() && rng.below(3) != 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      ASSERT_TRUE(tree.remove(it->first, it->second).has_value());
      live.erase(it);
    }

    const CompiledPst compiled(tree);
    for (int probe = 0; probe < 40; ++probe) {
      const Event e = random_event(schema, rng);
      std::vector<SubscriptionId> from_tree;
      tree.match(e, from_tree);
      std::vector<SubscriptionId> from_compiled;
      compiled.match(e, from_compiled, scratch);
      std::vector<SubscriptionId> from_oracle;
      for (const auto& [id, sub] : live) {
        if (sub.matches(e)) from_oracle.push_back(id);
      }
      ASSERT_EQ(sorted(from_compiled), sorted(from_tree));
      ASSERT_EQ(sorted(from_compiled), from_oracle);
    }
  }
}

TEST_P(CompiledPstChurn, DispatchDecisionsIdenticalToLinkMatch) {
  const SchemaPtr schema = mixed_schema();
  const Pst::Options options{.trivial_test_elimination = true, .delayed_star = GetParam()};
  Pst tree(schema, {0, 1, 2, 3}, options);
  std::map<SubscriptionId, Subscription> live;
  Rng rng(2203);
  MatchScratch compiled_scratch;
  std::int64_t next_id = 0;

  // 4 links, link 3 local. Two spanning-tree groups that disagree on
  // remote link assignment but (as BrokerCore guarantees) agree on which
  // subscriptions are local.
  constexpr std::size_t kLinks = 4;
  const LinkIndex local{3};
  const auto owner_of = [](SubscriptionId id) {
    return static_cast<LinkIndex::rep_type>(id.value % kLinks);
  };
  const std::vector<SubscriptionLinkFn> group_fns{
      [&](SubscriptionId id) { return LinkIndex{owner_of(id)}; },
      [&](SubscriptionId id) {
        const auto o = owner_of(id);
        return LinkIndex{o == local.value ? o : static_cast<LinkIndex::rep_type>((o + 1) % 3)};
      }};
  std::vector<AnnotatedPst> reference_ann;
  for (const auto& fn : group_fns) reference_ann.emplace_back(tree, kLinks, fn);

  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t i = 0, n = 4 + rng.below(16); i < n; ++i) {
      const SubscriptionId id{next_id++};
      live.emplace(id, random_subscription(schema, rng));
      const Pst::Mutation mutation = tree.add(id, live.at(id));
      for (AnnotatedPst& ann : reference_ann) ann.apply(mutation);
    }
    while (!live.empty() && rng.below(3) != 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      const auto mutation = tree.remove(it->first, it->second);
      ASSERT_TRUE(mutation.has_value());
      for (AnnotatedPst& ann : reference_ann) ann.apply(*mutation);
      live.erase(it);
    }
    NaiveMatcher local_oracle;
    for (const auto& [id, sub] : live) {
      if (owner_of(id) == local.value) local_oracle.add(id, sub);
    }

    const CompiledPst compiled(tree);
    const CompiledAnnotation compiled_ann = annotate(compiled, kLinks, group_fns, local);

    for (int probe = 0; probe < 30; ++probe) {
      const Event e = random_event(schema, rng);
      TritVector init(kLinks, Trit::No);
      for (std::size_t l = 0; l < kLinks; ++l) {
        init.set(l, static_cast<Trit>(rng.below(3)));
      }
      std::vector<SubscriptionId> want_local;
      local_oracle.match_into(e, want_local);
      for (std::size_t g = 0; g < group_fns.size(); ++g) {
        const LinkMatchResult expected = link_match(reference_ann[g], e, init);
        const CompiledDispatchResult routed =
            compiled_dispatch(compiled_ann, g, e, init, compiled_scratch, nullptr);
        ASSERT_TRUE(routed.mask.equals(expected.mask.span()))
            << "mask " << routed.mask.to_string() << " != " << expected.mask.to_string();
        ASSERT_EQ(routed.steps, expected.steps);
        // Local enumeration searches further, so only the mask and the
        // local set are comparable.
        std::vector<SubscriptionId> got_local;
        const CompiledDispatchResult got =
            compiled_dispatch(compiled_ann, g, e, init, compiled_scratch, &got_local);
        ASSERT_TRUE(got.mask.equals(expected.mask.span()))
            << "mask " << got.mask.to_string() << " != " << expected.mask.to_string();
        ASSERT_EQ(sorted(got_local), sorted(want_local));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StarOrders, CompiledPstChurn, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "delayed_star" : "eager_star";
                         });

// Plane-width boundaries: the packed dispatch must agree with link_match
// (mask and steps) and with a filtered naive matcher (local set) at link
// counts on both sides of each stored row width (8-, 16-, 32- and 64-bit
// planes, then multi-word rows) and of each 64-link word boundary, with
// the local link set (the last link) and unset.
class CompiledDispatchWidth
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(CompiledDispatchWidth, MaskStepsAndLocalsIdenticalToLinkMatch) {
  const std::size_t links = std::get<0>(GetParam());
  const bool with_local = std::get<1>(GetParam());
  const SchemaPtr schema = mixed_schema();
  Pst tree(schema, {0, 1, 2, 3}, Pst::Options{.trivial_test_elimination = true});
  std::map<SubscriptionId, Subscription> live;
  Rng rng(5101 + links);
  MatchScratch scratch;
  const LinkIndex local =
      with_local ? LinkIndex{static_cast<LinkIndex::rep_type>(links - 1)} : LinkIndex{};
  // Spread owners over every link; the second group rotates the remote
  // links and keeps the local link, as BrokerCore's groups do.
  const auto owner_link = [links](SubscriptionId id) {
    return LinkIndex{static_cast<LinkIndex::rep_type>((id.value * 37) % links)};
  };
  const std::size_t remote = with_local ? links - 1 : links;
  const std::vector<SubscriptionLinkFn> group_fns{
      owner_link, [&, remote](SubscriptionId id) {
        const LinkIndex l = owner_link(id);
        return l == local ? l
                          : LinkIndex{static_cast<LinkIndex::rep_type>((l.value + 1) % remote)};
      }};
  std::int64_t next_id = 0;

  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t i = 0, n = 10 + rng.below(30); i < n; ++i) {
      const SubscriptionId id{next_id++};
      live.emplace(id, random_subscription(schema, rng));
      tree.add(id, live.at(id));
    }
    while (!live.empty() && rng.below(4) != 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      ASSERT_TRUE(tree.remove(it->first, it->second).has_value());
      live.erase(it);
    }
    NaiveMatcher local_oracle;
    for (const auto& [id, sub] : live) {
      if (local.valid() && owner_link(id) == local) local_oracle.add(id, sub);
    }
    std::vector<AnnotatedPst> reference;
    for (const auto& fn : group_fns) reference.emplace_back(tree, links, fn);
    const CompiledPst compiled(tree);
    const CompiledAnnotation annotated = annotate(compiled, links, group_fns, local);
    ASSERT_EQ(annotated.words(), (links + 63) / 64);
    const std::size_t plane_bytes = links <= 8 ? 1 : links <= 16 ? 2 : links <= 32 ? 4 : 8;
    ASSERT_EQ(annotated.plane_bytes(), plane_bytes);
    // Each stored row holds two planes of words() plane words, and the
    // rank index one 12-byte block per 64 kernel nodes per group; without
    // a local link there is nothing else (no local-slice table).
    const std::size_t row_bytes =
        annotated.stored_rows() * 2 * annotated.words() * plane_bytes +
        group_fns.size() * ((compiled.node_count() + 63) / 64) *
            sizeof(CompiledAnnotation::RankBlock);
    ASSERT_EQ(sizeof(CompiledAnnotation::RankBlock), 12U);
    if (with_local) {
      ASSERT_GT(annotated.memory_bytes(), sizeof(CompiledAnnotation) + row_bytes);
    } else {
      ASSERT_EQ(annotated.memory_bytes(), sizeof(CompiledAnnotation) + row_bytes);
    }

    for (int probe = 0; probe < 25; ++probe) {
      const Event e = random_event(schema, rng);
      TritVector init(links, Trit::No);
      for (std::size_t l = 0; l < links; ++l) init.set(l, static_cast<Trit>(rng.below(3)));
      std::vector<SubscriptionId> want_local;
      local_oracle.match_into(e, want_local);
      for (std::size_t g = 0; g < group_fns.size(); ++g) {
        const LinkMatchResult expected = link_match(reference[g], e, init);
        const CompiledDispatchResult routed =
            compiled_dispatch(annotated, g, e, init, scratch, nullptr);
        ASSERT_EQ(routed.mask, expected.mask)
            << routed.mask.to_string() << " != " << expected.mask.to_string();
        ASSERT_EQ(routed.steps, expected.steps);
        std::vector<SubscriptionId> got_local;
        const CompiledDispatchResult with_locals =
            compiled_dispatch(annotated, g, e, init, scratch, &got_local);
        ASSERT_EQ(with_locals.mask, expected.mask);
        ASSERT_EQ(sorted(got_local), sorted(want_local));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlaneWidths, CompiledDispatchWidth,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 9, 16, 17, 32, 33, 63, 64, 65,
                                                      128, 130),
                       ::testing::Bool()),
    [](const auto& info) {
      return "links" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_local" : "_no_local");
    });

// The reach-list dispatch: CompiledPst::reach lists the nodes an event
// reaches once, and compiled_dispatch over that list refines rows without
// walking the kernel. On random trees with general tests, at every stored
// row width (rows wider than 64 links included) and both star orders, its
// masks and step counts must equal the kernel walk's and link_match's,
// under random, all-No and all-Maybe initialization masks; the list must
// hold exactly the nodes match() visits, in pre-order; and an empty kernel
// reaches nothing and leaves every Maybe No.
class ReachDispatch : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(ReachDispatch, MasksAndStepsIdenticalToKernelWalkAndLinkMatch) {
  const std::size_t links = std::get<0>(GetParam());
  const bool delayed = std::get<1>(GetParam());
  const SchemaPtr schema = mixed_schema();
  Pst tree(schema, {0, 1, 2, 3},
           Pst::Options{.trivial_test_elimination = true, .delayed_star = delayed});
  std::map<SubscriptionId, Subscription> live;
  Rng rng(7301 + 2 * links + (delayed ? 1 : 0));
  MatchScratch scratch;
  const auto owner_link = [links](SubscriptionId id) {
    return LinkIndex{static_cast<LinkIndex::rep_type>((id.value * 37) % links)};
  };
  const std::vector<SubscriptionLinkFn> group_fns{
      owner_link, [links, &owner_link](SubscriptionId id) {
        return LinkIndex{static_cast<LinkIndex::rep_type>((owner_link(id).value + 1) % links)};
      }};
  const auto masks = [&] {
    std::vector<TritVector> out{TritVector(links, Trit::No), TritVector(links, Trit::Maybe)};
    TritVector mixed(links, Trit::No);
    for (std::size_t l = 0; l < links; ++l) mixed.set(l, static_cast<Trit>(rng.below(3)));
    out.push_back(std::move(mixed));
    return out;
  };

  {
    // The empty kernel (an empty bucket): nothing is reached, and both
    // searches only turn the Maybes No.
    const CompiledPst empty(tree);
    const CompiledAnnotation annotated = annotate(empty, links, group_fns, LinkIndex{});
    const Event e = random_event(schema, rng);
    EventReach reach;
    empty.reach(e, reach, scratch);
    ASSERT_TRUE(reach.entries.empty());
    for (const TritVector& init : masks()) {
      const CompiledDispatchResult walked =
          compiled_dispatch(annotated, 0, e, init, scratch, nullptr);
      const CompiledDispatchResult reached = compiled_dispatch(annotated, 0, reach, init, scratch);
      ASSERT_EQ(reached.mask, walked.mask);
      ASSERT_EQ(reached.steps, walked.steps);
      ASSERT_FALSE(reached.mask.has_maybe());
    }
  }

  std::int64_t next_id = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t i = 0, n = 10 + rng.below(30); i < n; ++i) {
      const SubscriptionId id{next_id++};
      live.emplace(id, random_subscription(schema, rng));
      tree.add(id, live.at(id));
    }
    while (live.size() > 1 && rng.below(4) != 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      ASSERT_TRUE(tree.remove(it->first, it->second).has_value());
      live.erase(it);
    }
    std::vector<AnnotatedPst> reference;
    for (const auto& fn : group_fns) reference.emplace_back(tree, links, fn);
    const CompiledPst compiled(tree);
    const CompiledAnnotation annotated = annotate(compiled, links, group_fns, LinkIndex{});

    EventReach reach;
    for (int probe = 0; probe < 20; ++probe) {
      const Event e = random_event(schema, rng);
      compiled.reach(e, reach, scratch);
      // Exactly match()'s nodes, the root first, each subtree within its
      // parent's.
      MatchStats stats;
      std::vector<SubscriptionId> matched;
      compiled.match(e, matched, scratch, &stats);
      ASSERT_EQ(reach.entries.size(), stats.nodes_visited);
      ASSERT_EQ(reach.entries.front().node, compiled.root());
      ASSERT_EQ(reach.entries.front().end, reach.entries.size());
      for (std::size_t i = 0; i < reach.entries.size(); ++i) {
        ASSERT_GT(reach.entries[i].end, i);
        ASSERT_LE(reach.entries[i].end, reach.entries.size());
      }
      for (const TritVector& init : masks()) {
        for (std::size_t g = 0; g < group_fns.size(); ++g) {
          const LinkMatchResult expected = link_match(reference[g], e, init);
          const CompiledDispatchResult walked =
              compiled_dispatch(annotated, g, e, init, scratch, nullptr);
          const CompiledDispatchResult reached =
              compiled_dispatch(annotated, g, reach, init, scratch);
          ASSERT_EQ(reached.mask, walked.mask)
              << reached.mask.to_string() << " != " << walked.mask.to_string();
          ASSERT_EQ(reached.steps, walked.steps);
          ASSERT_EQ(reached.mask, expected.mask)
              << reached.mask.to_string() << " != " << expected.mask.to_string();
          ASSERT_EQ(reached.steps, expected.steps);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlaneWidths, ReachDispatch,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 9, 16, 17, 32, 33, 63, 64, 65,
                                                      128, 130),
                       ::testing::Bool()),
    [](const auto& info) {
      return "links" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_delayed_star" : "_eager_star");
    });

// The stored rows are exactly the rows a search can reach: the root's,
// and every child's whose parent row is stored and holds a Maybe or, with
// a local link, a local trit that is not No. The rule is recomputed here
// from byte-form rows folded over the kernel (Section 3.1's combines), so
// the kept set does not come from the code under test.
TEST(CompiledAnnotationStorage, StoredRowsAreTheNodesASearchCanReach) {
  const SchemaPtr schema = mixed_schema();
  for (const std::size_t links : {3u, 9u, 70u}) {
    for (const bool with_local : {false, true}) {
      Pst tree(schema, {0, 1, 2, 3}, Pst::Options{.trivial_test_elimination = true});
      Rng rng(8807 + links);
      for (std::int64_t i = 0; i < 800; ++i) {
        tree.add(SubscriptionId{i}, random_subscription(schema, rng));
      }
      const LinkIndex local =
          with_local ? LinkIndex{static_cast<LinkIndex::rep_type>(links - 1)} : LinkIndex{};
      const std::vector<SubscriptionLinkFn> group_fns{
          [links](SubscriptionId id) {
            return LinkIndex{static_cast<LinkIndex::rep_type>((id.value * 7) % links)};
          },
          [links](SubscriptionId id) {
            return LinkIndex{static_cast<LinkIndex::rep_type>((id.value / 3) % links)};
          }};
      const CompiledPst kernel(tree);
      const CompiledAnnotation annotated = annotate(kernel, links, group_fns, local);
      std::size_t total = 0;
      for (std::size_t g = 0; g < group_fns.size(); ++g) {
        // Every node's row, children before parents.
        std::vector<TritVector> rows(kernel.node_count(), TritVector(links, Trit::No));
        for (const CompiledPst::NodeId n : kernel.bottom_up_order()) {
          TritVector& row = rows[static_cast<std::size_t>(n)];
          if (kernel.is_leaf(n)) {
            for (const SubscriptionId id : kernel.subscribers(n)) {
              row.set(static_cast<std::size_t>(group_fns[g](id).value), Trit::Yes);
            }
            continue;
          }
          bool first = kernel.covers_domain(n);
          const auto fold = [&](CompiledPst::NodeId child) {
            const TritVector& other = rows[static_cast<std::size_t>(child)];
            if (first) {
              row = other;
            } else {
              row.alternative_with(other);
            }
            first = false;
          };
          for (const CompiledPst::NodeId child : kernel.eq_targets(n)) fold(child);
          for (const CompiledPst::NodeId child : kernel.other_targets(n)) fold(child);
          if (kernel.star_child(n) != CompiledPst::kNoNode) {
            row.parallel_with(rows[static_cast<std::size_t>(kernel.star_child(n))]);
          }
        }
        // The kept set, top-down from the root.
        std::vector<CompiledPst::NodeId> stack{kernel.root()};
        std::size_t kept_count = 0;
        while (!stack.empty()) {
          const CompiledPst::NodeId n = stack.back();
          stack.pop_back();
          ++kept_count;
          const TritVector& row = rows[static_cast<std::size_t>(n)];
          const bool expands = row.has_maybe() || (local.valid() && row.at(local) != Trit::No);
          if (kernel.is_leaf(n) || !expands) continue;
          for (const CompiledPst::NodeId child : kernel.eq_targets(n)) stack.push_back(child);
          for (const CompiledPst::NodeId child : kernel.other_targets(n)) stack.push_back(child);
          if (kernel.star_child(n) != CompiledPst::kNoNode) stack.push_back(kernel.star_child(n));
        }
        ASSERT_EQ(annotated.stored_rows(g), kept_count) << links << " links, group " << g;
        total += kept_count;
      }
      EXPECT_EQ(annotated.stored_rows(), total);
      EXPECT_LT(total, group_fns.size() * kernel.node_count())
          << links << " links: nothing trimmed, the case is too weak";
    }
  }
}

TEST(CompiledDispatch, PackedEntryRejectsBadWidthAndGroup) {
  const SchemaPtr schema = mixed_schema();
  Pst tree(schema, {0, 1, 2, 3}, Pst::Options{.trivial_test_elimination = true});
  Rng rng(3);
  tree.add(SubscriptionId{0}, random_subscription(schema, rng));
  const CompiledPst compiled(tree);
  const CompiledAnnotation annotated =
      annotate(compiled, 3, {[](SubscriptionId) { return LinkIndex{0}; }}, LinkIndex{});
  MatchScratch scratch;
  const Event e = random_event(schema, rng);
  std::vector<TritWord> out(2);
  // Two words per plane for a one-word annotation.
  EXPECT_THROW(compiled_dispatch_into(annotated, 0, e, std::vector<TritWord>(4), scratch,
                                      nullptr, out),
               std::invalid_argument);
  // A Maybe on link 3 of a 3-link annotation.
  EXPECT_THROW(compiled_dispatch_into(annotated, 0, e, std::vector<TritWord>{0, 0b1000},
                                      scratch, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(compiled_dispatch_into(annotated, 1, e, std::vector<TritWord>{0, 0b111}, scratch,
                                      nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(compiled_dispatch(annotated, 0, e, TritVector(4, Trit::Maybe), scratch, nullptr),
               std::invalid_argument);
}

// Every bucket's frozen kernel and the epoch of its tree, keyed by tree.
struct BucketKernel {
  std::uint64_t epoch;
  std::size_t subscriptions;
  std::shared_ptr<const CompiledPst> kernel;
};
std::map<const Pst*, BucketKernel> bucket_kernels(const PstMatcher& matcher) {
  std::map<const Pst*, BucketKernel> out;
  matcher.for_each_bucket([&](const FactoringIndex::Key*, const Pst& tree,
                              std::shared_ptr<const CompiledPst> kernel) {
    out.emplace(&tree, BucketKernel{tree.epoch(), tree.subscription_count(), std::move(kernel)});
  });
  return out;
}

TEST(CompiledPst, MatcherFrozenKernelAgreesAcrossFreezesAndMutations) {
  // PstMatcher-level differential with factoring: freeze -> mutate ->
  // match -> freeze. The frozen matcher must agree with an unfrozen twin
  // (mutable walk throughout, same step counts) and with NaiveMatcher both
  // right after a freeze and after mutations that left its kernels stale;
  // freeze() must recompile exactly the trees that changed.
  const auto schema = make_synthetic_schema(6, 4);
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher frozen(schema, options);
  PstMatcher plain(schema, options);
  NaiveMatcher naive;

  Rng rng(909);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema);
  std::int64_t next_id = 0;
  std::vector<SubscriptionId> ids;
  const auto add = [&](SubscriptionId id, const Subscription& sub) {
    frozen.add(id, sub);
    plain.add(id, sub);
    naive.add(id, sub);
  };
  const auto remove = [&](SubscriptionId id) {
    ASSERT_TRUE(frozen.remove(id));
    ASSERT_TRUE(plain.remove(id));
    ASSERT_TRUE(naive.remove(id));
  };
  const auto probe = [&](const char* phase, int round) {
    for (int i = 0; i < 12; ++i) {
      const Event e = events.generate(rng);
      std::vector<SubscriptionId> a;
      MatchStats a_stats;
      frozen.match_into(e, a, &a_stats);
      std::vector<SubscriptionId> b;
      MatchStats b_stats;
      plain.match_into(e, b, &b_stats);
      std::vector<SubscriptionId> c;
      naive.match_into(e, c);
      ASSERT_EQ(sorted(a), sorted(b)) << phase << " round " << round;
      ASSERT_EQ(sorted(a), sorted(c)) << phase << " round " << round;
      ASSERT_EQ(a_stats.nodes_visited, b_stats.nodes_visited) << phase << " round " << round;
    }
  };

  std::size_t kept = 0;  // kernels a second freeze left in place
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 40; ++i) {
      const SubscriptionId id{next_id++};
      add(id, gen.generate(rng));
      ids.push_back(id);
    }
    for (int i = 0; i < 10 && !ids.empty(); ++i) {
      const std::size_t pick = rng.below(ids.size());
      const SubscriptionId id = ids[pick];
      ids[pick] = ids.back();
      ids.pop_back();
      remove(id);
    }
    frozen.freeze();
    const std::map<const Pst*, BucketKernel> first = bucket_kernels(frozen);
    for (const auto& [tree, now] : first) {
      // Empty trees carry no kernel; every other tree a current one.
      (void)tree;
      ASSERT_EQ(now.kernel == nullptr, now.subscriptions == 0) << "round " << round;
    }
    probe("frozen", round);

    // One more subscription, then a second freeze: exactly the trees it
    // landed in get a new kernel.
    const SubscriptionId extra{next_id++};
    add(extra, gen.generate(rng));
    ids.push_back(extra);
    frozen.freeze();
    for (const auto& [tree, now] : bucket_kernels(frozen)) {
      const auto old = first.find(tree);
      if (old == first.end() || old->second.kernel == nullptr) continue;
      ASSERT_NE(now.kernel, nullptr) << "round " << round;
      ASSERT_EQ(now.kernel == old->second.kernel, now.epoch == old->second.epoch)
          << "round " << round;
      if (now.kernel == old->second.kernel) ++kept;
    }
    probe("refrozen", round);

    // Mutate after the freeze: a catch-all lands in every bucket and
    // leaves every kernel stale, so only a mutable walk can report it.
    const SubscriptionId catch_all{next_id++};
    add(catch_all, Subscription(schema, std::vector<AttributeTest>(
                                            schema->attribute_count(),
                                            AttributeTest::dont_care())));
    for (const auto& [tree, stale] : bucket_kernels(frozen)) {
      (void)tree;
      ASSERT_EQ(stale.kernel, nullptr) << "round " << round;
    }
    probe("stale", round);
    const Event e = events.generate(rng);
    std::vector<SubscriptionId> matched;
    frozen.match_into(e, matched);
    ASSERT_NE(std::find(matched.begin(), matched.end(), catch_all), matched.end())
        << "round " << round;
    remove(catch_all);
  }
  EXPECT_GT(kept, 0u);
}

TEST(CompiledPst, MatcherStepCountStableWithoutTrivialTestElimination) {
  // The compiled kernel collapses star chains structurally, so it may only
  // stand in for the mutable walk when the tree applies trivial-test
  // elimination too; otherwise the step count would change once the
  // matcher is frozen.
  const auto schema = make_synthetic_schema(5, 3);
  PstMatcherOptions options;
  options.tree.trivial_test_elimination = false;
  PstMatcher matcher(schema, options);
  Rng rng(77);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.5, 1.0});
  for (std::int64_t i = 0; i < 50; ++i) matcher.add(SubscriptionId{i}, gen.generate(rng));
  const Event e = EventGenerator(schema).generate(rng);

  const MatchResult first = matcher.match(e);
  matcher.freeze();
  for (unsigned call = 1; call < 4; ++call) {
    const MatchResult again = matcher.match(e);
    ASSERT_EQ(again.stats.nodes_visited, first.stats.nodes_visited) << "call " << call;
    ASSERT_EQ(sorted(again.ids), sorted(first.ids)) << "call " << call;
  }
}

TEST(CompiledPst, StringInterningEdgeCases) {
  std::vector<Attribute> attrs{{"s", AttributeType::kString, {}}};
  const SchemaPtr schema = make_schema("strings", std::move(attrs));
  Pst tree(schema, {0});
  tree.add(SubscriptionId{1}, Subscription(schema, {AttributeTest::equals(Value(""))}));
  tree.add(SubscriptionId{2}, Subscription(schema, {AttributeTest::equals(Value("alpha"))}));
  tree.add(SubscriptionId{3}, Subscription(schema, {AttributeTest::equals(Value("alp"))}));
  tree.add(SubscriptionId{4}, Subscription(schema, {AttributeTest::dont_care()}));

  const CompiledPst compiled(tree);
  // Distinct operands intern distinctly; the empty string is a real key.
  EXPECT_EQ(compiled.string_pool_size(), 3u);
  EXPECT_NE(compiled.key_of(Value("")), CompiledPst::kUnknownKey);
  EXPECT_NE(compiled.key_of(Value("alpha")), compiled.key_of(Value("alp")));
  // A string no subscription mentions resolves to the unmatchable key.
  EXPECT_EQ(compiled.key_of(Value("alphabet")), CompiledPst::kUnknownKey);

  MatchScratch scratch;
  const auto match = [&](const char* s) {
    std::vector<SubscriptionId> out;
    compiled.match(Event(schema, {Value(s)}), out, scratch);
    return sorted(out);
  };
  EXPECT_EQ(match(""), (std::vector<SubscriptionId>{SubscriptionId{1}, SubscriptionId{4}}));
  EXPECT_EQ(match("alpha"), (std::vector<SubscriptionId>{SubscriptionId{2}, SubscriptionId{4}}));
  EXPECT_EQ(match("alp"), (std::vector<SubscriptionId>{SubscriptionId{3}, SubscriptionId{4}}));
  // Unknown event string: only the star path may match.
  EXPECT_EQ(match("alphabet"), (std::vector<SubscriptionId>{SubscriptionId{4}}));
}

TEST(CompiledPst, DoubleKeysNormalizeNegativeZeroAndPreserveOrder) {
  std::vector<Attribute> attrs{{"d", AttributeType::kDouble, {}}};
  const SchemaPtr schema = make_schema("doubles", std::move(attrs));
  Pst tree(schema, {0});
  tree.add(SubscriptionId{1}, Subscription(schema, {AttributeTest::equals(Value(0.0))}));
  tree.add(SubscriptionId{2}, Subscription(schema, {AttributeTest::equals(Value(-1.5))}));
  tree.add(SubscriptionId{3}, Subscription(schema, {AttributeTest::equals(Value(2.5))}));

  const CompiledPst compiled(tree);
  // Value treats -0.0 == 0.0; the bit-level key must agree.
  EXPECT_EQ(compiled.key_of(Value(-0.0)), compiled.key_of(Value(0.0)));
  // The encoding preserves the numeric order.
  EXPECT_LT(compiled.key_of(Value(-1.5)), compiled.key_of(Value(0.0)));
  EXPECT_LT(compiled.key_of(Value(0.0)), compiled.key_of(Value(2.5)));

  MatchScratch scratch;
  std::vector<SubscriptionId> out;
  compiled.match(Event(schema, {Value(-0.0)}), out, scratch);
  EXPECT_EQ(out, std::vector<SubscriptionId>{SubscriptionId{1}});
}

TEST(CompiledPst, CoversDomainFlagMatchesFrozenGraph) {
  const auto schema = make_synthetic_schema(2, 3);  // domains {0,1,2}
  Pst full(schema, {0, 1});
  Pst partial(schema, {0, 1});
  std::int64_t id = 0;
  for (int v = 0; v < 3; ++v) {
    const Subscription sub(schema,
                           {AttributeTest::equals(Value(v)), AttributeTest::dont_care()});
    full.add(SubscriptionId{id++}, sub);
    if (v < 2) partial.add(SubscriptionId{id++}, sub);
  }

  const CompiledPst covered(full);
  EXPECT_TRUE(covered.covers_domain(covered.root()));
  const CompiledPst uncovered(partial);
  EXPECT_FALSE(uncovered.covers_domain(uncovered.root()));

  // And in the general randomized case, every compiled node carries exactly
  // the flag of its source Pst node. A reference walk of the live tree —
  // star-only chains skipped, children in the kernel's DFS order (equality,
  // general, `*`) — lists the surviving source nodes in compiled id order.
  Rng rng(5150);
  const SchemaPtr mixed = mixed_schema();
  Pst tree(mixed, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 120; ++i) tree.add(SubscriptionId{i}, random_subscription(mixed, rng));
  const CompiledPst compiled(tree);
  std::vector<std::pair<int, bool>> expected;
  const auto walk = [&](const auto& self, Pst::NodeId n) -> void {
    while (!tree.is_leaf(n) && tree.eq_children(n).empty() && tree.other_children(n).empty() &&
           tree.star_child(n) != Pst::kNoNode) {
      n = tree.star_child(n);
    }
    expected.emplace_back(tree.level(n), tree.eq_children_cover_domain(n));
    if (tree.is_leaf(n)) return;
    for (const auto& [value, child] : tree.eq_children(n)) self(self, child);
    for (const auto& [test, child] : tree.other_children(n)) self(self, child);
    if (tree.star_child(n) != Pst::kNoNode) self(self, tree.star_child(n));
  };
  walk(walk, tree.root());
  ASSERT_LT(expected.size(), tree.live_node_count());
  std::vector<std::pair<int, bool>> got;
  for (std::size_t n = 0; n < compiled.node_count(); ++n) {
    const auto id32 = static_cast<CompiledPst::NodeId>(n);
    got.emplace_back(compiled.level(id32), compiled.covers_domain(id32));
  }
  EXPECT_EQ(got, expected);
}

TEST(CompiledPst, BottomUpOrderVisitsChildrenFirst) {
  Rng rng(77);
  const SchemaPtr schema = mixed_schema();
  Pst tree(schema, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 80; ++i) {
    tree.add(SubscriptionId{i}, random_subscription(schema, rng));
  }
  const CompiledPst compiled(tree);
  std::vector<char> seen(compiled.node_count(), 0);
  std::size_t visited = 0;
  for (const CompiledPst::NodeId n : compiled.bottom_up_order()) {
    if (!compiled.is_leaf(n)) {
      for (const CompiledPst::NodeId child : compiled.eq_targets(n)) ASSERT_TRUE(seen[child]);
      for (const CompiledPst::NodeId child : compiled.other_targets(n)) ASSERT_TRUE(seen[child]);
      if (compiled.star_child(n) != CompiledPst::kNoNode) {
        ASSERT_TRUE(seen[compiled.star_child(n)]);
      }
    }
    seen[static_cast<std::size_t>(n)] = 1;
    ++visited;
  }
  EXPECT_EQ(visited, compiled.node_count());
  EXPECT_TRUE(seen[static_cast<std::size_t>(compiled.root())]);
}

// The kernel's structural contract, on CompiledPst compiled straight from
// a Pst.

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

std::vector<SubscriptionId> sorted_match(const CompiledPst& kernel, const Event& e,
                                         MatchStats* stats = nullptr) {
  std::vector<SubscriptionId> out;
  kernel.match(e, out, thread_match_scratch(), stats);
  return sorted(std::move(out));
}

TEST(CompiledPstStructure, EmptyTreeMatchesNothing) {
  const auto schema = make_synthetic_schema(3, 3);
  Pst tree(schema, identity_order(schema));
  const CompiledPst kernel(tree);
  EXPECT_TRUE(sorted_match(kernel, ev(schema, {0, 0, 0})).empty());
  EXPECT_EQ(kernel.subscription_count(), 0u);
}

TEST(CompiledPstStructure, StarChainsCollapse) {
  // Two subscriptions differing only at the first attribute, each ending
  // in a chain of don't-cares: the chains vanish from the kernel.
  const auto schema = make_synthetic_schema(4, 3);
  Pst tree(schema, identity_order(schema));
  tree.add(SubscriptionId{1}, sub_eq(schema, {0, 2, -1, -1}));
  tree.add(SubscriptionId{2}, sub_eq(schema, {1, 2, -1, -1}));
  const CompiledPst kernel(tree);
  EXPECT_EQ(kernel.subscription_count(), 2u);
  EXPECT_LT(kernel.node_count(), tree.live_node_count());
}

TEST(CompiledPstStructure, IdenticalLeavesNeverCarryDifferentIds) {
  // Every id lives at exactly one tree leaf, so no match can report
  // duplicates.
  const auto schema = make_synthetic_schema(3, 3);
  Pst tree(schema, identity_order(schema));
  for (int a = 0; a < 3; ++a) {
    tree.add(SubscriptionId{a}, sub_eq(schema, {a, 1, -1}));
  }
  const CompiledPst kernel(tree);
  const auto got = sorted_match(kernel, ev(schema, {2, 1, 0}));
  EXPECT_EQ(got, (std::vector<SubscriptionId>{SubscriptionId{2}}));
}

TEST(CompiledPstStructure, EquivalentToTreeOnRandomWorkloads) {
  const auto schema = make_synthetic_schema(8, 4);
  Rng rng(2027);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.8, 1.0});
  Pst tree(schema, identity_order(schema));
  std::vector<Subscription> subs;
  for (std::int64_t i = 0; i < 3000; ++i) {
    subs.push_back(gen.generate(rng));
    tree.add(SubscriptionId{i}, subs.back());
  }
  // Removals leave free-listed slots and pruned spines behind.
  for (std::int64_t i = 0; i < 3000; i += 3) {
    ASSERT_TRUE(tree.remove(SubscriptionId{i}, subs[static_cast<std::size_t>(i)]).has_value());
  }
  const CompiledPst kernel(tree);
  EXPECT_EQ(kernel.subscription_count(), 2000u);
  EXPECT_LE(kernel.node_count(), tree.live_node_count());

  EventGenerator events(schema);
  std::vector<SubscriptionId> tree_out;
  for (int i = 0; i < 200; ++i) {
    const Event e = events.generate(rng);
    tree_out.clear();
    tree.match(e, tree_out);
    std::sort(tree_out.begin(), tree_out.end());
    const auto kernel_out = sorted_match(kernel, e);
    ASSERT_EQ(kernel_out, tree_out) << "event " << e.to_text();
    EXPECT_TRUE(std::adjacent_find(kernel_out.begin(), kernel_out.end()) == kernel_out.end());
  }
}

TEST(CompiledPstStructure, StepsEqualTreeUnderTrivialTestElimination) {
  const auto schema = make_synthetic_schema(10, 3);
  Rng rng(11);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.95, 0.85, 1.0});
  Pst tree(schema, identity_order(schema), Pst::Options{.trivial_test_elimination = true});
  for (std::int64_t i = 0; i < 5000; ++i) tree.add(SubscriptionId{i}, gen.generate(rng));
  const CompiledPst kernel(tree);

  EventGenerator events(schema);
  MatchStats tree_stats, kernel_stats;
  std::vector<SubscriptionId> scratch;
  for (int i = 0; i < 300; ++i) {
    const Event e = events.generate(rng);
    scratch.clear();
    tree.match(e, scratch, &tree_stats);
    scratch.clear();
    kernel.match(e, scratch, thread_match_scratch(), &kernel_stats);
  }
  EXPECT_EQ(kernel_stats.nodes_visited, tree_stats.nodes_visited);
  EXPECT_LT(kernel.node_count(), tree.live_node_count());
}

TEST(CompiledPstStructure, RangeBranchesSupported) {
  const auto schema = make_synthetic_schema(3, 4);
  Pst tree(schema, identity_order(schema));
  std::vector<AttributeTest> tests(3);
  tests[0] = AttributeTest::between(Value(1), Value(2));
  tree.add(SubscriptionId{9}, Subscription(schema, tests));
  const CompiledPst kernel(tree);
  EXPECT_EQ(sorted_match(kernel, ev(schema, {1, 0, 0})),
            (std::vector<SubscriptionId>{SubscriptionId{9}}));
  EXPECT_TRUE(sorted_match(kernel, ev(schema, {3, 0, 0})).empty());
}

TEST(CompiledPstStructure, SnapshotIsImmutableUnderSourceMutation) {
  const auto schema = make_synthetic_schema(3, 3);
  Pst tree(schema, identity_order(schema));
  tree.add(SubscriptionId{1}, sub_eq(schema, {0, -1, -1}));
  const CompiledPst kernel(tree);
  tree.add(SubscriptionId{2}, sub_eq(schema, {0, -1, -1}));
  tree.remove(SubscriptionId{1}, sub_eq(schema, {0, -1, -1}));
  // The snapshot still answers from its own state.
  EXPECT_EQ(sorted_match(kernel, ev(schema, {0, 0, 0})),
            (std::vector<SubscriptionId>{SubscriptionId{1}}));
}

TEST(CompiledPstStructure, ManyMatchesExerciseStampReuse) {
  const auto schema = make_synthetic_schema(4, 2);
  Pst tree(schema, identity_order(schema));
  tree.add(SubscriptionId{1}, sub_eq(schema, {-1, -1, -1, -1}));
  const CompiledPst kernel(tree);
  MatchScratch scratch;
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 10000; ++i) {
    out.clear();
    kernel.match(ev(schema, {i % 2, 0, 1, 0}), out, scratch);
    ASSERT_EQ(out.size(), 1u);
  }
}

}  // namespace
}  // namespace gryphon
