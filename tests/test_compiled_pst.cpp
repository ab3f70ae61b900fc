// Differential tests for the compiled flat PST kernel: under randomized
// subscribe/unsubscribe churn, the compiled representation must produce
// exactly the match sets of the mutable Pst (and of brute-force predicate
// evaluation — the oracle idiom of test_concurrent_matching.cpp), and
// compiled_dispatch must produce bit-identical link-matching decisions to
// two references: link_match over an AnnotatedPst (the refined mask, and
// the step count when no local enumeration is asked for) and a naive
// matcher filtered to the local link (the local-match set). Plus direct
// coverage of the representational
// edges: string interning, the -0.0/+0.0 double key, and the precompiled
// eq_children_cover_domain flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
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

    const FrozenPsg frozen(tree);
    const CompiledPst compiled(frozen);
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

    const CompiledPst compiled{FrozenPsg(tree)};
    const CompiledAnnotation compiled_ann(
        compiled, kLinks, std::span<const SubscriptionLinkFn>(group_fns), local);

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

TEST(CompiledPst, MatcherCompiledKernelAgreesAcrossHysteresisAndEpochs) {
  // PstMatcher-level differential with factoring: the compiled matcher must
  // agree with a mutable-kernel twin through warm-up (the hysteresis
  // window), after compilation kicks in, and after mutations invalidate
  // compiled entries.
  const auto schema = make_synthetic_schema(6, 4);
  PstMatcherOptions compiled_opts;
  compiled_opts.factoring_levels = 2;
  PstMatcherOptions mutable_opts = compiled_opts;
  mutable_opts.compiled_kernel = false;
  PstMatcher compiled(schema, compiled_opts);
  PstMatcher plain(schema, mutable_opts);

  Rng rng(909);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.85, 1.0});
  EventGenerator events(schema);
  std::int64_t next_id = 0;
  std::vector<SubscriptionId> ids;

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 40; ++i) {
      const SubscriptionId id{next_id++};
      const Subscription sub = gen.generate(rng);
      compiled.add(id, sub);
      plain.add(id, sub);
      ids.push_back(id);
    }
    for (int i = 0; i < 10 && !ids.empty(); ++i) {
      const std::size_t pick = rng.below(ids.size());
      const SubscriptionId id = ids[pick];
      ids[pick] = ids.back();
      ids.pop_back();
      ASSERT_TRUE(compiled.remove(id));
      ASSERT_TRUE(plain.remove(id));
    }
    // More probes than kCompileThreshold so per-bucket compilation
    // triggers mid-loop: early probes run the mutable walk, later ones the
    // kernel, and all must agree.
    for (unsigned probe = 0; probe < 3 * PstMatcher::kCompileThreshold; ++probe) {
      const Event e = events.generate(rng);
      std::vector<SubscriptionId> a;
      compiled.match_into(e, a);
      std::vector<SubscriptionId> b;
      plain.match_into(e, b);
      ASSERT_EQ(sorted(a), sorted(b));
    }
  }
}

TEST(CompiledPst, MatcherStepCountStableWithoutTrivialTestElimination) {
  // The compiled kernel collapses star chains structurally, so it may only
  // stand in for the mutable walk when the tree applies trivial-test
  // elimination too; otherwise the step count would change once a bucket
  // compiles (after kCompileThreshold matches).
  const auto schema = make_synthetic_schema(5, 3);
  PstMatcherOptions options;
  options.tree.trivial_test_elimination = false;
  PstMatcher matcher(schema, options);
  Rng rng(77);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.9, 0.5, 1.0});
  for (std::int64_t i = 0; i < 50; ++i) matcher.add(SubscriptionId{i}, gen.generate(rng));
  const Event e = EventGenerator(schema).generate(rng);

  const MatchResult first = matcher.match(e);
  for (unsigned call = 1; call < 3 * PstMatcher::kCompileThreshold; ++call) {
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

  const CompiledPst compiled{FrozenPsg(tree)};
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

  const CompiledPst compiled{FrozenPsg(tree)};
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

  const CompiledPst covered{FrozenPsg(full)};
  EXPECT_TRUE(covered.covers_domain(covered.root()));
  const CompiledPst uncovered{FrozenPsg(partial)};
  EXPECT_FALSE(uncovered.covers_domain(uncovered.root()));

  // And in the general randomized case, every compiled node carries exactly
  // the flag of its frozen source node (the per-node flag count and the
  // per-level distribution must agree; node ids differ between the two
  // representations, so compare the multiset of (level, flag) pairs).
  Rng rng(5150);
  const SchemaPtr mixed = mixed_schema();
  Pst tree(mixed, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 120; ++i) tree.add(SubscriptionId{i}, random_subscription(mixed, rng));
  const FrozenPsg frozen(tree);
  const CompiledPst compiled(frozen);
  ASSERT_EQ(compiled.node_count(), frozen.node_count());
  std::vector<std::pair<int, bool>> expected;
  for (FrozenPsg::NodeId n = 0; n < static_cast<FrozenPsg::NodeId>(frozen.node_count()); ++n) {
    expected.emplace_back(frozen.level(n), frozen.eq_children_cover_domain(n));
  }
  std::vector<std::pair<int, bool>> got;
  for (std::size_t n = 0; n < compiled.node_count(); ++n) {
    const auto id32 = static_cast<CompiledPst::NodeId>(n);
    got.emplace_back(compiled.level(id32), compiled.covers_domain(id32));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(CompiledPst, BottomUpOrderVisitsChildrenFirst) {
  Rng rng(77);
  const SchemaPtr schema = mixed_schema();
  Pst tree(schema, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 80; ++i) {
    tree.add(SubscriptionId{i}, random_subscription(schema, rng));
  }
  const CompiledPst compiled{FrozenPsg(tree)};
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

}  // namespace
}  // namespace gryphon
