// Google-benchmark microbenchmarks for the hot paths: PST matching, link
// matching, subscription insertion, the trit algebra, and the wire codec.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/rng.h"
#include "event/codec.h"
#include "matching/attribute_order.h"
#include "matching/compiled_pst.h"
#include "matching/naive_matcher.h"
#include "matching/pst_matcher.h"
#include "routing/annotated_pst.h"
#include "routing/compiled_annotation.h"
#include "routing/link_matcher.h"
#include "topology/builders.h"
#include "topology/routing_table.h"
#include "topology/spanning_tree.h"
#include "workload/generators.h"

namespace gryphon {
namespace {

struct Fixture {
  SchemaPtr schema;
  std::vector<Subscription> subs;
  std::vector<Event> events;
  std::unordered_map<SubscriptionId, LinkIndex> links;

  explicit Fixture(std::size_t n_subs) : schema(make_synthetic_schema(10, 5)) {
    Rng rng(1);
    SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
    for (std::size_t i = 0; i < n_subs; ++i) {
      subs.push_back(gen.generate(rng));
      links[SubscriptionId{static_cast<std::int64_t>(i)}] =
          LinkIndex{static_cast<int>(rng.below(4))};
    }
    EventGenerator ev_gen(schema);
    for (int i = 0; i < 512; ++i) events.push_back(ev_gen.generate(rng));
  }
};

void BM_PstMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(fixture.schema, options);
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  matcher.freeze();
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match_into(fixture.events[i++ % fixture.events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PstMatch)->Arg(1000)->Arg(10000)->Arg(25000);

// The compiled-vs-mutable kernel pair: identical chart3-style workload and
// matcher configuration, one matcher frozen (PstMatcher::freeze) and one
// left on the mutable walk. The perf-smoke CI leg (tools/ci.sh perf) runs
// exactly these two.
void run_kernel_match(benchmark::State& state, bool frozen) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher matcher(fixture.schema, options);
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  if (frozen) matcher.freeze();
  MatchScratch scratch;
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match_into(fixture.events[i++ % fixture.events.size()], out, scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_PstMatchCompiled(benchmark::State& state) { run_kernel_match(state, true); }
BENCHMARK(BM_PstMatchCompiled)->Arg(1000)->Arg(10000)->Arg(25000);
void BM_PstMatchMutable(benchmark::State& state) { run_kernel_match(state, false); }
BENCHMARK(BM_PstMatchMutable)->Arg(1000)->Arg(10000)->Arg(25000);

void BM_NaiveMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  NaiveMatcher matcher;
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match_into(fixture.events[i++ % fixture.events.size()], out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveMatch)->Arg(1000)->Arg(10000);

void BM_LinkMatch(benchmark::State& state) {
  Fixture fixture(static_cast<std::size_t>(state.range(0)));
  Pst tree(fixture.schema, identity_order(fixture.schema));
  for (std::size_t i = 0; i < fixture.subs.size(); ++i) {
    tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  AnnotatedPst annotated(tree, 4, [&](SubscriptionId id) { return fixture.links.at(id); });
  const TritVector init(4, Trit::Maybe);
  std::size_t i = 0;
  for (auto _ : state) {
    auto result = link_match(annotated, fixture.events[i++ % fixture.events.size()], init);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkMatch)->Arg(1000)->Arg(10000);

// One Figure 6 broker's link-matching work: region 0's root broker routing
// the events of publisher P1 (a region-0 leaf) down P1's spanning tree,
// with every subscription owned by a random subscribing client. The pair
// below runs the same search on the same annotation — once on the compiled
// bit-plane kernel the broker and the simulator use, once on the byte-form
// AnnotatedPst reference — and reports steps_per_event over one pass of the
// event set, which must be equal across the pair. The perf-smoke
// CI leg (tools/ci.sh perf) runs both.
struct Figure6BrokerFixture {
  Figure6Topology topo = make_figure6();
  RoutingTable routing{topo.network};
  SpanningTree tree{topo.network, routing, topo.publisher_brokers.front()};
  BrokerId broker = topo.roots.front();
  std::size_t links = topo.network.ports(broker).size();
  SchemaPtr schema = make_synthetic_schema(10, 5);
  Pst pst{schema, identity_order(schema), Pst::Options{.trivial_test_elimination = true}};
  std::vector<ClientId> owner;
  std::vector<Event> events;
  TritVector init{links, Trit::No};
  SubscriptionLinkFn link_of = [this](SubscriptionId id) {
    return tree.tree_next_hop_to_client(broker, owner[static_cast<std::size_t>(id.value)]);
  };
  std::unique_ptr<AnnotatedPst> annotated;
  std::unique_ptr<CompiledPst> kernel;
  std::unique_ptr<CompiledAnnotation> compiled;

  explicit Figure6BrokerFixture(std::size_t n_subs) {
    Rng rng(6);
    SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
    for (std::size_t i = 0; i < n_subs; ++i) {
      owner.push_back(topo.subscribers[rng.below(topo.subscribers.size())]);
      pst.add(SubscriptionId{static_cast<std::int64_t>(i)}, gen.generate(rng));
    }
    EventGenerator ev_gen(schema);
    for (int i = 0; i < 512; ++i) events.push_back(ev_gen.generate(rng));
    for (std::size_t l = 0; l < links; ++l) {
      const LinkIndex link{static_cast<LinkIndex::rep_type>(l)};
      if (tree.downstream_client_count(broker, link) > 0) init.set(link, Trit::Maybe);
    }
    annotated = std::make_unique<AnnotatedPst>(pst, links, link_of);
    kernel = std::make_unique<CompiledPst>(pst);
    // Flat tables: each kernel subscriber's owning client, and the link
    // toward every client.
    std::vector<std::uint32_t> owners;
    for (const SubscriptionId id : kernel->subscriber_arena()) {
      owners.push_back(static_cast<std::uint32_t>(owner[static_cast<std::size_t>(id.value)].value));
    }
    std::vector<std::vector<LinkIndex>> client_links(1);
    for (std::size_t c = 0; c < topo.network.client_count(); ++c) {
      client_links[0].push_back(
          tree.tree_next_hop_to_client(broker, ClientId{static_cast<ClientId::rep_type>(c)}));
    }
    compiled = std::make_unique<CompiledAnnotation>(*kernel, links, owners, client_links,
                                                    LinkIndex{});
  }
};

void BM_LinkDispatchCompiled(benchmark::State& state) {
  const Figure6BrokerFixture f(static_cast<std::size_t>(state.range(0)));
  const std::vector<TritWord> init = packed::pack(f.init.span());
  std::vector<TritWord> mask(init.size());
  MatchScratch scratch;
  const auto route = [&](const Event& e) {
    return compiled_dispatch_into(*f.compiled, 0, e, init, scratch, nullptr, mask);
  };
  std::uint64_t steps = 0;
  for (const Event& e : f.events) steps += route(e);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(route(f.events[i++ % f.events.size()]));
    benchmark::DoNotOptimize(mask.data());
  }
  state.counters["steps_per_event"] =
      static_cast<double>(steps) / static_cast<double>(f.events.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkDispatchCompiled)->Arg(10000);

void BM_LinkMatchReference(benchmark::State& state) {
  const Figure6BrokerFixture f(static_cast<std::size_t>(state.range(0)));
  std::uint64_t steps = 0;
  for (const Event& e : f.events) steps += link_match(*f.annotated, e, f.init).steps;
  std::size_t i = 0;
  for (auto _ : state) {
    const LinkMatchResult result =
        link_match(*f.annotated, f.events[i++ % f.events.size()], f.init);
    benchmark::DoNotOptimize(result);
  }
  state.counters["steps_per_event"] =
      static_cast<double>(steps) / static_cast<double>(f.events.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkMatchReference)->Arg(10000);

void BM_Subscribe(benchmark::State& state) {
  Fixture fixture(4096);
  PstMatcher matcher(fixture.schema);
  std::int64_t id = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    matcher.add(SubscriptionId{id++}, fixture.subs[i++ % fixture.subs.size()]);
    if (matcher.subscription_count() >= 4096) {
      state.PauseTiming();
      for (std::int64_t r = id - static_cast<std::int64_t>(matcher.subscription_count());
           r < id; ++r) {
        matcher.remove(SubscriptionId{r});
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Subscribe);

void BM_IncrementalAnnotation(benchmark::State& state) {
  Fixture fixture(8192);
  Pst tree(fixture.schema, identity_order(fixture.schema));
  for (std::size_t i = 0; i < 4096; ++i) {
    tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, fixture.subs[i]);
  }
  AnnotatedPst annotated(tree, 4, [&](SubscriptionId id) { return fixture.links.at(id); });
  const SubscriptionId id{4096};  // a slot with a known link assignment
  std::size_t next = 0;
  for (auto _ : state) {
    const Subscription& s = fixture.subs[next++ % fixture.subs.size()];
    annotated.apply(tree.add(id, s));
    annotated.apply(*tree.remove(id, s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalAnnotation);

void BM_TritVectorRefine(benchmark::State& state) {
  TritVector mask(16, Trit::Maybe);
  TritVector annotation(16, Trit::No);
  for (std::size_t i = 0; i < 16; i += 3) annotation.set(i, Trit::Yes);
  for (auto _ : state) {
    TritVector m = mask;
    m.refine_with(annotation);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TritVectorRefine);

void BM_EventCodecRoundTrip(benchmark::State& state) {
  Fixture fixture(16);
  const Event& event = fixture.events[0];
  for (auto _ : state) {
    const auto bytes = encode_event(event);
    const Event back = decode_event(fixture.schema, bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventCodecRoundTrip);

}  // namespace
}  // namespace gryphon
