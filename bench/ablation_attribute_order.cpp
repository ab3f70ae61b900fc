// Ablation A1 — attribute ordering in the parallel search tree.
//
// The paper (Section 2): "performance seems to be better if the attributes
// near the root are chosen to have the fewest number of subscriptions
// labeled with a *". Compare matching steps and wall time for: the schema
// declaration order, the paper's heuristic, and the adversarial reverse of
// the heuristic, on a workload whose selective attributes come last.
#include "bench_util.h"

#include <algorithm>

#include "matching/attribute_order.h"
#include "matching/pst_matcher.h"

namespace gryphon {
namespace {

void run() {
  bench::print_header("Ablation A1: PST attribute ordering");
  const auto schema = make_synthetic_schema(10, 4);
  Rng rng(99);

  // Adversarial workload: attribute selectivity increases with index, so
  // the schema order puts the least selective attribute at the root.
  std::vector<Subscription> subs;
  for (int i = 0; i < 10000; ++i) {
    std::vector<AttributeTest> tests(10);
    for (std::size_t a = 0; a < 10; ++a) {
      const double p_non_star = 0.05 + 0.09 * static_cast<double>(a);
      if (rng.chance(p_non_star)) {
        tests[a] = AttributeTest::equals(Value(static_cast<int>(rng.below(4))));
      }
    }
    subs.emplace_back(schema, tests);
  }
  EventGenerator ev_gen(schema);
  std::vector<Event> probes;
  for (int i = 0; i < 2000; ++i) probes.push_back(ev_gen.generate(rng));

  const auto heuristic = order_by_fewest_dont_cares(schema, subs);
  auto reversed = heuristic;
  std::reverse(reversed.begin(), reversed.end());

  std::printf("%24s %14s %14s\n", "order", "steps/event", "ms/event");
  const auto measure = [&](const char* label, std::vector<std::size_t> order) {
    PstMatcherOptions options;
    options.attribute_order = std::move(order);
    PstMatcher matcher(schema, options);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, subs[i]);
    }
    matcher.freeze();
    std::vector<SubscriptionId> out;
    MatchStats stats;
    bench::Stopwatch watch;
    for (const Event& e : probes) {
      out.clear();
      matcher.match_into(e, out, &stats);
    }
    std::printf("%24s %14.1f %14.4f\n", label,
                static_cast<double>(stats.nodes_visited) / static_cast<double>(probes.size()),
                watch.seconds() * 1000.0 / static_cast<double>(probes.size()));
  };

  measure("schema order", identity_order(schema));
  measure("heuristic (paper)", heuristic);
  measure("reverse heuristic", reversed);
}

}  // namespace
}  // namespace gryphon

int main() {
  gryphon::run();
  return 0;
}
