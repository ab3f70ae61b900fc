// Chart 3 — "Performance of Matching": average matching time per event for
// the pure (centralized) matching engine as the number of subscriptions
// grows to 25,000+.
//
// Paper context (Section 4.2): the prototype broker matches in about 4 ms
// at 25,000 subscribers on a 200 MHz Pentium Pro. Absolute numbers on
// modern hardware are far smaller; the reproduced shape is sub-linear
// growth of matching time in the number of subscriptions.
#include "bench_util.h"

#include "matching/attribute_order.h"
#include "matching/naive_matcher.h"
#include "matching/pst_matcher.h"

namespace gryphon {
namespace {

void run() {
  bench::print_header("Chart 3: average matching time vs number of subscriptions");
  const auto schema = make_synthetic_schema(10, 5);
  Rng rng(404);
  SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
  EventGenerator ev_gen(schema);

  PstMatcherOptions options;
  options.factoring_levels = 2;
  PstMatcher pst(schema, options);
  NaiveMatcher naive;

  std::vector<Event> probes;
  for (int i = 0; i < 2000; ++i) probes.push_back(ev_gen.generate(rng));

  std::printf("%14s %14s %14s %14s %16s\n", "subscriptions", "PST ms/event",
              "PST steps", "naive ms/event", "PST matches/sec");
  std::size_t added = 0;
  for (const std::size_t target : {5000u, 10000u, 15000u, 20000u, 25000u, 30000u}) {
    while (added < target) {
      const auto s = gen.generate(rng);
      pst.add(SubscriptionId{static_cast<std::int64_t>(added)}, s);
      naive.add(SubscriptionId{static_cast<std::int64_t>(added)}, s);
      ++added;
    }
    pst.freeze();
    std::vector<SubscriptionId> out;
    MatchStats stats;
    bench::Stopwatch pst_watch;
    for (const Event& e : probes) {
      out.clear();
      pst.match_into(e, out, &stats);
    }
    const double pst_seconds = pst_watch.seconds();

    bench::Stopwatch naive_watch;
    for (std::size_t i = 0; i < probes.size() / 10; ++i) {  // naive is slow; sample
      out.clear();
      naive.match_into(probes[i], out);
    }
    const double naive_seconds = naive_watch.seconds() * 10.0;

    std::printf("%14zu %14.4f %14.1f %14.4f %16.0f\n", target,
                pst_seconds * 1000.0 / static_cast<double>(probes.size()),
                static_cast<double>(stats.nodes_visited) / static_cast<double>(probes.size()),
                naive_seconds * 1000.0 / static_cast<double>(probes.size()),
                static_cast<double>(probes.size()) / pst_seconds);
  }
  std::printf(
      "\n(The paper reports ~4 ms per match at 25,000 subscriptions on 1997 hardware;\n"
      " the reproduced claim is the sub-linear growth of the PST curve, and the gap\n"
      " to the naive linear scan.)\n");
}

}  // namespace
}  // namespace gryphon

int main() {
  gryphon::run();
  return 0;
}
