// Chart 2 — "Matching time": cumulative matching steps per delivery for the
// link matching algorithm at 1..6+ hops, versus centralized (non-trit)
// matching, as the number of subscriptions varies.
//
// Paper parameters (Section 4.1, Matching Time Results): event schema of 10
// attributes (3 used for factoring) with 3 values each, first-attribute
// non-* probability 0.98 decaying by 0.82 (~1.3% selectivity), 1000
// published events on the Figure 6 topology. A matching step is the
// visitation of a single node in the matching tree; for link matching the
// processing per delivery is the sum of the partial matches at every broker
// from publisher to subscriber.
//
// Expected shape: cumulative steps up to ~4 hops stay at or below the
// centralized cost; beyond that link matching takes more steps, while
// centralized matching grows faster with the number of subscriptions.
#include "bench_util.h"

namespace gryphon {
namespace {

void run() {
  bench::print_header(
      "Chart 2: mean cumulative matching steps per delivery, by hop count");
  std::printf("%14s", "subscriptions");
  for (int h = 1; h <= 6; ++h) std::printf("  LM %d hop%s", h, h == 1 ? " " : "s");
  std::printf("  %12s\n", "centralized");

  for (const std::size_t subs : {2000u, 4000u, 6000u, 8000u, 10000u}) {
    SimSpec spec = bench::paper_spec(10, 3, 0.82, subs, 1000, /*seed=*/77 + subs);
    spec.matcher.factoring_levels = 3;
    spec.protocol = Protocol::kLinkMatching;
    spec.workload.rate_eps = 200.0;
    const SimResult result = simulate(spec);

    std::printf("%14zu", subs);
    for (int h = 1; h <= 6; ++h) {
      const auto it = result.per_hop.find(h);
      if (it == result.per_hop.end()) {
        std::printf("  %8s ", "-");
      } else {
        std::printf("  %8.1f ", it->second.mean_steps());
      }
    }
    std::printf("  %12.1f\n",
                result.oracle_events_verified == 0
                    ? 0.0
                    : static_cast<double>(result.centralized_steps) /
                          static_cast<double>(result.oracle_events_verified));
    if (result.missing_deliveries + result.spurious_deliveries > 0) {
      std::printf("  !! delivery mismatch: %llu missing, %llu spurious\n",
                  static_cast<unsigned long long>(result.missing_deliveries),
                  static_cast<unsigned long long>(result.spurious_deliveries));
    }
  }
  std::printf(
      "\n(LM k hops: events delivered k brokers away from the publisher; the paper's\n"
      " claim is LM <= centralized for <= 4 hops and centralized growing faster in\n"
      " the number of subscriptions.)\n");
}

}  // namespace
}  // namespace gryphon

int main() {
  gryphon::run();
  return 0;
}
