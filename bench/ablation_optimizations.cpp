// Ablation A2 — the Section 2.1 optimizations: factoring levels,
// trivial-test elimination, and delayed branching.
//
// Measured on both the centralized match (steps per event) and the
// link-matching search (steps per routing decision at a 3-link broker).
#include "bench_util.h"

#include <algorithm>
#include <unordered_map>

#include "matching/attribute_order.h"
#include "matching/compiled_pst.h"
#include "matching/pst_matcher.h"
#include "routing/annotated_pst.h"
#include "routing/link_matcher.h"

namespace gryphon {
namespace {

struct Workload {
  SchemaPtr schema = make_synthetic_schema(10, 5);
  std::vector<Subscription> subs;
  std::vector<Event> probes;
  std::unordered_map<SubscriptionId, LinkIndex> links;

  Workload() {
    Rng rng(321);
    SubscriptionGenerator gen(schema, SubscriptionWorkloadConfig{0.98, 0.85, 1.0});
    for (int i = 0; i < 8000; ++i) {
      subs.push_back(gen.generate(rng));
      links[SubscriptionId{i}] = LinkIndex{static_cast<int>(rng.below(3))};
    }
    EventGenerator ev_gen(schema);
    for (int i = 0; i < 1000; ++i) probes.push_back(ev_gen.generate(rng));
  }
};

void factoring_sweep(const Workload& workload) {
  bench::print_header("Ablation A2a: factoring levels (central matching, 8000 subscriptions)");
  std::printf("%16s %14s %14s %12s\n", "factoring", "steps/event", "ms/event", "trees");
  for (const std::size_t levels : {0u, 1u, 2u, 3u, 4u}) {
    PstMatcherOptions options;
    options.factoring_levels = levels;
    PstMatcher matcher(workload.schema, options);
    for (std::size_t i = 0; i < workload.subs.size(); ++i) {
      matcher.add(SubscriptionId{static_cast<std::int64_t>(i)}, workload.subs[i]);
    }
    matcher.freeze();
    std::vector<SubscriptionId> out;
    MatchStats stats;
    bench::Stopwatch watch;
    for (const Event& e : workload.probes) {
      out.clear();
      matcher.match_into(e, out, &stats);
    }
    std::printf("%16zu %14.1f %14.4f %12zu\n", levels,
                static_cast<double>(stats.nodes_visited) /
                    static_cast<double>(workload.probes.size()),
                watch.seconds() * 1000.0 / static_cast<double>(workload.probes.size()),
                matcher.tree_count());
  }
}

void tree_option_sweep(const Workload& workload) {
  bench::print_header(
      "Ablation A2b: trivial-test elimination & delayed branching (link matching)");
  std::printf("%8s %14s %22s %22s\n", "TTE", "delayed-star", "central steps/event",
              "link-match steps/event");
  for (const bool tte : {false, true}) {
    for (const bool delayed : {false, true}) {
      Pst::Options tree_options;
      tree_options.trivial_test_elimination = tte;
      tree_options.delayed_star = delayed;
      Pst tree(workload.schema, identity_order(workload.schema), tree_options);
      for (std::size_t i = 0; i < workload.subs.size(); ++i) {
        tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, workload.subs[i]);
      }
      AnnotatedPst annotated(tree, 3,
                             [&](SubscriptionId id) { return workload.links.at(id); });
      const TritVector init(3, Trit::Maybe);

      std::vector<SubscriptionId> out;
      MatchStats stats;
      std::uint64_t link_steps = 0;
      for (const Event& e : workload.probes) {
        out.clear();
        tree.match(e, out, &stats);
        link_steps += link_match(annotated, e, init).steps;
      }
      std::printf("%8s %14s %22.1f %22.1f\n", tte ? "on" : "off", delayed ? "on" : "off",
                  static_cast<double>(stats.nodes_visited) /
                      static_cast<double>(workload.probes.size()),
                  static_cast<double>(link_steps) /
                      static_cast<double>(workload.probes.size()));
    }
  }
}

void compiled_sweep(const Workload& workload) {
  bench::print_header(
      "Ablation A2c: compiled kernel (star chains collapsed) vs live tree");
  std::printf("%12s %12s %14s %14s %14s %14s %14s\n", "subs", "tree nodes", "kernel nodes",
              "tree ms/event", "kernel ms/ev", "tree steps", "kernel steps");
  MatchScratch scratch;
  for (const std::size_t subs : {1000u, 4000u, 8000u}) {
    Pst tree(workload.schema, identity_order(workload.schema));
    for (std::size_t i = 0; i < subs; ++i) {
      tree.add(SubscriptionId{static_cast<std::int64_t>(i)}, workload.subs[i]);
    }
    const CompiledPst kernel(tree);
    std::vector<SubscriptionId> a, b;
    MatchStats tree_stats, kernel_stats;
    std::size_t mismatches = 0;
    bench::Stopwatch tree_watch;
    for (const Event& e : workload.probes) {
      a.clear();
      tree.match(e, a, &tree_stats);
    }
    const double tree_seconds = tree_watch.seconds();
    bench::Stopwatch kernel_watch;
    for (const Event& e : workload.probes) {
      b.clear();
      kernel.match(e, b, scratch, &kernel_stats);
    }
    const double kernel_seconds = kernel_watch.seconds();
    for (const Event& e : workload.probes) {
      a.clear();
      b.clear();
      tree.match(e, a);
      kernel.match(e, b, scratch);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) ++mismatches;
    }
    const auto probes = static_cast<double>(workload.probes.size());
    std::printf("%12zu %12zu %14zu %14.4f %14.4f %14.1f %14.1f%s\n", subs,
                tree.live_node_count(), kernel.node_count(), tree_seconds * 1000.0 / probes,
                kernel_seconds * 1000.0 / probes,
                static_cast<double>(tree_stats.nodes_visited) / probes,
                static_cast<double>(kernel_stats.nodes_visited) / probes,
                mismatches == 0 ? "" : "  MATCH SETS DIFFER");
  }
  std::printf(
      "\n(Star-only chains are collapsed structurally, so the kernel holds far fewer\n"
      " nodes than the live tree; match sets are identical, and under trivial-test\n"
      " elimination so are the steps.)\n");
}

}  // namespace
}  // namespace gryphon

int main() {
  gryphon::Workload workload;
  gryphon::factoring_sweep(workload);
  gryphon::tree_option_sweep(workload);
  gryphon::compiled_sweep(workload);
  return 0;
}
