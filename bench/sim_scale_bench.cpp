// Internet-scale simulation campaign (BENCH_sim_scale.json).
//
// Sweeps the parallel discrete-event engine over the scale topology
// families — Figure 6, fat-tree, Waxman, and the multi-region WAN up to
// 1000 brokers with 1,000,000 subscriptions — running all three routing
// protocols at every point. Each point reports serial and parallel engine
// wall clocks from the SAME materialized instance (one control-plane
// build), the serial-vs-parallel equivalence verdict (same_outcome over
// every deterministic SimResult field), the oracle-sampling fraction
// actually used, and each run's engine rounds, lookahead and partition load.
// A point's workload is generated once, by the first protocol's build, and
// handed on to the other two as a ScriptedWorkload; each build runs on the
// parallel thread count, and each row reports its build time, the RSS
// after it, and what the built instance accounts for of that RSS, by
// component (Simulation::memory: subscriptions, trees, kernels,
// annotations). The heap freed by earlier builds is returned to the OS
// before each build, so the gap between the two is what else the
// instance holds: the events and schedule, channels, and allocator
// overhead.
//
// Honesty gate: the parallel speedup is only asserted meaningful when the
// host has >= 4 hardware threads; on smaller hosts the JSON carries
// scaling_valid=false with the reason, and the equivalence gate (which
// needs no parallelism to be meaningful) still runs.
//
//   $ ./sim_scale_bench [--ci] [--out PATH]
//
// --ci runs the reduced sweep (Figure 6 static and churning, and ~200
// brokers) used by the tools/ci.sh sim-scale leg, with five
// serial/parallel run pairs per row (the row's walls and speedup are the
// pairs' medians); the full sweep is the published campaign, one pair per
// row.
#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace gryphon {
namespace {

struct ProtocolRow {
  Protocol protocol{Protocol::kLinkMatching};
  SimResult serial;
  SimResult parallel;
  bool equivalent{false};
  double build_seconds{0.0};
  double build_rss_mb{0.0};  // resident set right after the build
  SimMemory memory;          // the built instance's accounted bytes
  /// Per serial/parallel run pair on the one instance; the row's wall
  /// clocks and speedup are the medians over the pairs.
  std::vector<double> serial_walls, parallel_walls, pair_speedups;
  double serial_wall{0.0}, parallel_wall{0.0}, speedup{0.0};
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct SweepPoint {
  std::string name;
  SimSpec spec;
  std::vector<ProtocolRow> rows;
  std::size_t brokers{0};
  std::size_t clients{0};
};

SweepPoint run_point(const std::string& name, SimSpec spec, std::size_t parallel_threads,
                     std::size_t pairs) {
  SweepPoint point;
  point.name = name;
  point.spec = spec;
  spec.engine.threads = parallel_threads;  // construction threads; runs pick their own
  // The first build generates the workload; each build hands it on.
  ScriptedWorkload workload;
  for (const Protocol protocol :
       {Protocol::kLinkMatching, Protocol::kFlooding, Protocol::kMatchFirst}) {
    ProtocolRow row;
    row.protocol = protocol;
    SimSpec run_spec = spec;
    run_spec.protocol = protocol;
    run_spec.workload.scripted = std::move(workload);
    // The previous build's instance is gone; without this its freed heap
    // would stay resident and count in this build's RSS.
    bench::release_free_heap();
    bench::Stopwatch build_watch;
    Simulation sim(std::move(run_spec));
    row.build_seconds = build_watch.seconds();
    row.build_rss_mb = bench::current_rss_mb();
    row.memory = sim.memory();
    point.brokers = sim.network().broker_count();
    point.clients = sim.network().client_count();
    row.equivalent = true;
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      SimResult serial = sim.run_with_threads(1);
      SimResult parallel = sim.run_with_threads(parallel_threads);
      row.serial_walls.push_back(serial.wall_seconds);
      row.parallel_walls.push_back(parallel.wall_seconds);
      row.pair_speedups.push_back(
          parallel.wall_seconds > 0 ? serial.wall_seconds / parallel.wall_seconds : 0.0);
      // Every run must reproduce the first serial run.
      const SimResult& reference = pair == 0 ? serial : row.serial;
      row.equivalent &= same_outcome(reference, serial) && same_outcome(reference, parallel);
      if (pair == 0) {
        row.serial = std::move(serial);
        row.parallel = std::move(parallel);
      }
    }
    row.serial_wall = median(row.serial_walls);
    row.parallel_wall = median(row.parallel_walls);
    row.speedup = median(row.pair_speedups);
    std::printf(
        "  %-14s %-14s build %6.2fs  serial %7.2fs  parallel(%zu) %7.2fs  speedup %5.2fx  "
        "rounds %llu  load %.2f  %s\n",
        name.c_str(), to_string(protocol), row.build_seconds, row.serial_wall,
        parallel_threads, row.parallel_wall, row.speedup,
        static_cast<unsigned long long>(row.parallel.engine_rounds),
        row.parallel.engine_partition_load, row.equivalent ? "identical" : "MISMATCH");
    const auto mb = [](std::size_t bytes) {
      return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    std::printf(
        "  %-14s %-14s rss %7.1f MB  accounted %7.1f MB: subscriptions %.1f (floor %.1f)  "
        "trees %.1f  kernels %.1f  annotations %.1f\n",
        name.c_str(), to_string(protocol), row.build_rss_mb, mb(row.memory.total()),
        mb(row.memory.subscriptions), mb(row.memory.subscriptions_floor),
        mb(row.memory.trees), mb(row.memory.kernels), mb(row.memory.annotations));
    workload = std::move(sim).release_workload();
    point.rows.push_back(std::move(row));
  }
  return point;
}

// Rounds, lookahead and partition balance of one engine run: with them a
// row separates "fewer rounds / smaller heaps" from "more threads".
void write_engine_provenance(FILE* f, const char* run, const SimResult& r) {
  std::fprintf(f, "          \"%s_engine_rounds\": %llu,\n", run,
               static_cast<unsigned long long>(r.engine_rounds));
  if (r.engine_lookahead_ticks > 0) {
    std::fprintf(f, "          \"%s_engine_lookahead_ticks\": %lld,\n", run,
                 static_cast<long long>(r.engine_lookahead_ticks));
  } else {
    std::fprintf(f, "          \"%s_engine_lookahead_ticks\": null,\n", run);
  }
  std::fprintf(f, "          \"%s_engine_partition_load\": %.3f,\n", run,
               r.engine_partition_load);
}

void write_json(const char* path, const std::vector<SweepPoint>& points, bool ci_mode,
                std::size_t parallel_threads, std::size_t pairs, unsigned hw,
                bool scaling_valid) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sim_scale_bench: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"sim_scale\",\n");
  std::fprintf(f,
               "  \"description\": \"parallel discrete-event engine campaign: serial vs "
               "parallel wall clock and bit-equivalence across scale topologies and all "
               "three routing protocols\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", ci_mode ? "ci" : "full");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"parallel_threads\": %zu,\n", parallel_threads);
  std::fprintf(f, "  \"run_pairs\": %zu,\n", pairs);
  std::fprintf(f, "  \"scaling_valid\": %s,\n", scaling_valid ? "true" : "false");
  std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n", bench::peak_rss_mb());
  if (scaling_valid) {
    std::fprintf(f, "  \"scaling_reason\": \"host has >= 4 hardware threads\",\n");
  } else {
    std::fprintf(f,
                 "  \"scaling_reason\": \"hardware_concurrency=%u < 4: parallel wall "
                 "clock measures synchronization overhead, not scaling; equivalence "
                 "results remain valid\",\n",
                 hw);
  }
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", p.name.c_str());
    std::fprintf(f, "      \"topology\": \"%s\",\n", to_string(p.spec.topology.kind));
    std::fprintf(f, "      \"brokers\": %zu,\n", p.brokers);
    std::fprintf(f, "      \"clients\": %zu,\n", p.clients);
    std::fprintf(f, "      \"subscriptions\": %zu,\n", p.spec.workload.subscriptions);
    std::fprintf(f, "      \"events\": %zu,\n", p.spec.workload.events);
    std::fprintf(f, "      \"rate_eps\": %.1f,\n", p.spec.workload.rate_eps);
    std::fprintf(f, "      \"churn_rate_eps\": %.1f,\n", p.spec.workload.churn_rate_eps);
    std::fprintf(f, "      \"link_mtbf_seconds\": %.2f,\n",
                 p.spec.workload.link_mtbf_seconds);
    std::fprintf(f, "      \"protocols\": [\n");
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      const ProtocolRow& row = p.rows[r];
      const SimResult& s = row.serial;
      std::fprintf(f, "        {\n");
      std::fprintf(f, "          \"protocol\": \"%s\",\n", to_string(row.protocol));
      std::fprintf(f, "          \"control_plane\": \"%s\",\n", s.control_plane);
      std::fprintf(f, "          \"steps_exact\": %s,\n", s.steps_exact ? "true" : "false");
      std::fprintf(f, "          \"build_seconds\": %.3f,\n", row.build_seconds);
      std::fprintf(f, "          \"build_rss_mb\": %.1f,\n", row.build_rss_mb);
      const SimMemory& m = row.memory;
      std::fprintf(f,
                   "          \"memory_bytes\": {\"subscriptions\": %zu, "
                   "\"subscriptions_floor\": %zu, \"trees\": %zu, \"kernels\": %zu, "
                   "\"annotations\": %zu, \"total\": %zu},\n",
                   m.subscriptions, m.subscriptions_floor, m.trees, m.kernels, m.annotations,
                   m.total());
      std::fprintf(f, "          \"rss_unaccounted_mb\": %.1f,\n",
                   row.build_rss_mb - static_cast<double>(m.total()) / (1024.0 * 1024.0));
      std::fprintf(f, "          \"serial_wall_seconds\": %.4f,\n", row.serial_wall);
      std::fprintf(f, "          \"parallel_wall_seconds\": %.4f,\n", row.parallel_wall);
      std::fprintf(f, "          \"speedup\": %.3f,\n", row.speedup);
      std::fprintf(f, "          \"pair_speedups\": [");
      for (std::size_t i = 0; i < row.pair_speedups.size(); ++i) {
        std::fprintf(f, "%s%.3f", i == 0 ? "" : ", ", row.pair_speedups[i]);
      }
      std::fprintf(f, "],\n");
      write_engine_provenance(f, "serial", s);
      write_engine_provenance(f, "parallel", row.parallel);
      std::fprintf(f, "          \"serial_parallel_identical\": %s,\n",
                   row.equivalent ? "true" : "false");
      std::fprintf(f, "          \"events_published\": %zu,\n", s.events_published);
      std::fprintf(f, "          \"deliveries\": %llu,\n",
                   static_cast<unsigned long long>(s.deliveries));
      std::fprintf(f, "          \"broker_messages\": %llu,\n",
                   static_cast<unsigned long long>(s.broker_messages));
      std::fprintf(f, "          \"client_messages\": %llu,\n",
                   static_cast<unsigned long long>(s.client_messages));
      std::fprintf(f, "          \"bytes_on_wire\": %llu,\n",
                   static_cast<unsigned long long>(s.bytes_on_wire));
      std::fprintf(f, "          \"total_matching_steps\": %llu,\n",
                   static_cast<unsigned long long>(s.total_matching_steps));
      std::fprintf(f, "          \"max_utilization\": %.4f,\n", s.max_utilization);
      std::fprintf(f, "          \"mean_delivery_latency_ms\": %.2f,\n",
                   s.mean_delivery_latency_ms);
      std::fprintf(f, "          \"overloaded\": %s,\n", s.overloaded ? "true" : "false");
      std::fprintf(f, "          \"oracle_sampled_fraction\": %.6f,\n",
                   s.oracle_sampled_fraction);
      std::fprintf(f, "          \"oracle_events_verified\": %zu,\n",
                   s.oracle_events_verified);
      std::fprintf(f, "          \"missing_deliveries\": %llu,\n",
                   static_cast<unsigned long long>(s.missing_deliveries));
      std::fprintf(f, "          \"spurious_deliveries\": %llu,\n",
                   static_cast<unsigned long long>(s.spurious_deliveries));
      std::fprintf(f, "          \"duplicate_deliveries\": %llu,\n",
                   static_cast<unsigned long long>(s.duplicate_deliveries));
      std::fprintf(f, "          \"churn_subscribes\": %llu,\n",
                   static_cast<unsigned long long>(s.churn_subscribes));
      std::fprintf(f, "          \"link_outages\": %llu\n",
                   static_cast<unsigned long long>(s.link_outages));
      std::fprintf(f, "        }%s\n", r + 1 < p.rows.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int run(bool ci_mode, const char* out_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool scaling_valid = hw >= 4;
  const std::size_t parallel_threads =
      scaling_valid ? std::min<std::size_t>(hw, 8) : 2;
  // The reduced sweep's runs take milliseconds, so one serial/parallel pair
  // is noise-bound; its speedup gate reads the median of five pairs.
  const std::size_t pairs = ci_mode ? 5 : 1;
  bench::print_header(ci_mode ? "sim-scale campaign (reduced CI sweep)"
                              : "sim-scale campaign (full sweep)");
  std::printf("hardware threads: %u, parallel engine threads: %zu%s\n\n", hw,
              parallel_threads,
              scaling_valid ? "" : "  (speedup not meaningful on this host)");

  std::vector<SweepPoint> points;

  if (ci_mode) {
    // Reduced sweep: the Figure 6 differential, the same point with the
    // in-sim dynamics on (subscription churn plus link down/up, so the
    // maintained-row route of churning trees runs), and one WAN point of
    // ~200 brokers.
    SimSpec fig6 = bench::paper_spec(10, 5, 0.85, 2000, 200, /*seed=*/501);
    fig6.workload.rate_eps = 100.0;
    points.push_back(run_point("fig6-39", fig6, parallel_threads, pairs));

    SimSpec dynamics = bench::paper_spec(10, 5, 0.85, 2000, 200, /*seed=*/503);
    dynamics.workload.rate_eps = 100.0;
    dynamics.workload.churn_rate_eps = 100.0;
    dynamics.workload.link_mtbf_seconds = 3.0;
    dynamics.workload.link_mttr_seconds = 0.5;
    points.push_back(run_point("fig6-dynamics", dynamics, parallel_threads, pairs));

    SimSpec wan;
    wan.seed = 502;
    wan.topology.kind = TopologyKind::kWan;
    wan.topology.wan.regions = 8;
    wan.topology.wan.brokers_per_region = 25;
    wan.workload.subscriptions = 20000;
    wan.workload.events = 200;
    wan.workload.rate_eps = 100.0;
    points.push_back(run_point("wan-200", wan, parallel_threads, pairs));
  } else {
    SimSpec fig6 = bench::paper_spec(10, 5, 0.85, 10000, 2000, /*seed=*/601);
    fig6.workload.rate_eps = 200.0;
    points.push_back(run_point("fig6-39", fig6, parallel_threads, pairs));

    // Figure 6 with the in-sim dynamics on: subscription churn plus link
    // down/up. Verification is off under churn (publish-time oracle), so
    // this point demonstrates the dynamics and the equivalence gate only.
    SimSpec dynamics = bench::paper_spec(10, 5, 0.85, 4000, 1000, /*seed=*/602);
    dynamics.workload.rate_eps = 100.0;
    dynamics.workload.churn_rate_eps = 100.0;
    dynamics.workload.link_mtbf_seconds = 3.0;
    dynamics.workload.link_mttr_seconds = 0.5;
    points.push_back(run_point("fig6-dynamics", dynamics, parallel_threads, pairs));

    SimSpec fat_tree;
    fat_tree.seed = 603;
    fat_tree.topology.kind = TopologyKind::kFatTree;
    fat_tree.topology.fat_tree.pods = 12;  // 180 brokers, 720 clients
    fat_tree.workload.subscriptions = 50000;
    fat_tree.workload.events = 1000;
    fat_tree.workload.rate_eps = 200.0;
    points.push_back(run_point("fattree-180", fat_tree, parallel_threads, pairs));

    SimSpec waxman;
    waxman.seed = 604;
    waxman.topology.kind = TopologyKind::kWaxman;
    waxman.topology.waxman.brokers = 500;
    waxman.workload.subscriptions = 200000;
    waxman.workload.events = 500;
    waxman.workload.rate_eps = 100.0;
    points.push_back(run_point("waxman-500", waxman, parallel_threads, pairs));

    // The headline point: 1000 brokers, 10,000 clients, 1M subscriptions.
    SimSpec wan;
    wan.seed = 605;
    wan.topology.kind = TopologyKind::kWan;
    wan.topology.wan.regions = 40;
    wan.topology.wan.brokers_per_region = 25;
    wan.workload.subscriptions = 1000000;
    wan.workload.events = 500;
    wan.workload.rate_eps = 100.0;
    points.push_back(run_point("wan-1000", wan, parallel_threads, pairs));
  }

  bool all_equivalent = true;
  bool all_clean = true;
  for (const SweepPoint& p : points) {
    for (const ProtocolRow& row : p.rows) {
      all_equivalent &= row.equivalent;
      all_clean &= row.serial.missing_deliveries == 0 &&
                   row.serial.spurious_deliveries == 0 &&
                   row.serial.duplicate_deliveries == 0;
    }
  }
  std::printf("\nequivalence: %s, oracle: %s\n",
              all_equivalent ? "all serial/parallel runs identical" : "MISMATCH",
              all_clean ? "no missing/spurious/duplicate deliveries" : "VIOLATIONS");

  write_json(out_path, points, ci_mode, parallel_threads, pairs, hw, scaling_valid);
  return all_equivalent && all_clean ? 0 : 1;
}

}  // namespace
}  // namespace gryphon

int main(int argc, char** argv) {
  bool ci_mode = false;
  const char* out_path = "BENCH_sim_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci_mode = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--ci] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  return gryphon::run(ci_mode, out_path);
}
