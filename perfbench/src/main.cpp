// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Workloads: line3-tcp, fig6-inproc, churn-inproc, sim-fig6 (see
// perfbench/README.md). --trace 0 prints the end-to-end metrics; --trace 1
// prints the per-layer metrics and writes the span dump. The last line of
// standard output is the result object; the line before it holds the run's
// details and provenance, which are also written to <out>.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <line3-tcp|fig6-inproc|churn-inproc|"
               "sim-fig6> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               error.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool sim = args.workload == "sim-fig6";
  if (!sim && !is_broker_workload(args.workload)) usage("unknown workload " + args.workload);

  Report report;
  Outcome outcome;
  try {
    outcome = sim ? run_sim_workload(args, report) : run_broker_workload(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    // Every per-layer metric appears; layers off this workload's path read 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!report.has(name)) report.set(name, 0.0, unit);
    }
    if (report.metric_count() != per_layer_metrics().size()) {
      std::fprintf(stderr, "perfbench: a reported metric is missing from per_layer_metrics()\n");
      return 1;
    }
  }
  report.detail("final_rss_mb", peak_rss_mb());
  report.detail("seed", static_cast<double>(args.seed));
  report.detail("seconds", args.seconds);
  report.detail("trace", args.trace ? "1" : "0");
  report.detail("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.detail("hardware_concurrency", static_cast<double>(std::thread::hardware_concurrency()));
  report.detail("build_type", PERFBENCH_BUILD_TYPE);
  report.detail("compiler", PERFBENCH_COMPILER);
  report.detail("correct", outcome.correct ? "true" : "false");
  if (args.trace) {
    report.detail("trace.spans_dropped", static_cast<double>(SpanLog::instance().dropped()));
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  if (std::FILE* file = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(file, "{\"details\": %s, \"metrics\": %s}\n", report.details_json().c_str(),
                 report.metrics_json().c_str());
    std::fclose(file);
  }
  if (args.trace && !SpanLog::instance().write(args.out_dir + "/" + args.workload + ".spans.tsv")) {
    std::fprintf(stderr, "perfbench: could not write the span dump under %s\n",
                 args.out_dir.c_str());
  }

  std::printf("{\"details\": %s}\n", report.details_json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), report.metrics_json().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
