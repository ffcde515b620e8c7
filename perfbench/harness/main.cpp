// perfbench harness entry point. run.py builds and drives it:
//
//   perfbench --workload fifo-nwm|exact-sweep|serve-mix --seed N
//             --seconds S --trace 0|1 --rtl DIR --work DIR
//   perfbench --selftest --rtl DIR --work DIR
//
// The last stdout line is one JSON document (see Report::to_json).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/harness/bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") options.seconds = std::atof(value.c_str());
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--rtl") options.rtl_dir = value;
    else if (arg == "--work") options.work_dir = value;
    else return usage(("unknown option " + arg).c_str());
  }
  if (options.rtl_dir.empty() || options.work_dir.empty()) return usage("--rtl and --work are required");
  if (options.seconds <= 0.0) return usage("--seconds must be positive");
  if (selftest) {
    std::fprintf(stderr, "perfbench self-tests\n");
    perfbench::Checks checks;
    perfbench::selftest_campaigns(options, checks);
    perfbench::selftest_serve(options, checks);
    std::fprintf(stderr, "%s\n", checks.failures == 0 ? "all self-tests passed" : "self-tests FAILED");
    return checks.failures == 0 ? 0 : 1;
  }

  perfbench::Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  report.traced = options.trace;
  try {
    if (options.workload == "fifo-nwm") perfbench::run_fifo_nwm(options, report);
    else if (options.workload == "exact-sweep") perfbench::run_exact_sweep(options, report);
    else if (options.workload == "serve-mix") perfbench::run_serve_mix(options, report);
    else return usage(("unknown workload '" + options.workload + "'").c_str());
  } catch (const std::exception& e) {
    ++report.attempted;
    report.fail(std::string("exception: ") + e.what());
  }
  if (options.trace) perfbench::complete_per_layer(report);
  std::printf("%s\n", report.to_json().dump().c_str());
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
