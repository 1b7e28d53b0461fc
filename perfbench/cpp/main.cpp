// FanStore repository benchmark. One run measures one workload for
// --seconds and prints human-readable lines, then one JSON line:
//   --trace 0  the end-to-end metrics (nothing traced)
//   --trace 1  the per-layer metrics (traced and untraced phases alternate)
// Exit status: 0 when every byte verified and every counter cross-check
// held, 1 when one did not, 2 on a usage or runtime error.
#include <cstdio>
#include <exception>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    calibrate_ticks();
    std::printf(
        "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %s, "
        "\"hardware_concurrency\": %u, \"source\": \"%s\", \"build_type\": \"%s\", "
        "\"compiler\": \"%s\"}}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
        args.trace ? "true" : "false", std::thread::hardware_concurrency(),
        args.source_id.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__);
    Report report;
    if (args.workload == "train_hot") {
      run_train(args, /*cold=*/false, report);
    } else if (args.workload == "train_cold") {
      run_train(args, /*cold=*/true, report);
    } else if (args.workload == "serve_ipc") {
      run_serve(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    std::printf("error_rate: %llu failed of %llu attempted\n",
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
    report.print_result(args.trace);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
