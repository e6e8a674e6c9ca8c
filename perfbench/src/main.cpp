// perfbench — one process per workload.
//
//   perfbench <workload> --seed N --seconds S [--trace-out FILE]
//
// Without --trace-out the workload measures its end-to-end metrics for
// S seconds. With it, the workload runs its fixed traced script instead
// (deterministic op counts, ops alternately untraced and traced so the
// overhead of tracing is measured) and reports its per-layer metrics.
// mobile-1k has only its traced script. Either way the last stdout line
// is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench stabilize-250k|mobile-1k|campaign-mix|"
               "serve-4c --seed N --seconds S [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssmwn::perfbench;
  if (argc < 2) usage();
  const std::string workload = argv[1];
  Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace-out") {
      options.trace = true;
      options.trace_out = value;
    } else {
      usage();
    }
  }
  try {
    Result result;
    if (workload == "stabilize-250k") {
      result = run_stabilize(options);
    } else if (workload == "mobile-1k") {
      result = run_mobile(options);
    } else if (workload == "campaign-mix") {
      result = run_campaign_mix(options);
    } else if (workload == "serve-4c") {
      result = run_serve(options);
    } else {
      usage();
    }
    result.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
