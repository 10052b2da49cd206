// uniqbench: the uniqopt benchmark binary.
//
//   uniqbench --workload adhoc|analytic|oltp --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Prints a human-readable report, then one JSON result line as the last
// line of standard output. Exits non-zero when any correctness check
// failed. uniqbench/run.py builds this binary and is the entry point.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace uniqbench {

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "uniqbench: %s\nusage: uniqbench --workload "
               "adhoc|analytic|oltp --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace uniqbench

int main(int argc, char** argv) {
  using namespace uniqbench;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  Report report;
  Tally tally;
  if (config.workload == "adhoc") {
    RunAdhoc(config, &report, &tally);
  } else if (config.workload == "analytic") {
    RunAnalytic(config, &report, &tally);
  } else if (config.workload == "oltp") {
    RunOltp(config, &report, &tally);
  } else {
    return Usage("unknown --workload");
  }
  report.Info("error_rate",
              tally.attempted() == 0
                  ? 1.0
                  : static_cast<double>(tally.failed()) /
                        static_cast<double>(tally.attempted()),
              "ratio");
  report.Print(tally);
  return tally.failed() == 0 && tally.attempted() > 0 ? 0 : 1;
}
