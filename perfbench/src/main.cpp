// perfbench: the repository benchmark program.
//
//   perfbench --workload table1|scale|serve --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints progress and reports on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones (and writes a chrome trace plus a self-time report
// under --out-dir).  Exits 1 when a correctness check failed, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      cfg.trace = value != "0";
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else {
      std::cerr << "perfbench: unknown flag " << arg << "\n";
      return 2;
    }
  }

  Result result;
  if (workload == "table1") {
    result = run_table1(cfg);
  } else if (workload == "scale") {
    result = run_scale(cfg);
  } else if (workload == "serve") {
    result = run_serve(cfg);
  } else {
    std::cerr << "perfbench: --workload must be table1, scale or serve\n";
    return 2;
  }
  const std::string line = result.emit(cfg.trace);
  for (const std::string& problem : result.problems()) {
    std::cerr << "perfbench: check failed: " << problem << "\n";
  }
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}
