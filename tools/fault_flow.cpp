// fault_flow — fault injection against the hardened RABID flow.
//
// Each instance starts from one seeded random circuit and drives the
// full fault catalogue (src/fuzz/faults.hpp) against it: mutated
// circuit text, mutated solution dumps, tile-graph capacity lies, and
// injected checkpoint/filesystem failures.  The contract under test is
// binary — every fault ends in a structured core::Status error or in an
// audit-clean flow, never a crash, hang, or silent corruption.
//
//   fault_flow --instances 8                  # the acceptance sweep
//   fault_flow --time-budget 60 --json r.json # CI smoke artifact
//   fault_flow --seed 1234 --instances 1 --verbose
//
// Flags:
//   --instances N      instances (seeds) to run (default 8; one
//                      instance injects ~80 faults across categories)
//   --seed S           first seed; instance i uses S + i (default 1)
//   --threads N        worker threads for injected flow runs (default 2)
//   --time-budget SEC  stop starting new instances after SEC seconds
//                      (0 = no budget; default 0)
//   --scratch DIR      writable directory for I/O fault scratch space
//                      (default: the system temp directory)
//   --json F           write a machine-readable report to F
//   --verbose          print every instance, not just failures

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/faults.hpp"
#include "obs/json.hpp"

namespace {

struct Args {
  std::int64_t instances = 8;
  std::uint64_t seed = 1;
  std::int32_t threads = 2;
  double time_budget_s = 0.0;
  std::string scratch;
  std::string json;
  bool verbose = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: fault_flow [--instances N] [--seed S] [--threads N]\n"
               "       [--time-budget SEC] [--scratch DIR] [--json F]\n"
               "       [--verbose]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--instances") {
      a.instances = std::atoll(value());
      if (a.instances < 1) usage("--instances expects a positive count");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--threads") {
      a.threads = std::atoi(value());
      if (a.threads < 0) usage("--threads expects >= 0");
    } else if (flag == "--time-budget") {
      a.time_budget_s = std::atof(value());
      if (a.time_budget_s < 0) usage("--time-budget expects >= 0 seconds");
    } else if (flag == "--scratch") {
      a.scratch = value();
    } else if (flag == "--json") {
      a.json = value();
    } else if (flag == "--verbose") {
      a.verbose = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

void write_json(const std::string& path, const Args& args, std::int64_t ran,
                double elapsed_s, const rabid::fuzz::FaultReport& total,
                std::int64_t io_injected) {
  std::ofstream out(path);
  if (!out) usage("cannot open --json file");
  out << "{\n  \"instances_requested\": " << args.instances
      << ",\n  \"instances_run\": " << ran << ",\n  \"seed0\": " << args.seed
      << ",\n  \"threads\": " << args.threads
      << ",\n  \"elapsed_s\": " << elapsed_s
      << ",\n  \"faults_injected\": " << total.injected
      << ",\n  \"io_faults_injected\": " << io_injected
      << ",\n  \"structured_errors\": " << total.structured_errors
      << ",\n  \"clean_runs\": " << total.clean_runs
      << ",\n  \"contract_violations\": " << total.failures.size()
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < total.failures.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    rabid::obs::json::append_escaped(out, total.failures[i]);
  }
  out << (total.failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  rabid::fuzz::FaultOptions options;
  options.threads = args.threads;

  std::string scratch = args.scratch;
  if (scratch.empty()) {
    std::error_code ec;
    scratch = std::filesystem::temp_directory_path(ec).string();
    if (ec || scratch.empty()) scratch = ".";
  }
  scratch += "/fault-flow-" + std::to_string(args.seed);
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  if (ec) usage(("cannot create scratch dir " + scratch).c_str());

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  rabid::fuzz::FaultReport total;
  std::int64_t io_injected = 0;
  std::int64_t ran = 0;
  for (; ran < args.instances; ++ran) {
    if (args.time_budget_s > 0.0 && elapsed() > args.time_budget_s) break;
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(ran);
    rabid::fuzz::FaultReport instance;
    instance.merge(rabid::fuzz::fuzz_circuit_faults(seed, options));
    instance.merge(rabid::fuzz::fuzz_solution_faults(seed, options));
    instance.merge(rabid::fuzz::fuzz_graph_faults(seed, options));
    const rabid::fuzz::FaultReport io =
        rabid::fuzz::fuzz_io_faults(seed, scratch, options);
    io_injected += io.injected;
    instance.merge(io);

    for (const std::string& f : instance.failures) {
      std::printf("FAIL seed %llu: %s\n",
                  static_cast<unsigned long long>(seed), f.c_str());
    }
    if (args.verbose || !instance.ok()) {
      std::printf("%s seed %llu: %lld faults, %lld structured errors, "
                  "%lld clean runs, %zu violations\n",
                  instance.ok() ? "ok  " : "FAIL",
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(instance.injected),
                  static_cast<long long>(instance.structured_errors),
                  static_cast<long long>(instance.clean_runs),
                  instance.failures.size());
    }
    total.merge(instance);
  }

  const double total_s = elapsed();
  std::filesystem::remove_all(scratch, ec);  // best-effort cleanup
  std::printf("fault_flow: %lld instances, %lld faults injected (%lld I/O), "
              "%lld structured errors, %lld clean runs, %zu contract "
              "violations, %.1fs\n",
              static_cast<long long>(ran),
              static_cast<long long>(total.injected),
              static_cast<long long>(io_injected),
              static_cast<long long>(total.structured_errors),
              static_cast<long long>(total.clean_runs),
              total.failures.size(), total_s);
  if (!args.json.empty()) {
    write_json(args.json, args, ran, total_s, total, io_injected);
    std::printf("wrote report to %s\n", args.json.c_str());
  }
  return total.ok() ? 0 : 1;
}
