// mpch-bench — one command, three workloads, every output checked.
//
//   mpch-bench --workload chains|campaign|wire-recovery --seed N
//              --seconds S --trace 0|1 [--tiny]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced pass. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Exit code: 0 = measured (even if a check failed: "correct" says so),
// 2 = usage error, 1 = the workload could not run at all.
#include <iostream>
#include <stdexcept>

#include "measure.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace mpch;
  bench::Options options;
  try {
    util::CliArgs args(argc, argv);
    options.workload = args.get_string("workload", "");
    options.seed = args.get_u64("seed", 1);
    options.seconds = args.get_double("seconds", 20);
    options.trace = args.get_u64("trace", 0) != 0;
    options.tiny = args.get_bool("tiny", false);
    if (!args.unused().empty()) {
      throw std::invalid_argument("unknown flag --" + args.unused().front());
    }
    if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  } catch (const std::exception& e) {
    std::cerr << "mpch-bench: " << e.what() << "\n";
    return 2;
  }

  bench::Outcome (*workload)(const bench::Options&) = nullptr;
  if (options.workload == "chains") workload = bench::run_chains;
  if (options.workload == "campaign") workload = bench::run_campaign;
  if (options.workload == "wire-recovery") workload = bench::run_wire_recovery;
  if (workload == nullptr) {
    std::cerr << "mpch-bench: --workload must be chains, campaign or wire-recovery\n";
    return 2;
  }
  try {
    bench::print_result(workload(options));
  } catch (const std::exception& e) {
    std::cerr << "mpch-bench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
