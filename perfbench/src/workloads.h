// The benchmark's three workloads (perfbench/README.md):
//   paper   the Sec. 5 world (30 SCNs), serial, in process, T = 10 000;
//   city    the same per-SCN world at 2000 SCNs, sharded on a pool sized
//           so that main thread + workers <= usable CPUs;
//   served  a spawned lfsc_serve with one Unix-socket peer in a closed
//           loop over a pre-rendered task stream of the paper world.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest shapes of every workload (the benchmark's own tests).
  bool tiny = false;
  /// Moves the compared reward one ulp before each equality gate, so a
  /// test can prove the gate trips.
  bool tamper_reward = false;
  std::string serve_bin;  ///< lfsc_serve binary (served)
  std::string work_dir;   ///< run-private scratch directory
  std::string trace_out;  ///< where a traced run writes its spans
};

/// Checks `got` == `want` bit for bit (after the --tamper-reward nudge)
/// and records a failure on `report` otherwise.
void check_identical(const Options& opt, Report& report,
                     const std::string& what, double want, double got);

/// CPUs this process may run on (sched_getaffinity), at least 1.
int usable_cpus();

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

/// max / mean of per-shard busy times; 1 for fewer than two shards.
double busy_imbalance(const std::vector<double>& busy);

/// Milliseconds from `a` to `b`.
inline double ms_between(Tracer::Clock::time_point a,
                         Tracer::Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-layer self-time table of a traced run, printed to stdout.
void print_layer_table(const Tracer& tracer, const std::string& root);

void run_in_process(const Options& opt, Report& report);
void run_served(const Options& opt, Report& report);

}  // namespace perfbench
