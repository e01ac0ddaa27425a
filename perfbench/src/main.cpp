// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload paper|city|served --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--serve-bin PATH]
//                    [--trace-out PATH] [--tiny] [--tamper-reward]
//
// Human-readable lines go first; the last line of stdout is the JSON
// result {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit
// code 0 when every correctness gate passed, 1 when one failed (the
// result line is still printed), 2 on a usage or set-up error (no
// result line). perfbench/run.py builds this binary and calls it.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void check_identical(const Options& opt, Report& report,
                     const std::string& what, double want, double got) {
  if (opt.tamper_reward) got = std::nextafter(got, INFINITY);
  if (want != got) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: %.17g != %.17g", what.c_str(), want,
                  got);
    report.fail(buf);
  }
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double busy_imbalance(const std::vector<double>& busy) {
  double sum = 0.0, max = 0.0;
  for (const double b : busy) {
    sum += b;
    max = std::max(max, b);
  }
  return busy.size() >= 2 && sum > 0.0
             ? max * static_cast<double>(busy.size()) / sum
             : 1.0;
}

void print_layer_table(const Tracer& tracer, const std::string& root) {
  const auto summaries = tracer.summarize();
  double root_ms = 0.0, self_sum = 0.0;
  std::size_t slots = 0;
  for (const auto& s : summaries) {
    if (s.name == root) {
      root_ms = s.total_ms;
      slots = s.spans;
    }
  }
  if (slots == 0) return;
  std::printf("%-20s %12s %12s %10s %8s\n", "layer", "self ms/slot",
              "p50 ms", "spans", "share");
  for (const auto& s : summaries) {
    if (s.name == root) continue;
    self_sum += s.self_ms;
    std::printf("%-20s %12.4f %12.4f %10zu %7.1f%%\n", s.name.c_str(),
                s.self_ms / static_cast<double>(slots),
                percentile(s.durations_ms, 50), s.spans,
                100.0 * s.self_ms / root_ms);
  }
  std::printf("%-20s %12.4f %12s %10zu %7.1f%%\n", "residual",
              (root_ms - self_sum) / static_cast<double>(slots), "-", slots,
              100.0 * (root_ms - self_sum) / root_ms);
  std::printf("%-20s %12.4f\n", (root + " (total)").c_str(),
              root_ms / static_cast<double>(slots));
}

namespace {

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload paper|city|served "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--serve-bin PATH] [--trace-out PATH] [--tiny] "
               "[--tamper-reward]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else if (arg == "--serve-bin") {
        opt.serve_bin = value();
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--tamper-reward") {
        opt.tamper_reward = true;
      } else {
        return usage("unknown flag " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad flag value: ") + e.what());
  }
  if (opt.workload != "paper" && opt.workload != "city" &&
      opt.workload != "served") {
    return usage("--workload must be paper, city or served");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (opt.workload == "served" && opt.serve_bin.empty()) {
    return usage("served needs --serve-bin");
  }

  Report report;
  std::string line;
  try {
    if (opt.workload == "served") {
      run_served(opt, report);
    } else {
      run_in_process(opt, report);
    }
    // A run whose gate failed may stop before it measured everything;
    // its result line still reports correct=false.
    const bool partial = !report.correct() || report.failed > 0;
    line = opt.trace ? report.json(kPerLayer, true)
                     : report.json(kEndToEnd, partial);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  for (const auto& why : report.failures()) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct() && report.failed == 0 ? 0 : 1;
}
