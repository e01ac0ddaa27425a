// The benchmark's metric catalogue and its one-line JSON result.
//
// kEndToEnd and kPerLayer name every metric BENCHMARK.json lists, with
// its unit; a run with --trace 0 reports exactly the first set and a
// run with --trace 1 exactly the second. Report::json() refuses a run
// that misses or adds a name, so the catalogue and the workloads cannot
// drift apart silently.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"slots_per_s", "slots/s"},
    {"slot_ms_p50", "ms"},
    {"slot_ms_tail", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"reward_ratio", "1"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"sim.generate.ms_p50", "ms"},
    {"sim.generate.ms_tail", "ms"},
    {"sim.generate.share", "1"},
    {"sim.tasks_per_slot", "count"},
    {"sim.edges_per_slot", "count"},
    {"lfsc.select.ms_p50", "ms"},
    {"lfsc.select.ms_tail", "ms"},
    {"lfsc.select.share", "1"},
    {"lfsc.observe.ms_p50", "ms"},
    {"lfsc.observe.ms_tail", "ms"},
    {"lfsc.observe.share", "1"},
    {"lfsc.alg2.calculating.ms_per_slot", "ms"},
    {"lfsc.alg4.greedy_select.ms_per_slot", "ms"},
    {"lfsc.alg3.updating.ms_per_slot", "ms"},
    {"lfsc.improve.moves", "count"},
    {"lfsc.shard.busy.imbalance", "1"},
    {"lfsc.fill_ratio", "1"},
    {"metrics.validate.ms_per_slot", "ms"},
    {"metrics.evaluate.ms_per_slot", "ms"},
    {"metrics.feedback.ms_per_slot", "ms"},
    {"serve.ingest.ms_p50", "ms"},
    {"serve.ingest.ms_tail", "ms"},
    {"serve.ingest.us_per_line", "us"},
    {"serve.lines_per_slot", "count"},
    {"serve.bytes_per_slot", "bytes"},
    {"serve.tick.ms_p50", "ms"},
    {"serve.tick.ms_tail", "ms"},
    {"serve.policy.ms_per_slot", "ms"},
    {"serve.overhead.ms_per_slot", "ms"},
    {"checkpoint.writes", "count"},
    {"checkpoint.tick_ms_p50", "ms"},
    {"quality.reward_per_slot", "reward"},
    {"quality.qos_violation_per_slot", "1"},
    {"quality.resource_violation_per_slot", "1"},
    {"quality.qos_violation_ratio", "1"},
    {"quality.resource_violation_ratio", "1"},
    {"trace.overhead", "1"},
    {"trace.residual.share", "1"},
    {"trace.slots", "count"},
    {"run.threads", "count"},
    {"run.peers", "count"},
};

/// The metrics of one run plus its correctness verdict.
class Report {
 public:
  /// Sets metric `name` (which must be in the catalogue) to `value`.
  void set(std::string_view name, double value);

  /// Records a failed correctness check; the run reports correct=false.
  void fail(const std::string& why);
  bool correct() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  std::int64_t attempted = 0;  ///< slots attempted
  std::int64_t failed = 0;     ///< slots whose decision failed

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every metric of `catalogue`, in catalogue order. With `zero_unset`
  /// a catalogue name the run never set reads 0 (a layer the workload's
  /// path does not pass through); without it a missing name throws.
  /// Also throws std::logic_error when a set() name is outside the
  /// catalogue or a value is not finite.
  std::string json(std::span<const MetricSpec> catalogue,
                   bool zero_unset) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
