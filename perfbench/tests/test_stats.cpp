// Unit tests of the benchmark's own helpers: nearest-rank percentiles and
// the "at least 10 samples beyond" tail rule, span self time, and the
// result line's metric catalogue checks.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnKnownInputs) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 50), 50.0);
  EXPECT_EQ(percentile_sorted(v, 90), 90.0);
  EXPECT_EQ(percentile_sorted(v, 99), 99.0);
  EXPECT_EQ(percentile_sorted(v, 100), 100.0);
  // ceil(0.5 * 5) = 3rd of five.
  EXPECT_EQ(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 50), 3.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_THROW(percentile_rank(10, 0), std::invalid_argument);
  EXPECT_THROW(percentile_rank(10, 101), std::invalid_argument);
}

TEST(Percentile, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(supports(1000, 99));
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_FALSE(supports(999, 99));
  EXPECT_TRUE(supports(100, 90));
  EXPECT_FALSE(supports(99, 90));
  EXPECT_TRUE(supports(20, 50));
  EXPECT_FALSE(supports(19, 50));
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, TailIsHighestSupportedUnderTheCap) {
  EXPECT_EQ(tail_percentile(1000, 99), 99);
  EXPECT_EQ(tail_percentile(999, 99), 90);
  EXPECT_EQ(tail_percentile(100000, 90), 90);  // the cap holds
  EXPECT_EQ(tail_percentile(100, 99), 90);
  EXPECT_EQ(tail_percentile(99, 99), 50);
  EXPECT_EQ(tail_percentile(20, 90), 50);
  EXPECT_EQ(tail_percentile(19, 99), 0);
}

TEST(Percentile, BlockedMedianAveragesBlockMedians) {
  // Blocks {1,2,3} and {10,20,30}: medians 2 and 20; the tail (7) is not
  // a full block and is left out.
  EXPECT_EQ(blocked_median({3.0, 1.0, 2.0, 30.0, 10.0, 20.0, 7.0}, 3), 11.0);
  // A run that sits half in each of two speed states reads between them,
  // where the plain median would read one of them.
  std::vector<double> two_states(100, 1.0);
  two_states.insert(two_states.end(), 100, 2.0);
  EXPECT_EQ(blocked_median(two_states, 10), 1.5);
  EXPECT_EQ(percentile(two_states, 50), 1.0);
  // No full block: the plain median.
  EXPECT_EQ(blocked_median({4.0, 1.0, 3.0}, 5), 3.0);
  EXPECT_EQ(blocked_median({}, 5), 0.0);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tracer;
  const int slot = tracer.layer("slot");
  const int a = tracer.layer("a");
  const int b = tracer.layer("b");
  EXPECT_EQ(tracer.layer("a"), a);  // interned once
  const auto t0 = Tracer::Clock::now();
  const auto ms = [&](int n) { return t0 + std::chrono::milliseconds(n); };
  const auto root =
      static_cast<std::int64_t>(tracer.record(slot, 1, ms(0), ms(10), -1));
  tracer.record(a, 1, ms(1), ms(4), root);
  tracer.record(b, 1, ms(5), ms(9), root);
  const auto summaries = tracer.summarize();
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_NEAR(summaries[0].total_ms, 10.0, 1e-9);
  EXPECT_NEAR(summaries[0].self_ms, 3.0, 1e-9);  // the residual
  EXPECT_NEAR(summaries[1].self_ms, 3.0, 1e-9);
  EXPECT_NEAR(summaries[2].self_ms, 4.0, 1e-9);
  EXPECT_EQ(summaries[2].durations_ms.size(), 1u);
}

TEST(Tracer, ScopesNestAndCount) {
  Tracer tracer;
  const int outer = tracer.layer("outer");
  const int inner = tracer.layer("inner");
  {
    const Tracer::Scope o(tracer, outer, 7);
    const Tracer::Scope i(tracer, inner, 7);
  }
  tracer.count("tasks", 3);
  tracer.count("tasks", 4);
  EXPECT_EQ(tracer.count_total("tasks"), 7.0);
  EXPECT_EQ(tracer.count_total("absent"), 0.0);
  const auto s = tracer.summarize();
  EXPECT_LE(s[1].total_ms, s[0].total_ms);
  EXPECT_NEAR(s[0].self_ms, s[0].total_ms - s[1].total_ms, 1e-9);
  EXPECT_THROW(
      {
        const std::size_t first = tracer.begin(outer, 8);
        (void)tracer.begin(inner, 8);
        tracer.end(first);  // not the innermost
      },
      std::logic_error);
}

TEST(Report, EmitsTheCatalogueInOrder) {
  Report report;
  report.attempted = 5;
  for (const MetricSpec& spec : kEndToEnd) report.set(spec.name, 1.5);
  const std::string line = report.json(kEndToEnd, false);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 5, \"failed\": 0", 0),
            0u);
  std::size_t last = 0;
  for (const MetricSpec& spec : kEndToEnd) {
    const std::size_t at = line.find("\"" + std::string(spec.name) + "\"");
    ASSERT_NE(at, std::string::npos) << spec.name;
    EXPECT_GT(at, last);
    last = at;
    EXPECT_NE(line.find("\"unit\": \"" + std::string(spec.unit) + "\"", at),
              std::string::npos);
  }
}

TEST(Report, RefusesMissingUnknownAndNonFiniteMetrics) {
  Report missing;
  missing.set("slots_per_s", 1.0);
  EXPECT_THROW((void)missing.json(kEndToEnd, false), std::logic_error);
  EXPECT_NO_THROW((void)missing.json(kEndToEnd, true));

  Report unknown;
  unknown.set("no.such.metric", 1.0);
  EXPECT_THROW((void)unknown.json(kPerLayer, true), std::logic_error);

  Report nan;
  nan.set("trace.overhead", std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)nan.json(kPerLayer, true), std::logic_error);
}

TEST(Report, AFailedGateReadsIncorrect) {
  Report report;
  report.fail("reward differs");
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.json(kPerLayer, true).rfind("{\"correct\": false", 0), 0u);
  Report failed_slot;
  failed_slot.failed = 1;
  EXPECT_EQ(failed_slot.json(kPerLayer, true).rfind("{\"correct\": false", 0),
            0u);
}

}  // namespace
}  // namespace perfbench
