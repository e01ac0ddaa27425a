#include "quality.h"

#include <algorithm>

namespace perfbench {

Quality reference_quality(const lfsc::Slot& slot,
                          const lfsc::NetworkConfig& net,
                          std::vector<std::size_t>& scratch) {
  Quality out;
  const auto c = static_cast<std::size_t>(net.capacity_c);
  for (std::size_t m = 0; m < slot.info.coverage.size(); ++m) {
    const auto& u = slot.real.u[m];
    const auto& v = slot.real.v[m];
    const auto& q = slot.real.q[m];
    const auto g = [&](std::size_t j) {
      return q[j] > 0.0 ? u[j] * v[j] / q[j] : 0.0;
    };
    scratch.resize(u.size());
    for (std::size_t j = 0; j < u.size(); ++j) scratch[j] = j;
    const std::size_t k = std::min(c, scratch.size());
    // Highest g first; ties by local index, so the choice is unique.
    std::nth_element(scratch.begin(), scratch.begin() + k, scratch.end(),
                     [&](std::size_t a, std::size_t b) {
                       return g(a) != g(b) ? g(a) > g(b) : a < b;
                     });
    double completed = 0.0, used = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      out.reward += g(scratch[i]);
      completed += v[scratch[i]];
      used += q[scratch[i]];
    }
    out.qos += std::max(0.0, net.qos_alpha - completed);
    out.res += std::max(0.0, used - net.resource_beta);
  }
  return out;
}

void report_quality(const Quality& run, const Quality& reference, int slots,
                    Report& report) {
  const auto n = static_cast<double>(slots);
  report.set("quality.reward_per_slot", run.reward / n);
  report.set("quality.qos_violation_per_slot", run.qos / n);
  report.set("quality.resource_violation_per_slot", run.res / n);
  report.set("quality.qos_violation_ratio", run.qos / reference.qos);
  report.set("quality.resource_violation_ratio", run.res / reference.res);
}

}  // namespace perfbench
