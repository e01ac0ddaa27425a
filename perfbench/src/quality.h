// Decision quality of a run, relative to a full-information reference
// on the same slots.
//
// Raw reward and constraint violations per slot differ by several
// percent from one seed's world to the next (each seed draws its own
// latent mean tables), which would swamp any change a benchmark should
// catch. Dividing by the same quantities of a reference selection on
// the same slots cancels the world: the reference lets each SCN take its
// c covered tasks with the highest realized compound reward g = u·v/q,
// ignoring uniqueness (1b) and the (1c)/(1d) constraints. Its reward
// bounds every feasible assignment's reward from above.
#pragma once

#include <cstddef>
#include <vector>

#include "report.h"
#include "sim/network.h"
#include "sim/task.h"

namespace perfbench {

/// Summed outcome of a stretch of slots.
struct Quality {
  double reward = 0.0;
  double qos = 0.0;  ///< (1c) violation: sum over SCNs of max(0, α − Σv)
  double res = 0.0;  ///< (1d) violation: sum over SCNs of max(0, Σq − β)

  Quality& operator+=(const Quality& other) {
    reward += other.reward;
    qos += other.qos;
    res += other.res;
    return *this;
  }
};

/// Reports the per-layer quality metrics of a reward window of `slots`
/// slots: raw reward and violations per slot, and the violations
/// relative to the reference selection's.
void report_quality(const Quality& run, const Quality& reference, int slots,
                    Report& report);

/// Scores the reference selection on one slot. `scratch` is reused
/// across calls.
Quality reference_quality(const lfsc::Slot& slot,
                          const lfsc::NetworkConfig& net,
                          std::vector<std::size_t>& scratch);

}  // namespace perfbench
