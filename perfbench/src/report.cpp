#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void Report::set(std::string_view name, double value) {
  for (auto& [key, v] : values_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(std::string(name), value);
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

std::string Report::json(std::span<const MetricSpec> catalogue,
                         bool zero_unset) const {
  for (const auto& [key, value] : values_) {
    bool known = false;
    for (const MetricSpec& spec : catalogue) known |= spec.name == key;
    if (!known) {
      throw std::logic_error("metric '" + key + "' is not in the catalogue");
    }
    if (!std::isfinite(value)) {
      throw std::logic_error("metric '" + key + "' is not finite");
    }
  }
  const bool ok = correct() && failed == 0;
  std::string out = "{\"correct\": ";
  out += ok ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    const double* value = nullptr;
    for (const auto& [key, v] : values_) {
      if (key == spec.name) value = &v;
    }
    if (value == nullptr && !zero_unset) {
      throw std::logic_error("metric '" + std::string(spec.name) +
                             "' was not measured");
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value != nullptr ? *value : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + std::string(spec.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
