#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::layer(std::string_view name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return static_cast<int>(i);
  }
  layers_.emplace_back(name);
  return static_cast<int>(layers_.size() - 1);
}

std::size_t Tracer::begin(int layer, std::int64_t slot) {
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.slot = slot;
  span.start_ns = since_epoch(Clock::now());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  spans_[index].end_ns = since_epoch(Clock::now());
  open_.pop_back();
}

std::size_t Tracer::record(int layer, std::int64_t slot,
                           Clock::time_point start, Clock::time_point end,
                           std::int64_t parent) {
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.slot = slot;
  span.start_ns = since_epoch(start);
  span.end_ns = since_epoch(end);
  spans_.push_back(span);
  return spans_.size() - 1;
}

double Tracer::count_total(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::vector<Tracer::LayerSummary> Tracer::summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::vector<LayerSummary> out(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) out[i].name = layers_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double dur_ns = static_cast<double>(span.end_ns - span.start_ns);
    LayerSummary& s = out[static_cast<std::size_t>(span.layer)];
    ++s.spans;
    s.total_ms += dur_ns * 1e-6;
    s.self_ms += (dur_ns - child_ns[i]) * 1e-6;
    s.durations_ms.push_back(dur_ns * 1e-6);
  }
  return out;
}

Tracer::LayerSummary Tracer::find(const std::vector<LayerSummary>& summaries,
                                  std::string_view name) {
  for (const LayerSummary& s : summaries) {
    if (s.name == name) return s;
  }
  return {};
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"slot\": %lld, "
                 "\"parent\": %lld}}\n",
                 i == 0 ? "" : ",", layers_[static_cast<std::size_t>(s.layer)].c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.slot),
                 static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
