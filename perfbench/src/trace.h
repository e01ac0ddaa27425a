// In-memory span and count recorder for the benchmark's traced runs.
//
// A span records a layer name, its start and end on the steady clock,
// the span open around it when it began (its parent) and the slot it
// belongs to. Spans are kept in memory while the run is timed and are
// written out only afterwards (write_chrome_trace). A layer's self time
// is its spans' total duration minus the part covered by their child
// spans; the root "slot" layer's self time is the residual the layer
// spans do not account for.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Interns a layer name; the returned id is what begin() takes.
  int layer(std::string_view name);

  /// Opens a span of `layer` for `slot`, child of the innermost open
  /// span. Returns the span's index for end().
  std::size_t begin(int layer, std::int64_t slot);
  /// Closes span `index`, which must be the innermost open span.
  void end(std::size_t index);

  /// Records a span measured elsewhere (start/end taken around a socket
  /// exchange) under span `parent` (-1 for a root span). Returns its
  /// index, which later record() calls can name as their parent.
  std::size_t record(int layer, std::int64_t slot, Clock::time_point start,
                     Clock::time_point end, std::int64_t parent);

  /// Adds `value` to the named count (tasks, edges, lines, bytes, ...).
  void count(const std::string& name, double value) { counts_[name] += value; }
  double count_total(const std::string& name) const;

  struct LayerSummary {
    std::string name;
    std::size_t spans = 0;
    double total_ms = 0.0;  ///< summed span durations
    double self_ms = 0.0;   ///< total minus time covered by child spans
    std::vector<double> durations_ms;  ///< one per span, in record order
  };
  /// One summary per interned layer, in interning order.
  std::vector<LayerSummary> summarize() const;
  /// The summary of layer `name` in `summaries`; empty when absent.
  static LayerSummary find(const std::vector<LayerSummary>& summaries,
                           std::string_view name);

  /// Writes every span as a Chrome trace-event JSON document: one
  /// complete ("X") event per span, with its slot and parent index as
  /// arguments; nesting follows from the timestamps.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, int layer, std::int64_t slot)
        : tracer_(tracer), index_(tracer.begin(layer, slot)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

 private:
  struct Span {
    int layer = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at root
    std::int64_t slot = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> layers_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counts_;
};

}  // namespace perfbench
