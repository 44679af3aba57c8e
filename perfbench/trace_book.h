// Per-layer accounting of the benchmark's traced run: drains the
// process tracer between operation blocks, folds every span into
// per-name totals and self-times, and feeds the obs::TraceAggregator
// stage summary.
#ifndef MDV_PERFBENCH_TRACE_BOOK_H_
#define MDV_PERFBENCH_TRACE_BOOK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_aggregate.h"

namespace mdv::perfbench {

/// Totals of one span name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;  ///< Summed durations.
  int64_t self_ns = 0;   ///< Summed durations minus time covered by children.
};

/// Totals keyed by "<root>|<name>": `root` is the name of the span that
/// started the trace (the benchmark's op span for work an operation
/// caused; "?" when the root is not in the batch).
using SpanBook = std::map<std::string, SpanTotals>;

/// Self-time of each span: its duration minus the union of its children's
/// intervals (clipped to it). Children may run on other threads and
/// overlap one another; the union counts overlapping time once.
SpanBook FoldSpans(const std::vector<obs::SpanRecord>& spans);

class TraceBook {
 public:
  /// `capacity` sizes the tracer's ring so one block never overflows it.
  explicit TraceBook(size_t capacity);

  /// Moves every retained span into the totals and clears the tracer.
  void Drain();

  const SpanBook& totals() const { return totals_; }
  /// Totals of span `name` over the traces rooted at any of `roots`.
  SpanTotals Find(const std::string& name,
                  const std::vector<std::string>& roots) const;
  const obs::TraceAggregator& aggregator() const { return aggregator_; }
  int64_t dropped_spans() const { return dropped_; }

  /// Per-name totals as a JSON object.
  std::string TotalsJson() const;

 private:
  obs::MetricsRegistry slo_registry_;
  obs::TraceAggregator aggregator_{&slo_registry_};
  SpanBook totals_;
  int64_t dropped_ = 0;
};

/// Registry values between two snapshots.
class MetricsDelta {
 public:
  MetricsDelta(const obs::MetricsSnapshot& before,
               const obs::MetricsSnapshot& after);

  int64_t Counter(const std::string& name) const;
  /// Sum of the counters whose names start with `prefix` and end with
  /// `suffix`.
  int64_t CounterSum(const std::string& prefix,
                     const std::string& suffix) const;
  /// Percentile of the samples a histogram took between the snapshots.
  double HistogramPercentile(const std::string& name, double p) const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

}  // namespace mdv::perfbench

#endif  // MDV_PERFBENCH_TRACE_BOOK_H_
