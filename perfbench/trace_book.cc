#include "trace_book.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace mdv::perfbench {

SpanBook FoldSpans(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  std::unordered_map<uint64_t, const std::string*> roots;  // By trace id.
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != 0) children[span.parent_id].push_back(&span);
    if (span.span_id == span.trace_id) roots[span.trace_id] = &span.name;
  }
  SpanBook totals;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const obs::SpanRecord& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    covered.clear();
    auto it = children.find(span.span_id);
    if (it != children.end()) {
      for (const obs::SpanRecord* child : it->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    auto root = roots.find(span.trace_id);
    SpanTotals& t =
        totals[(root == roots.end() ? std::string("?") : *root->second) + "|" +
               span.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - union_ns;
  }
  return totals;
}

TraceBook::TraceBook(size_t capacity) {
  obs::DefaultTracer().SetCapacity(capacity);
  obs::DefaultTracer().Clear();
}

void TraceBook::Drain() {
  obs::Tracer& tracer = obs::DefaultTracer();
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  const int64_t dropped = tracer.dropped();
  tracer.Clear();
  dropped_ += dropped;
  aggregator_.Ingest(spans, dropped);
  for (const auto& [name, t] : FoldSpans(spans)) {
    SpanTotals& into = totals_[name];
    into.count += t.count;
    into.total_ns += t.total_ns;
    into.self_ns += t.self_ns;
  }
}

SpanTotals TraceBook::Find(const std::string& name,
                           const std::vector<std::string>& roots) const {
  SpanTotals sum;
  for (const std::string& root : roots) {
    auto it = totals_.find(root + "|" + name);
    if (it == totals_.end()) continue;
    sum.count += it->second.count;
    sum.total_ns += it->second.total_ns;
    sum.self_ns += it->second.self_ns;
  }
  return sum;
}

std::string TraceBook::TotalsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, t] : totals_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"count\": " + std::to_string(t.count) +
           ", \"total_us\": " + std::to_string(t.total_ns / 1000) +
           ", \"self_us\": " + std::to_string(t.self_ns / 1000) + "}";
  }
  return out + "}";
}

MetricsDelta::MetricsDelta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after)
    : before_(before), after_(after) {}

int64_t MetricsDelta::Counter(const std::string& name) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) return 0;
  auto b = before_.counters.find(name);
  return a->second - (b == before_.counters.end() ? 0 : b->second);
}

int64_t MetricsDelta::CounterSum(const std::string& prefix,
                                 const std::string& suffix) const {
  int64_t sum = 0;
  for (const auto& [name, value] : after_.counters) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    sum += Counter(name);
  }
  return sum;
}

double MetricsDelta::HistogramPercentile(const std::string& name,
                                         double p) const {
  auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return 0;
  obs::HistogramSnapshot delta = a->second;
  auto b = before_.histograms.find(name);
  if (b != before_.histograms.end()) {
    for (size_t i = 0; i < delta.bucket_counts.size() &&
                       i < b->second.bucket_counts.size();
         ++i) {
      delta.bucket_counts[i] -= b->second.bucket_counts[i];
    }
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
  }
  return delta.count > 0 ? delta.Percentile(p) : 0;
}

}  // namespace mdv::perfbench
