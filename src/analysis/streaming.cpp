#include "analysis/streaming.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace perfvar::analysis {

std::string formatStreamingAlert(const trace::Trace& trace,
                                 const StreamingAlert& alert) {
  const trace::ProcessId p = alert.segment.segment.process;
  const std::string name = p < trace.processCount()
                               ? trace.processes[p].name
                               : std::string{};
  return "alert: process " + std::to_string(p) + " \"" + name +
         "\" segment " + std::to_string(alert.segment.segment.index) +
         " sos " + fmt::seconds(trace.toSeconds(alert.segment.sosTime)) +
         " z " + fmt::fixed(alert.robustZ, 2);
}

StreamingSos::StreamingSos(const trace::Trace& definitions,
                           trace::FunctionId segmentFunction,
                           const StreamingOptions& options)
    : defs_(&definitions), options_(options) {
  PERFVAR_REQUIRE(segmentFunction < definitions.functions.size(),
                  "segmentation function is not defined");
  functionTable_ = detail::sosFunctionTable(
      definitions.functions, options_.classifier.mask(definitions));
  kernels_.reserve(definitions.processCount());
  for (trace::ProcessId p = 0; p < definitions.processCount(); ++p) {
    kernels_.emplace_back(functionTable_, definitions.metrics,
                          segmentFunction);
    kernels_.back().reset(p);
  }
  stacks_.resize(definitions.processCount());
}

void StreamingSos::completeSegment(const SegmentAnalysis& segment) {
  ++completed_;
  const double sosSeconds = defs_->toSeconds(segment.sosTime);
  if (onAlert_ && sosHistory_.size() >= options_.warmupSegments) {
    const double z = stats::robustZ(sosSeconds, sosHistory_);
    if (z >= options_.alertThreshold) {
      onAlert_(StreamingAlert{segment, z});
    }
  }
  sosHistory_.push_back(sosSeconds);

  if (onSegment_) {
    onSegment_(segment);
  }
}

void StreamingSos::onEvent(trace::ProcessId p, const trace::Event& e) {
  PERFVAR_REQUIRE(p < kernels_.size(), "invalid process id");
  detail::SosKernel& kernel = kernels_[p];
  std::vector<trace::FunctionId>& stack = stacks_[p];
  switch (e.kind) {
    case trace::EventKind::Enter:
      PERFVAR_REQUIRE(e.ref < defs_->functions.size(), "undefined function");
      kernel.enter(e.ref, e.time);
      stack.push_back(e.ref);
      break;
    case trace::EventKind::Leave:
      PERFVAR_REQUIRE(!stack.empty() && stack.back() == e.ref,
                      "streaming: unbalanced enter/leave");
      stack.pop_back();
      if (const auto done = kernel.leave(e.ref, e.time)) {
        completeSegment(*done);
      }
      break;
    case trace::EventKind::Metric:
      PERFVAR_REQUIRE(e.ref < defs_->metrics.size(), "undefined metric");
      kernel.metric(e);
      break;
    case trace::EventKind::MpiSend:
    case trace::EventKind::MpiRecv:
      break;  // messages carry no SOS information beyond their frames
  }
}

void StreamingSos::finish() {
  for (trace::ProcessId p = 0; p < stacks_.size(); ++p) {
    PERFVAR_REQUIRE(stacks_[p].empty(),
                    "streaming: process " + std::to_string(p) +
                        " has unclosed frames at finish");
  }
}

void StreamingSos::feed(const trace::Trace& tr) {
  // Interleave the per-process streams in global time order (stable by
  // process id), as a live measurement system would deliver them. A
  // min-heap on (time, process) delivers the exact pop order of the
  // former linear scan — the minimum over all cursors with the process id
  // as tie-break — at O(log P) instead of O(P) per event.
  struct Cursor {
    trace::Timestamp time;
    trace::ProcessId process;
    std::size_t index;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.time > b.time || (a.time == b.time && a.process > b.process);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  for (trace::ProcessId p = 0; p < tr.processes.size(); ++p) {
    if (!tr.processes[p].events.empty()) {
      heap.push(Cursor{tr.processes[p].events.front().time, p, 0});
    }
  }
  while (!heap.empty()) {
    Cursor cursor = heap.top();
    heap.pop();
    const auto& events = tr.processes[cursor.process].events;
    onEvent(cursor.process, events[cursor.index]);
    if (++cursor.index < events.size()) {
      cursor.time = events[cursor.index].time;
      heap.push(cursor);
    }
  }
}

void StreamingSos::replay(const trace::Trace& tr, StreamingSos& analyzer) {
  analyzer.feed(tr);
  analyzer.finish();
}

}  // namespace perfvar::analysis
