#ifndef PERFVAR_ANALYSIS_SEGMENTS_HPP
#define PERFVAR_ANALYSIS_SEGMENTS_HPP

/// \file segments.hpp
/// Partitioning of process timelines into segments.
///
/// A segment is one *outermost* invocation of the segmentation function
/// (normally the time-dominant function) on one process; its duration is
/// the invocation's inclusive time (paper Section III, footnote 1).

#include <optional>
#include <vector>

#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"
#include "util/error.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::analysis {

/// One segment of one process timeline.
struct Segment {
  trace::ProcessId process = 0;
  std::uint32_t index = 0;  ///< 0-based order on this process
  trace::Timestamp enter = 0;
  trace::Timestamp leave = 0;

  trace::Timestamp inclusive() const { return leave - enter; }
  bool contains(trace::Timestamp t) const { return t >= enter && t < leave; }
};

/// Extract the segments of every process for segmentation function `f`.
/// Nested (recursive) invocations of `f` are not split into sub-segments;
/// only the outermost invocation forms a segment. Result is indexed by
/// process; processes that never invoke `f` get an empty vector. Ranks are
/// sharded over `pool` (null = inline); the result is identical either way.
std::vector<std::vector<Segment>> extractSegments(
    const trace::TraceView& trace, trace::FunctionId f,
    util::ThreadPool* pool = nullptr);

/// Summary of the segmentation shape.
struct SegmentationInfo {
  std::size_t totalSegments = 0;
  std::size_t minPerProcess = 0;
  std::size_t maxPerProcess = 0;
  bool uniform = false;  ///< all processes have the same segment count
};

SegmentationInfo describeSegmentation(
    const std::vector<std::vector<Segment>>& segments);

namespace detail {

/// Segment-boundary half of the per-rank SOS state machine: tracks the
/// nesting of the segmentation function on one rank and hands back each
/// outermost invocation as it closes. extractSegments drives it alone;
/// detail::SosKernel embeds it.
class SegmentBoundary {
public:
  explicit SegmentBoundary(trace::FunctionId segmentFunction)
      : function_(segmentFunction) {}

  /// Start the stream of rank `p`: no open invocation, segment index 0.
  void reset(trace::ProcessId p) {
    process_ = p;
    nesting_ = 0;
    start_ = 0;
    next_ = 0;
  }

  /// True while an invocation of the segmentation function is open.
  bool inside() const { return nesting_ > 0; }

  /// Enter of `fn` at `t`; true when it opens a new outermost segment.
  bool enter(trace::FunctionId fn, trace::Timestamp t) {
    if (fn != function_) {
      return false;
    }
    if (nesting_++ > 0) {
      return false;
    }
    start_ = t;
    return true;
  }

  /// Leave of `fn` at `t`; the finished segment when it closes the
  /// outermost invocation.
  std::optional<Segment> leave(trace::FunctionId fn, trace::Timestamp t) {
    if (fn != function_) {
      return std::nullopt;
    }
    PERFVAR_ASSERT(nesting_ > 0, "segment nesting underflow");
    if (--nesting_ > 0) {
      return std::nullopt;
    }
    return Segment{process_, next_++, start_, t};
  }

  /// Metric samples do not move segment boundaries.
  void metric(const trace::Event&) {}

private:
  trace::FunctionId function_;
  trace::ProcessId process_ = 0;
  std::size_t nesting_ = 0;     // nesting inside the segmentation function
  trace::Timestamp start_ = 0;  // enter of the outermost invocation
  std::uint32_t next_ = 0;      // index of the next segment on this rank
};

/// Replay one rank's events through a per-rank segment kernel
/// (SegmentBoundary or SosKernel) on the statically inlined walk, appending
/// everything its leaves hand back to `out`.
template <typename Kernel, typename Out>
void replayKernel(trace::EventSpan events, Kernel& kernel,
                  std::vector<Out>& out) {
  struct Visitor {
    Kernel& kernel;
    std::vector<Out>& out;
    void onEnter(trace::FunctionId fn, trace::Timestamp t, std::size_t) {
      kernel.enter(fn, t);
    }
    void onLeave(const trace::Frame& frame) {
      if (auto done = kernel.leave(frame.function, frame.leaveTime)) {
        out.push_back(std::move(*done));
      }
    }
    void onMessage(bool, const trace::Event&) {}
    void onMetric(const trace::Event& e, std::size_t) { kernel.metric(e); }
  };
  trace::replayEventsWith(events, Visitor{kernel, out});
}

}  // namespace detail

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_SEGMENTS_HPP
