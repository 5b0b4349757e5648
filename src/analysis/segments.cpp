#include "analysis/segments.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

std::vector<std::vector<Segment>> extractSegments(
    const trace::TraceView& tr, trace::FunctionId f, util::ThreadPool* pool) {
  PERFVAR_REQUIRE(f < tr.functions().size(),
                  "segmentation function is not defined in this trace");
  std::vector<std::vector<Segment>> result(tr.processCount());
  util::parallelChunks(
      pool, tr.processCount(), [&](std::size_t begin, std::size_t end) {
        detail::SegmentBoundary boundary(f);
        for (std::size_t p = begin; p < end; ++p) {
          const auto rank = static_cast<trace::ProcessId>(p);
          boundary.reset(rank);
          const trace::RankPin pin = tr.rank(rank);
          detail::replayKernel(pin.events(), boundary, result[p]);
        }
      });
  return result;
}

SegmentationInfo describeSegmentation(
    const std::vector<std::vector<Segment>>& segments) {
  SegmentationInfo info;
  if (segments.empty()) {
    return info;
  }
  info.minPerProcess = segments.front().size();
  info.maxPerProcess = segments.front().size();
  for (const auto& per : segments) {
    info.totalSegments += per.size();
    info.minPerProcess = std::min(info.minPerProcess, per.size());
    info.maxPerProcess = std::max(info.maxPerProcess, per.size());
  }
  info.uniform = info.minPerProcess == info.maxPerProcess;
  return info;
}

}  // namespace perfvar::analysis
