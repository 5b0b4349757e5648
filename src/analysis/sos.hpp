#ifndef PERFVAR_ANALYSIS_SOS_HPP
#define PERFVAR_ANALYSIS_SOS_HPP

/// \file sos.hpp
/// Synchronization-oblivious segment time (paper Section V).
///
/// For every segment (invocation of the segmentation function) the
/// analyzer computes
///
///     SOS-time = segment duration - sum of the inclusive times of the
///                maximal synchronization invocations inside the segment.
///
/// Subtracting wait/communication time removes the equalizing effect of
/// barriers: a rank that computes fast but waits long and a rank that
/// computes slowly have the same segment duration but very different
/// SOS-times, exposing the true source of a runtime imbalance.
///
/// Per segment, the analyzer additionally accumulates a per-paradigm time
/// breakdown (maximal frames per paradigm) and the delta of every
/// accumulated metric — both used by the case-study reproductions.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/segments.hpp"
#include "analysis/sync.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace perfvar::util {
class ThreadPool;
}

namespace perfvar::analysis {

inline constexpr std::size_t kParadigmCount = 6;

/// Analysis result of one segment.
struct SegmentAnalysis {
  Segment segment;
  trace::Timestamp syncTime = 0;  ///< subtracted synchronization time
  trace::Timestamp sosTime = 0;   ///< segment duration - syncTime
  /// Time covered by maximal frames of each paradigm inside the segment,
  /// indexed by static_cast<size_t>(Paradigm).
  std::array<trace::Timestamp, kParadigmCount> paradigmTime{};
  /// Per-metric change over the segment: sample-delta sum for accumulated
  /// metrics, last observed value for absolute metrics. Indexed by MetricId.
  std::vector<double> metricDelta;
};

/// SOS analysis result for one segmentation function over a whole trace.
class SosResult {
public:
  SosResult(const trace::TraceView& trace, trace::FunctionId segmentFunction,
            std::vector<std::vector<SegmentAnalysis>> perProcess);

  trace::FunctionId segmentFunction() const { return segmentFunction_; }
  std::size_t processCount() const { return perProcess_.size(); }

  const std::vector<SegmentAnalysis>& process(trace::ProcessId p) const;
  const std::vector<std::vector<SegmentAnalysis>>& all() const {
    return perProcess_;
  }

  /// Maximum / minimum number of segments over all processes.
  std::size_t maxSegmentsPerProcess() const;
  std::size_t minSegmentsPerProcess() const;

  /// SOS-time in seconds of segment `i` on process `p`.
  double sosSeconds(trace::ProcessId p, std::size_t i) const;

  /// Segment duration in seconds of segment `i` on process `p`.
  double durationSeconds(trace::ProcessId p, std::size_t i) const;

  /// Dense [process][iteration] matrix of SOS-times in seconds; missing
  /// segments (ragged processes) are filled with NaN.
  std::vector<std::vector<double>> sosMatrixSeconds() const;

  /// Dense matrix of segment durations in seconds (NaN for missing).
  std::vector<std::vector<double>> durationMatrixSeconds() const;

  /// Dense matrix of a metric's per-segment delta (NaN for missing).
  std::vector<std::vector<double>> metricMatrix(trace::MetricId m) const;

  /// All SOS values in seconds, flattened (no NaNs).
  std::vector<double> allSosSeconds() const;

  /// Fraction of the summed segment durations spent in synchronization,
  /// per iteration index (averaged over the processes that have that
  /// iteration). This regenerates the paper's "MPI share grows" series.
  std::vector<double> syncFractionPerIteration() const;

  /// Mean segment duration in seconds per iteration index.
  std::vector<double> meanDurationPerIteration() const;

  /// Mean SOS-time in seconds per iteration index.
  std::vector<double> meanSosPerIteration() const;

  /// Per-process totals in seconds: sum of SOS-times over all segments.
  std::vector<double> totalSosPerProcess() const;

  /// Per-process totals of a metric's deltas over all segments.
  std::vector<double> totalMetricPerProcess(trace::MetricId m) const;

  /// The analyzed view. Copies of the view share the backend, so the
  /// result stays valid as long as the underlying storage does (for
  /// borrowed views: as long as the viewed Trace lives).
  const trace::TraceView& trace() const { return view_; }

private:
  trace::TraceView view_;
  trace::FunctionId segmentFunction_;
  std::vector<std::vector<SegmentAnalysis>> perProcess_;
};

/// Run the SOS analysis: segment every process by `segmentFunction` and
/// compute SOS-times with the given synchronization classifier. Ranks are
/// sharded over `pool` (null = inline); the classifier mask is computed
/// once on the calling thread and every rank writes only its own row, so
/// the result is identical for every pool.
///
/// Lifetime: for a borrowed view (the implicit conversion from Trace&)
/// the trace must outlive the SosResult. Passing a temporary Trace is a
/// compile error; out-of-core and owned views share ownership.
SosResult analyzeSos(const trace::TraceView& trace,
                     trace::FunctionId segmentFunction,
                     const SyncClassifier& classifier = SyncClassifier{},
                     util::ThreadPool* pool = nullptr);
SosResult analyzeSos(trace::Trace&&, trace::FunctionId,
                     const SyncClassifier& = SyncClassifier{},
                     util::ThreadPool* = nullptr) = delete;

/// Baseline from the paper's Section V discussion: plain segment durations
/// (no synchronization subtraction). Equivalent to analyzeSos with
/// SyncClassifier::none().
SosResult analyzeSegmentDurations(const trace::TraceView& trace,
                                  trace::FunctionId segmentFunction);
SosResult analyzeSegmentDurations(trace::Trace&&,
                                  trace::FunctionId) = delete;

/// Alternative segmentation for codes without a usable dominant function:
/// fixed time windows of `windowTicks` spanning the whole trace. Every
/// process gets the same windows; a window's "duration" is its span, its
/// syncTime the time covered by maximal synchronization frames inside it.
/// Windows do not align with iterations, so imbalances smear across
/// window boundaries - the ablation benches quantify how much sharper the
/// dominant-function segmentation is. The result's segmentFunction() is
/// trace::kInvalidFunction.
SosResult analyzeSosWindows(const trace::TraceView& trace,
                            trace::Timestamp windowTicks,
                            const SyncClassifier& classifier =
                                SyncClassifier{});
SosResult analyzeSosWindows(trace::Trace&&, trace::Timestamp,
                            const SyncClassifier& = SyncClassifier{}) = delete;

namespace detail {

/// Set in a sosFunctionTable entry when the classifier counts the function
/// as synchronization; the low bits hold its paradigm index.
inline constexpr std::uint8_t kSosSyncBit = 0x80;
static_assert(kParadigmCount <= kSosSyncBit,
              "paradigm indices must stay below the sync bit");

/// Per-function facts SosKernel reads on every event inside a segment,
/// built once per run: the paradigm index, plus kSosSyncBit when
/// `syncMask` marks the function.
std::vector<std::uint8_t> sosFunctionTable(
    const trace::FunctionRegistry& functions,
    const std::vector<bool>& syncMask);

/// The per-rank SOS state machine, the one place SOS-time is accumulated:
/// batch analyzeSos drives it through the inlined replay walk, StreamingSos
/// feeds it event by event. It tracks the outermost invocation of the
/// segmentation function (SegmentBoundary), the maximal synchronization and
/// per-paradigm frames inside it, and the metric deltas. The caller
/// delivers a balanced stream (replay and StreamingSos both reject
/// unbalanced ones). The function table and the metric registry are
/// borrowed and must outlive the kernel.
class SosKernel {
public:
  SosKernel(const std::vector<std::uint8_t>& functionTable,
            const trace::MetricRegistry& metrics,
            trace::FunctionId segmentFunction);

  /// Start the stream of rank `p`: no open frames, segment index 0, no
  /// metric sample seen. Keeps the buffers' allocations.
  void reset(trace::ProcessId p);

  void enter(trace::FunctionId fn, trace::Timestamp t);
  /// The finished segment when this leave closes an outermost invocation.
  std::optional<SegmentAnalysis> leave(trace::FunctionId fn,
                                       trace::Timestamp t);
  void metric(const trace::Event& e);

private:
  const std::vector<std::uint8_t>* functions_;
  const trace::MetricRegistry* metrics_;
  SegmentBoundary segment_;
  SegmentAnalysis current_;  // accumulators of the open segment
  std::size_t syncNesting_ = 0;
  trace::Timestamp syncStart_ = 0;
  std::array<std::size_t, kParadigmCount> paradigmNesting_{};
  std::array<trace::Timestamp, kParadigmCount> paradigmStart_{};
  // Last observed value of every metric (for accumulated deltas).
  std::vector<double> lastMetric_;
  std::vector<bool> seenMetric_;
};

// The per-event methods are defined here, not in sos.cpp, so that both
// drivers inline them into their event loops: out of line they cost the
// batch replay walk a call per event.
inline void SosKernel::enter(trace::FunctionId fn, trace::Timestamp t) {
  if (segment_.enter(fn, t)) {
    current_ = SegmentAnalysis{};
    current_.metricDelta.assign(metrics_->size(), 0.0);
  }
  if (segment_.inside()) {
    PERFVAR_REQUIRE(fn < functions_->size(), "invalid function id");
    const std::uint8_t info = (*functions_)[fn];
    const auto par = static_cast<std::size_t>(info & ~kSosSyncBit);
    if (paradigmNesting_[par]++ == 0) {
      paradigmStart_[par] = t;
    }
    if ((info & kSosSyncBit) != 0 && syncNesting_++ == 0) {
      syncStart_ = t;
    }
  }
}

inline std::optional<SegmentAnalysis> SosKernel::leave(trace::FunctionId fn,
                                                       trace::Timestamp t) {
  if (segment_.inside()) {
    PERFVAR_REQUIRE(fn < functions_->size(), "invalid function id");
    const std::uint8_t info = (*functions_)[fn];
    const auto par = static_cast<std::size_t>(info & ~kSosSyncBit);
    PERFVAR_ASSERT(paradigmNesting_[par] > 0, "paradigm nesting underflow");
    if (--paradigmNesting_[par] == 0) {
      current_.paradigmTime[par] += t - paradigmStart_[par];
    }
    if ((info & kSosSyncBit) != 0) {
      PERFVAR_ASSERT(syncNesting_ > 0, "sync nesting underflow");
      if (--syncNesting_ == 0) {
        current_.syncTime += t - syncStart_;
      }
    }
  }
  const std::optional<Segment> closed = segment_.leave(fn, t);
  if (!closed) {
    return std::nullopt;
  }
  SegmentAnalysis done = std::move(current_);
  current_ = SegmentAnalysis{};
  done.segment = *closed;
  const trace::Timestamp duration = done.segment.inclusive();
  PERFVAR_ASSERT(done.syncTime <= duration,
                 "sync time exceeds segment duration");
  done.sosTime = duration - done.syncTime;
  return done;
}

inline void SosKernel::metric(const trace::Event& e) {
  const trace::MetricId m = e.ref;
  PERFVAR_REQUIRE(m < metrics_->size(), "invalid metric id");
  const bool accumulated =
      metrics_->all()[m].mode == trace::MetricMode::Accumulated;
  if (segment_.inside() && !current_.metricDelta.empty()) {
    if (accumulated) {
      const double base = seenMetric_[m] ? lastMetric_[m] : 0.0;
      current_.metricDelta[m] += e.value - base;
    } else {
      current_.metricDelta[m] = e.value;
    }
  }
  lastMetric_[m] = e.value;
  seenMetric_[m] = true;
}

/// SOS analysis of a single process (row `p` of analyzeSos): resets
/// `kernel` to rank `p` and replays the rank through it. A worker passes
/// the same kernel for every rank of its chunk, so the metric-state
/// buffers are allocated once per worker instead of once per rank.
std::vector<SegmentAnalysis> analyzeSosProcess(const trace::TraceView& trace,
                                               trace::ProcessId p,
                                               SosKernel& kernel);

/// The original std::function-visitor implementation, retained as the
/// differential oracle for SosKernel (run by detail::analyzeTraceReference)
/// and deliberately independent of it. Must stay bit-identical to
/// analyzeSosProcess; tests/throughput_test.cpp enforces it.
std::vector<SegmentAnalysis> analyzeSosProcessReference(
    const trace::TraceView& trace, trace::ProcessId p,
    trace::FunctionId segmentFunction, const std::vector<bool>& syncMask);

}  // namespace detail

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_SOS_HPP
