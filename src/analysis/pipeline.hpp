#ifndef PERFVAR_ANALYSIS_PIPELINE_HPP
#define PERFVAR_ANALYSIS_PIPELINE_HPP

/// \file pipeline.hpp
/// One-call entry point running the paper's three steps:
///   1. identify the time-dominant function (Section IV),
///   2. compute SOS-times of its invocations (Section V),
///   3. derive the variation report that drives the visualization
///      (Section VI).
///
/// This is the API that examples and downstream tools use; the individual
/// stages remain available for custom workflows (e.g. the granularity
/// drill-down of Figure 5 re-runs stages 2-3 with candidateIndex > 0).

#include <memory>
#include <string>

#include "analysis/dominant.hpp"
#include "analysis/sos.hpp"
#include "analysis/variation.hpp"
#include "profile/profile.hpp"
#include "util/thread_pool.hpp"

namespace perfvar::analysis {

/// Options of the full pipeline.
struct PipelineOptions {
  DominantOptions dominant{};
  /// Classifier used for the SOS subtraction (and, when
  /// dominant.excludeSynchronization is set, for candidacy filtering).
  SyncClassifier sync{};
  VariationOptions variation{};
  /// Which candidate of the dominant ranking to segment by: 0 = the
  /// time-dominant function, k > 0 = increasingly finer segmentation.
  std::size_t candidateIndex = 0;
  /// Worker threads of the rank-sharded stages when analyzeTrace() is not
  /// given a pool: 1 (the default) runs every stage inline on the calling
  /// thread; 0 = hardware concurrency; any other value spawns that many
  /// pool workers for the call. The result is bit-identical regardless of
  /// this value: every stage writes disjoint per-rank slots and reduces
  /// across ranks in rank order on the calling thread.
  std::size_t threads = 1;
  /// When non-null and the run has a pool, receives the per-worker
  /// scheduler counters of that pool (chunks run/stolen, idle wakeups) —
  /// the tail-rank idling visibility behind `trace_tool --verbose`.
  util::ThreadPoolStats* poolStats = nullptr;
};

/// Complete result of one pipeline run.
struct AnalysisResult {
  profile::FlatProfile profile;
  DominantSelection selection;
  trace::FunctionId segmentFunction = trace::kInvalidFunction;
  std::unique_ptr<SosResult> sos;  ///< heap: SosResult is not assignable
  VariationReport variation;
  /// Set only when the input trace carried quarantined ranks: the filtered
  /// sub-view (dropQuarantined) the analysis actually ran on. SosResult
  /// shares ownership of its backend, so the result is self-contained.
  trace::TraceView salvagedView;
};

/// Run the full pipeline; throws perfvar::Error if no function qualifies
/// as time-dominant (or candidateIndex is out of range).
///
/// Every per-rank stage runs on `pool` when given, else on a pool of
/// options.threads workers owned by the call, else (threads == 1) inline;
/// the output is bit-identical in all three cases. This is the one
/// analysis entry point.
///
/// Graceful degradation: a trace carrying quarantined ranks (a Salvage-
/// mode load) is analyzed as if those ranks were never present — the
/// pipeline runs on trace::dropQuarantined(trace) (kept alive in
/// AnalysisResult::salvagedView) and produces exactly the result a
/// manually filtered trace would. This throws (like any analysis of an
/// empty trace) when every rank is quarantined.
///
/// Lifetime: for a view borrowed from a Trace (the implicit conversion)
/// the trace must outlive the result; owned and out-of-core views share
/// ownership with the result. The rvalue overload is deleted so passing a
/// temporary trace is a compile error instead of a dangling pointer.
AnalysisResult analyzeTrace(const trace::TraceView& trace,
                            const PipelineOptions& options = {},
                            util::ThreadPool* pool = nullptr);
AnalysisResult analyzeTrace(trace::Trace&&, const PipelineOptions& = {},
                            util::ThreadPool* = nullptr) = delete;

namespace detail {

/// analyzeTrace() on the pre-optimization reference kernels
/// (std::function replay visitors, per-element leave-one-out rebuilds).
/// Bit-identical to analyzeTrace by contract; the differential oracle of
/// tests/throughput_test.cpp and perfbench's baseline.
AnalysisResult analyzeTraceReference(const trace::TraceView& trace,
                                     const PipelineOptions& options = {},
                                     util::ThreadPool* pool = nullptr);

}  // namespace detail

/// Render a complete text report (dominant selection + variation report;
/// plus a degraded-input section when `trace` carries quarantined ranks —
/// output for clean traces is byte-for-byte unchanged).
std::string formatAnalysis(const trace::TraceView& trace,
                           const AnalysisResult& result);

/// Same report from individual stage results (the engine renders cached
/// stages without assembling an AnalysisResult; both overloads share one
/// implementation, so their output is identical).
std::string formatAnalysis(const trace::TraceView& trace,
                           const DominantSelection& selection,
                           const SosResult& sos,
                           const VariationReport& variation);

/// The degraded-input section of formatAnalysis: one line per quarantined
/// rank (error class, events salvaged/dropped). Empty string for a clean
/// trace.
std::string formatDegradation(const trace::TraceView& trace);

}  // namespace perfvar::analysis

#endif  // PERFVAR_ANALYSIS_PIPELINE_HPP
