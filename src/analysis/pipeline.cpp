#include "analysis/pipeline.hpp"

#include <sstream>

#include "trace/filter.hpp"
#include "util/error.hpp"

namespace perfvar::analysis {

namespace {

/// The one pipeline body; `reference` swaps in the oracle kernels of
/// detail::analyzeTraceReference.
AnalysisResult runPipeline(const trace::TraceView& tr,
                           const PipelineOptions& options,
                           util::ThreadPool* external, bool reference) {
  if (!tr.quarantined().empty()) {
    // Degraded input (a Salvage-mode load): analyze the healthy ranks as
    // if the quarantined ones were never recorded. The sub-view shares
    // ownership of the filtered storage, so it rides along in the result.
    trace::TraceView view = tr.dropQuarantined();
    AnalysisResult result = runPipeline(view, options, external, reference);
    result.salvagedView = view;
    return result;
  }
  const util::PoolScope scope(external, options.threads);
  util::ThreadPool* pool = scope.get();
  const std::size_t ranks = tr.processCount();

  AnalysisResult result;
  if (reference) {
    std::vector<std::vector<profile::FunctionStats>> rows(ranks);
    util::parallelChunks(pool, ranks, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) {
        rows[p] = profile::FlatProfile::buildProcessReference(
            tr, static_cast<trace::ProcessId>(p));
      }
    });
    result.profile = profile::FlatProfile::fromPerProcess(tr, std::move(rows));
  } else {
    result.profile = profile::FlatProfile::build(tr, pool);
  }
  result.selection = selectDominantFunction(tr, result.profile,
                                            options.dominant);
  PERFVAR_REQUIRE(result.selection.hasDominant(),
                  "no function qualifies as time-dominant; lower the "
                  "invocation multiplier or check the instrumentation");
  PERFVAR_REQUIRE(options.candidateIndex < result.selection.candidates.size(),
                  "candidateIndex exceeds the number of dominant candidates");
  result.segmentFunction =
      result.selection.candidates[options.candidateIndex].function;
  if (reference) {
    const std::vector<bool> syncMask = options.sync.mask(tr);
    std::vector<std::vector<SegmentAnalysis>> rows(ranks);
    util::parallelChunks(pool, ranks, [&](std::size_t b, std::size_t e) {
      for (std::size_t p = b; p < e; ++p) {
        rows[p] = detail::analyzeSosProcessReference(
            tr, static_cast<trace::ProcessId>(p), result.segmentFunction,
            syncMask);
      }
    });
    result.sos = std::make_unique<SosResult>(tr, result.segmentFunction,
                                             std::move(rows));
    result.variation = detail::analyzeVariationReference(
        *result.sos, options.variation, pool);
  } else {
    result.sos = std::make_unique<SosResult>(
        analyzeSos(tr, result.segmentFunction, options.sync, pool));
    result.variation = analyzeVariation(*result.sos, options.variation, pool);
  }
  if (options.poolStats != nullptr && pool != nullptr) {
    *options.poolStats = pool->stats();
  }
  return result;
}

}  // namespace

AnalysisResult analyzeTrace(const trace::TraceView& tr,
                            const PipelineOptions& options,
                            util::ThreadPool* pool) {
  return runPipeline(tr, options, pool, false);
}

namespace detail {

AnalysisResult analyzeTraceReference(const trace::TraceView& tr,
                                     const PipelineOptions& options,
                                     util::ThreadPool* pool) {
  return runPipeline(tr, options, pool, true);
}

}  // namespace detail

std::string formatDegradation(const trace::TraceView& tr) {
  if (tr.quarantined().empty()) {
    return {};
  }
  std::ostringstream os;
  os << "=== degraded input ===\n"
     << tr.quarantined().size() << '/' << tr.processCount()
     << " ranks quarantined; they are excluded from the analysis\n";
  for (const trace::QuarantinedRank& q : tr.quarantined()) {
    os << "  rank " << q.process << " \"" << q.name
       << "\": " << errorCodeName(q.error) << " (salvaged "
       << q.eventsSalvaged << " events, dropped " << q.eventsDropped
       << ")\n";
  }
  return os.str();
}

std::string formatAnalysis(const trace::TraceView& tr,
                           const DominantSelection& selection,
                           const SosResult& sos,
                           const VariationReport& variation) {
  std::ostringstream os;
  os << "=== dominant-function selection ===\n"
     << formatSelection(tr, selection) << '\n'
     << "=== runtime-variation analysis ===\n"
     << formatVariationReport(sos, variation);
  if (!tr.quarantined().empty()) {
    os << '\n' << formatDegradation(tr);
  }
  return os.str();
}

std::string formatAnalysis(const trace::TraceView& tr,
                           const AnalysisResult& result) {
  return formatAnalysis(tr, result.selection, *result.sos, result.variation);
}

}  // namespace perfvar::analysis
