/// Differential matrix of the throughput engineering pass: every thread
/// count and both kernel generations (tuned analyzeTrace vs
/// detail::analyzeTraceReference) must produce byte-identical
/// analysis output on skewed, uniform and empty-rank traces. Plus direct
/// coverage of the work-stealing chunk scheduler itself: full coverage,
/// deterministic chunk boundaries, exception propagation and the
/// ThreadPoolStats counters. Runs under the TSan CI job (label:
/// parallel).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/sos.hpp"
#include "apps/scale_synthetic.hpp"
#include "profile/profile.hpp"
#include "util/thread_pool.hpp"

namespace perfvar {
namespace {

// ---- fixtures --------------------------------------------------------------

apps::ScaleConfig smallConfig() {
  apps::ScaleConfig cfg;
  cfg.ranks = 48;
  cfg.iterations = 4;
  return cfg;
}

/// Uniform event density across ranks.
const trace::Trace& uniformTrace() {
  static const trace::Trace tr = apps::buildScaleTrace(smallConfig());
  return tr;
}

/// 10% of ranks carry 32 extra nested compute pairs per iteration — the
/// shape work stealing exists for.
const trace::Trace& skewedTrace() {
  static const trace::Trace tr = [] {
    apps::ScaleConfig cfg = smallConfig();
    cfg.skewTailPerMille = 100;
    cfg.skewEventsFactor = 32;
    return apps::buildScaleTrace(cfg);
  }();
  return tr;
}

/// Uniform trace with one rank's event stream emptied: a degenerate
/// shard the scheduler and every per-rank kernel must pass through.
const trace::Trace& emptyRankTrace() {
  static const trace::Trace tr = [] {
    trace::Trace t = apps::buildScaleTrace(smallConfig());
    t.processes[t.processes.size() / 2].events.clear();
    return t;
  }();
  return tr;
}

std::vector<const trace::Trace*> traceMatrix() {
  return {&uniformTrace(), &skewedTrace(), &emptyRankTrace()};
}

// ---- the differential matrix ----------------------------------------------

TEST(ThroughputMatrix, AllSchedulesMatchSerialReferenceByteForByte) {
  for (const trace::Trace* tr : traceMatrix()) {
    // Oracle: serial run of the pre-optimization reference kernels.
    const analysis::AnalysisResult oracle =
        analysis::detail::analyzeTraceReference(*tr);
    const std::string oracleText = analysis::formatAnalysis(*tr, oracle);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      for (const bool reference : {false, true}) {
        analysis::PipelineOptions opts;
        opts.threads = threads;
        const analysis::AnalysisResult result =
            reference ? analysis::detail::analyzeTraceReference(*tr, opts)
                      : analysis::analyzeTrace(*tr, opts);
        EXPECT_EQ(analysis::formatAnalysis(*tr, result), oracleText)
            << "threads=" << threads << " reference=" << reference;

        // The formatted report rounds; the numeric fields must match
        // bit for bit as well.
        ASSERT_EQ(result.variation.processes.size(),
                  oracle.variation.processes.size());
        for (std::size_t p = 0; p < oracle.variation.processes.size(); ++p) {
          EXPECT_EQ(result.variation.processes[p].totalZ,
                    oracle.variation.processes[p].totalZ);
          EXPECT_EQ(result.variation.processes[p].totalSos,
                    oracle.variation.processes[p].totalSos);
        }
        ASSERT_EQ(result.variation.hotspots.size(),
                  oracle.variation.hotspots.size());
        for (std::size_t h = 0; h < oracle.variation.hotspots.size(); ++h) {
          EXPECT_EQ(result.variation.hotspots[h].globalZ,
                    oracle.variation.hotspots[h].globalZ);
          EXPECT_EQ(result.variation.hotspots[h].iterationZ,
                    oracle.variation.hotspots[h].iterationZ);
          EXPECT_EQ(result.variation.hotspots[h].process,
                    oracle.variation.hotspots[h].process);
          EXPECT_EQ(result.variation.hotspots[h].iteration,
                    oracle.variation.hotspots[h].iteration);
        }
      }
    }
  }
}

// ---- per-rank kernel oracles ----------------------------------------------

TEST(ThroughputKernels, ProfileVisitorMatchesReference) {
  for (const trace::Trace* tr : traceMatrix()) {
    const trace::TraceView view(*tr);
    for (std::size_t p = 0; p < view.processCount(); ++p) {
      const auto rank = static_cast<trace::ProcessId>(p);
      const auto fast = profile::FlatProfile::buildProcess(view, rank);
      const auto ref = profile::FlatProfile::buildProcessReference(view, rank);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t f = 0; f < ref.size(); ++f) {
        EXPECT_EQ(fast[f].invocations, ref[f].invocations);
        EXPECT_EQ(fast[f].inclusive, ref[f].inclusive);
        EXPECT_EQ(fast[f].exclusive, ref[f].exclusive);
        EXPECT_EQ(fast[f].minInclusive, ref[f].minInclusive);
        EXPECT_EQ(fast[f].maxInclusive, ref[f].maxInclusive);
      }
    }
  }
}

TEST(ThroughputKernels, SosVisitorMatchesReference) {
  for (const trace::Trace* tr : traceMatrix()) {
    const trace::TraceView view(*tr);
    const auto selection = analysis::selectDominantFunction(view);
    ASSERT_TRUE(selection.hasDominant());
    const trace::FunctionId fn = selection.dominant().function;
    const std::vector<bool> mask = analysis::SyncClassifier{}.mask(view);
    analysis::detail::SosKernel kernel(view.functions(), view.metrics(), fn,
                                       mask);
    for (std::size_t p = 0; p < view.processCount(); ++p) {
      const auto rank = static_cast<trace::ProcessId>(p);
      const auto fast = analysis::detail::analyzeSosProcess(view, rank, kernel);
      const auto ref =
          analysis::detail::analyzeSosProcessReference(view, rank, fn, mask);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t s = 0; s < ref.size(); ++s) {
        EXPECT_EQ(fast[s].segment.enter, ref[s].segment.enter);
        EXPECT_EQ(fast[s].segment.leave, ref[s].segment.leave);
        EXPECT_EQ(fast[s].segment.index, ref[s].segment.index);
        EXPECT_EQ(fast[s].syncTime, ref[s].syncTime);
        EXPECT_EQ(fast[s].sosTime, ref[s].sosTime);
        EXPECT_EQ(fast[s].paradigmTime, ref[s].paradigmTime);
        EXPECT_EQ(fast[s].metricDelta, ref[s].metricDelta);
      }
    }
  }
}

TEST(ThroughputKernels, ExtractSegmentsMatchesSosSegments) {
  for (const trace::Trace* tr : traceMatrix()) {
    const trace::TraceView view(*tr);
    const auto selection = analysis::selectDominantFunction(view);
    ASSERT_TRUE(selection.hasDominant());
    const trace::FunctionId fn = selection.dominant().function;
    const auto segments = analysis::extractSegments(view, fn);
    const analysis::SosResult sos = analysis::analyzeSos(view, fn);
    ASSERT_EQ(segments.size(), sos.processCount());
    for (trace::ProcessId p = 0; p < sos.processCount(); ++p) {
      const auto& analyzed = sos.process(p);
      ASSERT_EQ(segments[p].size(), analyzed.size()) << "rank " << p;
      for (std::size_t s = 0; s < analyzed.size(); ++s) {
        EXPECT_EQ(segments[p][s].process, analyzed[s].segment.process);
        EXPECT_EQ(segments[p][s].index, analyzed[s].segment.index);
        EXPECT_EQ(segments[p][s].enter, analyzed[s].segment.enter);
        EXPECT_EQ(segments[p][s].leave, analyzed[s].segment.leave);
      }
    }
  }
}

// ---- the chunk scheduler itself -------------------------------------------

TEST(ChunkScheduler, EveryIndexCoveredExactlyOnce) {
  util::ThreadPool pool(4);
  for (const bool stealing : {false, true}) {
    for (const std::size_t batch : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}}) {
      const std::size_t n = 1000;
      const std::size_t grain = 7;
      std::vector<std::atomic<int>> hits(n);
      util::ChunkOptions opts;
      opts.grain = grain;
      opts.stealing = stealing;
      opts.batch = batch;
      util::parallelChunks(&pool, n, opts,
                           [&](std::size_t begin, std::size_t end) {
                             // Chunk boundaries are a function of n and
                             // grain only, regardless of scheduling.
                             EXPECT_EQ(begin % grain, 0u);
                             EXPECT_LE(end - begin, grain);
                             EXPECT_TRUE(end == n || (end - begin) == grain);
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1,
                                                 std::memory_order_relaxed);
                             }
                           });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "i=" << i << " stealing=" << stealing << " batch=" << batch;
      }
    }
  }
}

TEST(ChunkScheduler, NullPoolAndSingleChunkRunInline) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  util::parallelChunks(nullptr, 10, 3,
                       [&](std::size_t b, std::size_t e) {
                         ranges.emplace_back(b, e);
                       });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{10}));

  util::ThreadPool pool(2);
  ranges.clear();
  util::parallelChunks(&pool, 5, 100,
                       [&](std::size_t b, std::size_t e) {
                         ranges.emplace_back(b, e);
                       });
  ASSERT_EQ(ranges.size(), 1u);  // one chunk -> inline on the caller
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{5}));
}

TEST(ChunkScheduler, ExceptionPropagatesAndPoolStaysUsable) {
  util::ThreadPool pool(3);
  util::ChunkOptions opts;
  opts.grain = 1;
  EXPECT_THROW(
      util::parallelChunks(&pool, 64, opts,
                           [&](std::size_t begin, std::size_t) {
                             if (begin == 17) {
                               throw std::runtime_error("boom");
                             }
                           }),
      std::runtime_error);

  // The error state is cleared; the pool keeps scheduling correctly.
  std::atomic<std::size_t> covered{0};
  util::parallelChunks(&pool, 64, opts,
                       [&](std::size_t begin, std::size_t end) {
                         covered.fetch_add(end - begin,
                                           std::memory_order_relaxed);
                       });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ChunkScheduler, StatsCountChunksAndReset) {
  util::ThreadPool pool(2);
  util::ChunkOptions opts;
  opts.grain = 1;
  util::parallelChunks(&pool, 100, opts, [](std::size_t, std::size_t) {});
  util::ThreadPoolStats stats = pool.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  EXPECT_EQ(stats.totalChunks(), 100u);
  EXPECT_LE(stats.totalStolen(), stats.totalChunks());
  EXPECT_GT(stats.totalTasks(), 0u);

  const std::string text = util::formatThreadPoolStats(stats);
  EXPECT_NE(text.find("thread pool: 2 workers"), std::string::npos);
  EXPECT_NE(text.find("worker 0:"), std::string::npos);

  pool.resetStats();
  stats = pool.stats();
  EXPECT_EQ(stats.totalChunks(), 0u);
  EXPECT_EQ(stats.totalTasks(), 0u);
}

TEST(ChunkScheduler, StealingDisabledStealsNothing) {
  util::ThreadPool pool(4);
  util::ChunkOptions opts;
  opts.grain = 1;
  opts.stealing = false;
  pool.resetStats();
  util::parallelChunks(&pool, 500, opts, [](std::size_t, std::size_t) {});
  EXPECT_EQ(pool.stats().totalStolen(), 0u);
}

TEST(ChunkScheduler, PipelineExportsPoolStats) {
  analysis::PipelineOptions opts;
  opts.threads = 4;
  util::ThreadPoolStats stats;
  opts.poolStats = &stats;
  const analysis::AnalysisResult result =
      analysis::analyzeTrace(skewedTrace(), opts);
  EXPECT_FALSE(result.variation.processes.empty());
  ASSERT_EQ(stats.workers.size(), 4u);
  EXPECT_GT(stats.totalChunks(), 0u);
}

}  // namespace
}  // namespace perfvar
