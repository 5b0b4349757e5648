/// Differential matrix of the throughput engineering pass: every thread
/// count and both kernel generations (tuned analyzeTrace vs
/// detail::analyzeTraceReference) must produce byte-identical
/// analysis output on skewed, uniform and empty-rank traces. Plus direct
/// coverage of the work-stealing chunk scheduler itself: full coverage,
/// one index per chunk, exception propagation, concurrent callers, the
/// nested-call guard and the ThreadPoolStats counters. Runs under the TSan
/// CI job (label: parallel).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/sos.hpp"
#include "apps/scale_synthetic.hpp"
#include "profile/profile.hpp"
#include "util/error.hpp"
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
    const std::vector<std::uint8_t> table =
        analysis::detail::sosFunctionTable(view.functions(), mask);
    analysis::detail::SosKernel kernel(table, view.metrics(), fn);
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
  // n below, at and far above the worker count: workers without a shard
  // of their own only steal.
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.runChunks(n, [&](std::size_t begin, std::size_t end) {
      EXPECT_EQ(end, begin + 1);  // one index per chunk
      hits[begin].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " n=" << n;
    }
  }
}

TEST(ChunkScheduler, NullPoolAndSingleChunkRunInline) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const auto record = [&](std::size_t b, std::size_t e) {
    ranges.emplace_back(b, e);
  };
  util::parallelChunks(nullptr, 10, record);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{10}));

  // One chunk, or one worker: inline on the caller as body(0, n).
  util::ThreadPool pool(2);
  ranges.clear();
  util::parallelChunks(&pool, 1, record);
  util::ThreadPool single(1);
  util::parallelChunks(&single, 5, record);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], std::make_pair(std::size_t{0}, std::size_t{1}));
  EXPECT_EQ(ranges[1], std::make_pair(std::size_t{0}, std::size_t{5}));
  EXPECT_EQ(pool.stats().totalChunks() + single.stats().totalChunks(), 0u);
}

TEST(ChunkScheduler, ExceptionPropagatesAndPoolStaysUsable) {
  util::ThreadPool pool(3);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.runChunks(64,
                              [&](std::size_t begin, std::size_t) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (begin == 17) {
                                  throw std::runtime_error("boom");
                                }
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64u);  // the other chunks still ran

  // The error belonged to that batch; the pool keeps scheduling correctly.
  std::atomic<std::size_t> covered{0};
  pool.runChunks(64, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ChunkScheduler, StatsCountChunksAndReset) {
  util::ThreadPool pool(2);
  pool.runChunks(100, [](std::size_t, std::size_t) {});
  util::ThreadPoolStats stats = pool.stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  EXPECT_EQ(stats.totalChunks(), 100u);
  EXPECT_LE(stats.totalStolen(), stats.totalChunks());

  const std::string text = util::formatThreadPoolStats(stats);
  EXPECT_NE(text.find("thread pool: 2 workers"), std::string::npos);
  EXPECT_NE(text.find("worker 0:"), std::string::npos);

  pool.resetStats();
  stats = pool.stats();
  EXPECT_EQ(stats.totalChunks(), 0u);
  EXPECT_EQ(stats.totalStolen(), 0u);
}

TEST(ChunkScheduler, ConcurrentCallersGetTheirOwnBatchesAndErrors) {
  util::ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kThrower = 2;
  std::vector<std::size_t> errors(kCallers, 0);
  std::vector<std::size_t> badBatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t n = 17 + 13 * c + round;
        std::vector<std::atomic<int>> hits(n);
        try {
          pool.runChunks(n, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              hits[i].fetch_add(1, std::memory_order_relaxed);
            }
            if (c == kThrower && begin % 5 == 0) {
              throw Error("caller " + std::to_string(c));
            }
          });
        } catch (const Error& e) {
          ++errors[c];
          if (std::string(e.what()).find("caller 2") == std::string::npos) {
            ++badBatches[c];  // another caller's exception leaked in
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (hits[i].load() != 1) {
            ++badBatches[c];
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(errors[c], c == kThrower ? kRounds : 0u) << "caller " << c;
    EXPECT_EQ(badBatches[c], 0u) << "caller " << c;
  }
}

TEST(ChunkScheduler, NestedRunChunksOnTheSamePoolThrows) {
  // Waiting on its own pool from a worker would deadlock; it must fail
  // fast instead (the suite's ctest TIMEOUT catches a hang).
  util::ThreadPool pool(2);
  std::atomic<std::size_t> refused{0};
  pool.runChunks(8, [&](std::size_t, std::size_t) {
    try {
      util::parallelChunks(&pool, 4, [](std::size_t, std::size_t) {});
    } catch (const Error&) {
      refused.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(refused.load(), 8u);

  // Uncaught, it surfaces as the outer batch's error.
  EXPECT_THROW(pool.runChunks(8,
                              [&](std::size_t, std::size_t) {
                                pool.runChunks(2, [](std::size_t,
                                                     std::size_t) {});
                              }),
               Error);

  // Another pool is fine from inside a chunk body.
  util::ThreadPool other(2);
  std::atomic<std::size_t> inner{0};
  pool.runChunks(4, [&](std::size_t, std::size_t) {
    other.runChunks(3, [&](std::size_t, std::size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 12u);
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
