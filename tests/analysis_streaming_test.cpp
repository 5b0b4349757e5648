#include <gtest/gtest.h>

#include "analysis/dominant.hpp"
#include "analysis/streaming.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/desync_stencil.hpp"
#include "apps/paper_examples.hpp"
#include "apps/pipeline_chain.hpp"
#include "apps/scale_synthetic.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"
#include "trace/filter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfvar::analysis {
namespace {

/// Collect all segments the streaming analyzer emits, grouped by process.
std::vector<std::vector<SegmentAnalysis>> streamAll(
    const trace::Trace& tr, trace::FunctionId f,
    const StreamingOptions& opts = {}) {
  StreamingSos analyzer(tr, f, opts);
  std::vector<std::vector<SegmentAnalysis>> out(tr.processCount());
  analyzer.setSegmentCallback([&](const SegmentAnalysis& seg) {
    out[seg.segment.process].push_back(seg);
  });
  StreamingSos::replay(tr, analyzer);
  return out;
}

void expectEqualResults(const std::vector<std::vector<SegmentAnalysis>>& a,
                        const SosResult& b) {
  ASSERT_EQ(a.size(), b.processCount());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& batch = b.process(static_cast<trace::ProcessId>(p));
    ASSERT_EQ(a[p].size(), batch.size()) << "process " << p;
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      EXPECT_EQ(a[p][i].segment.enter, batch[i].segment.enter);
      EXPECT_EQ(a[p][i].segment.leave, batch[i].segment.leave);
      EXPECT_EQ(a[p][i].sosTime, batch[i].sosTime);
      EXPECT_EQ(a[p][i].syncTime, batch[i].syncTime);
      EXPECT_EQ(a[p][i].metricDelta, batch[i].metricDelta);
      EXPECT_EQ(a[p][i].paradigmTime, batch[i].paradigmTime);
    }
  }
}

TEST(Streaming, MatchesBatchAnalysisOnFigure3) {
  const trace::Trace tr = apps::buildFigure3Trace();
  const auto fA = *tr.functions.find("a");
  expectEqualResults(streamAll(tr, fA), analyzeSos(tr, fA));
}

TEST(Streaming, MatchesBatchAnalysisOnSimulatedRun) {
  apps::CosmoSpecsConfig cfg;
  cfg.gridX = 4;
  cfg.gridY = 4;
  cfg.timesteps = 15;
  const auto scenario = apps::buildCosmoSpecs(cfg);
  const trace::Trace tr = sim::simulate(scenario.program, scenario.simOptions);
  expectEqualResults(streamAll(tr, scenario.iterationFunction),
                     analyzeSos(tr, scenario.iterationFunction));
}

TEST(Streaming, AlertsFireOnAnInjectedOutlierWhileRunning) {
  trace::TraceBuilder b(2);
  const auto fStep = b.defineFunction("step");
  for (std::size_t i = 0; i < 100; ++i) {
    for (trace::ProcessId p = 0; p < 2; ++p) {
      const trace::Timestamp t0 = static_cast<trace::Timestamp>(i) * 1000;
      // One 10x segment on process 1, iteration 70; mild jitter elsewhere.
      const trace::Timestamp w =
          (p == 1 && i == 70) ? 900 : 90 + (p * 5 + i * 3) % 7;
      b.enter(p, t0, fStep);
      b.leave(p, t0 + w, fStep);
    }
  }
  const trace::Trace tr = b.finish();

  StreamingOptions opts;
  opts.alertThreshold = 6.0;
  StreamingSos analyzer(tr, *tr.functions.find("step"), opts);
  std::vector<StreamingAlert> alerts;
  analyzer.setAlertCallback(
      [&](const StreamingAlert& alert) { alerts.push_back(alert); });
  StreamingSos::replay(tr, analyzer);

  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].segment.segment.process, 1u);
  EXPECT_EQ(alerts[0].segment.segment.index, 70u);
  EXPECT_GT(alerts[0].robustZ, 6.0);
  EXPECT_EQ(analyzer.segmentsCompleted(), 200u);
}

TEST(Streaming, NoAlertsDuringWarmup) {
  trace::TraceBuilder b(1);
  const auto fStep = b.defineFunction("step");
  // The very first segment is huge - but falls inside the warm-up window.
  b.enter(0, 0, fStep);
  b.leave(0, 100000, fStep);
  for (std::size_t i = 1; i < 10; ++i) {
    b.enter(0, 100000 + i * 100, fStep);
    b.leave(0, 100000 + i * 100 + 50, fStep);
  }
  const trace::Trace tr = b.finish();
  StreamingOptions opts;
  opts.warmupSegments = 32;
  StreamingSos analyzer(tr, fStep, opts);
  bool alerted = false;
  analyzer.setAlertCallback([&](const StreamingAlert&) { alerted = true; });
  StreamingSos::replay(tr, analyzer);
  EXPECT_FALSE(alerted);
}

TEST(Streaming, RejectsMalformedStreams) {
  const trace::Trace defs = apps::buildFigure1Trace();
  StreamingSos analyzer(defs, 0);
  EXPECT_THROW(analyzer.onEvent(0, trace::Event::leave(5, 0)), Error);
  StreamingSos unfinished(defs, 0);
  unfinished.onEvent(0, trace::Event::enter(0, 0));
  EXPECT_THROW(unfinished.finish(), Error);
}

// Property: streaming == batch on random traces (different interleavings
// cannot change per-process results).
class StreamingEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingEquivalenceSweep, StreamEqualsBatch) {
  Rng rng(GetParam());
  const auto nProcs = static_cast<std::size_t>(rng.uniformInt(1, 5));
  trace::TraceBuilder b(nProcs);
  const auto fStep = b.defineFunction("step");
  const auto fWork = b.defineFunction("work");
  const auto fMpi =
      b.defineFunction("MPI_Allreduce", "MPI", trace::Paradigm::MPI);
  const auto m = b.defineMetric("ctr");
  for (trace::ProcessId p = 0; p < nProcs; ++p) {
    trace::Timestamp t = static_cast<trace::Timestamp>(rng.uniformInt(0, 50));
    double cumulative = 0.0;
    const auto iters = rng.uniformInt(1, 15);
    for (std::int64_t i = 0; i < iters; ++i) {
      b.enter(p, t, fStep);
      const auto w = static_cast<trace::Timestamp>(rng.uniformInt(1, 40));
      b.enter(p, t, fWork);
      cumulative += rng.uniform(0.0, 100.0);
      b.metric(p, t + w / 2, m, cumulative);
      b.leave(p, t + w, fWork);
      const auto s = static_cast<trace::Timestamp>(rng.uniformInt(0, 20));
      b.enter(p, t + w, fMpi);
      b.leave(p, t + w + s, fMpi);
      b.leave(p, t + w + s, fStep);
      t += w + s + static_cast<trace::Timestamp>(rng.uniformInt(0, 9));
    }
  }
  const trace::Trace tr = b.finish();
  expectEqualResults(streamAll(tr, fStep), analyzeSos(tr, fStep));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceSweep,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

// ---- streaming == batch on the scenario generators -------------------------

/// Everything a streaming run emits, in emission order.
struct StreamRun {
  std::vector<std::vector<SegmentAnalysis>> segments;
  std::vector<StreamingAlert> alerts;
  std::size_t completed = 0;
};

/// Drive `tr` through StreamingSos, either with replay() (chunks == 0) or
/// by feed()ing the trace::splitByTime chunks in order, then finish().
StreamRun streamRun(const trace::Trace& tr, trace::FunctionId f,
                    std::size_t chunks) {
  StreamingSos analyzer(tr, f);
  StreamRun run;
  run.segments.resize(tr.processCount());
  analyzer.setSegmentCallback([&](const SegmentAnalysis& seg) {
    run.segments[seg.segment.process].push_back(seg);
  });
  analyzer.setAlertCallback(
      [&](const StreamingAlert& alert) { run.alerts.push_back(alert); });
  if (chunks == 0) {
    StreamingSos::replay(tr, analyzer);
  } else {
    for (const trace::Trace& chunk : trace::splitByTime(tr, chunks)) {
      analyzer.feed(chunk);
    }
    analyzer.finish();
  }
  run.completed = analyzer.segmentsCompleted();
  return run;
}

void expectSameAlerts(const std::vector<StreamingAlert>& a,
                      const std::vector<StreamingAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].segment.segment.process, b[i].segment.segment.process);
    EXPECT_EQ(a[i].segment.segment.index, b[i].segment.segment.index);
    EXPECT_EQ(a[i].segment.sosTime, b[i].segment.sosTime);
    EXPECT_EQ(a[i].robustZ, b[i].robustZ);
  }
}

/// Both drives equal batch analyzeSos and each other, alerts included.
void expectStreamingMatchesBatch(const trace::Trace& tr) {
  const auto selection = selectDominantFunction(tr);
  ASSERT_TRUE(selection.hasDominant());
  const trace::FunctionId f = selection.dominant().function;
  const SosResult batch = analyzeSos(tr, f);
  std::size_t batchSegments = 0;
  for (const auto& per : batch.all()) {
    batchSegments += per.size();
  }
  ASSERT_GT(batchSegments, 0u);

  const StreamRun replayed = streamRun(tr, f, 0);
  const StreamRun chunked = streamRun(tr, f, 7);
  expectEqualResults(replayed.segments, batch);
  expectEqualResults(chunked.segments, batch);
  EXPECT_EQ(replayed.completed, batchSegments);
  EXPECT_EQ(chunked.completed, batchSegments);
  // Every scenario plants an imbalance, so the monitor has something to
  // agree on.
  EXPECT_FALSE(replayed.alerts.empty());
  expectSameAlerts(replayed.alerts, chunked.alerts);
}

TEST(StreamingScenarios, ScaleTraceWithSkewedTailMatchesBatch) {
  apps::ScaleConfig cfg;
  cfg.ranks = 1000;
  cfg.iterations = 6;
  cfg.hiccupStartIteration = 3;
  cfg.skewTailPerMille = 20;
  cfg.skewEventsFactor = 64;
  expectStreamingMatchesBatch(apps::buildScaleTrace(cfg));
}

TEST(StreamingScenarios, PipelineChainMatchesBatch) {
  apps::PipelineConfig cfg;
  cfg.jitterTicks = 20'000;
  expectStreamingMatchesBatch(apps::buildPipelineTrace(cfg));
}

TEST(StreamingScenarios, DesyncStencilMatchesBatch) {
  apps::StencilConfig cfg;
  cfg.jitterTicks = 5'000;
  expectStreamingMatchesBatch(apps::buildStencilTrace(cfg));
}

}  // namespace
}  // namespace perfvar::analysis
