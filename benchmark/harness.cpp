/// \file harness.cpp
/// In-process side of the end-to-end benchmark (benchmark/run.py drives it).
///
///   perfvar_bench_harness setup  --workload W --seed S --dir D
///       Generate and write the workload's inputs (timed): the batch input
///       trace.pvt, the streamed input stream.pvt and its chunk images
///       (chunks/). Then compute the references once, in process, at 1
///       thread on the eager backend: ref_analyze.txt, ref_lint.txt,
///       ref_critpath.txt, ref_stream_analyze.txt and stream.txt (send
///       order, window size and the expected alert of each chunk).
///
///   perfvar_bench_harness generate --workload W --seed S --dir D
///       Only the timed generation of `setup`, for more samples of it.
///
///   perfvar_bench_harness stream --dir D --socket S
///       Load generator against a running `trace_tool serve`: an appender
///       (open loop, one chunk every kAppendPeriodMs, between two
///       closed-loop bursts), a subscriber (alert frames) and a querier
///       (`stats` while the stream runs, then `analyze` on the completed
///       live entry, both every kQueryPeriodMs). Runs one round per line
///       read from stdin, over the same connections, and prints each
///       round's raw samples as one JSON line; at end of input, prints the
///       totals.
///
///   perfvar_bench_harness layers --dir D --seconds T [--lazy]
///       The traced run: calls each layer's public entry point in turn and
///       records a span around each call; prints per-layer medians. The
///       `nproc` side runs at std::thread::hardware_concurrency() threads;
///       --lazy opens the batch input with a kShardBudgetMb budget.
///
/// Every mode prints one JSON object as its last stdout line. Except for
/// `generate`, it holds the number of checks attempted and failed and the
/// first failures.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include "analysis/depgraph.hpp"
#include "analysis/dominant.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/sos.hpp"
#include "analysis/streaming.hpp"
#include "analysis/variation.hpp"
#include "apps/cosmo_specs.hpp"
#include "apps/scale_synthetic.hpp"
#include "engine/engine.hpp"
#include "lint/lint.hpp"
#include "profile/profile.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_io.hpp"
#include "trace/filter.hpp"
#include "trace/view.hpp"
#include "util/framing.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfvar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- JSON output -----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Flat JSON object builder; values are pre-rendered JSON.
class JsonObject {
public:
  void num(const std::string& key, double v) { add(key, number(v)); }
  void str(const std::string& key, const std::string& v) { add(key, quote(v)); }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        s += ',';
      }
      s += number(v[i]);
    }
    add(key, s + "]");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  void strings(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        s += ',';
      }
      s += quote(v[i]);
    }
    add(key, s + "]");
  }
  std::string render() const { return "{" + body_ + "}"; }

private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ',';
    }
    body_ += quote(key) + ":" + value;
  }
  std::string body_;
};

/// Output and determinism checks of one mode: every check is an attempted
/// operation, every check that does not hold a failed one.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log

  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) {
        failures.push_back(what);
      }
    }
    return ok;
  }

  void render(JsonObject& out) const {
    out.num("attempted", static_cast<double>(attempted));
    out.num("failed", static_cast<double>(failed));
    out.strings("failures", failures);
  }
};

// ---- workloads -------------------------------------------------------------

/// Streaming monitor settings shared by the daemon's `open` request and the
/// in-process StreamingSos / TraceService runs.
constexpr double kAlertThreshold = 4.0;
constexpr std::size_t kAlertWarmup = 32;

/// Time windows the streamed input is cut into.
constexpr std::size_t kStreamChunks = 48;

/// Open-loop schedule of the stream phase (benchmark/README.md gives the
/// measurement behind both periods).
constexpr double kAppendPeriodMs = 40;
constexpr double kQueryPeriodMs = 50;

/// Shard budget of the lazy backend; `setup` reports it, and benchmark/run.py
/// passes it to trace_tool as --shard-budget-mb.
constexpr std::size_t kShardBudgetMb = 4;

/// A workload's batch input plus the input streamed to the daemon. The
/// streamed input is the same scale trace on every workload: on the batch
/// workloads it is the daemon's no-change control.
struct Workload {
  bool scale = true;  ///< batch input is a scale trace (else COSMO-SPECS)
  apps::ScaleConfig scaleConfig;
  apps::CosmoSpecsConfig cosmoConfig;
  apps::ScaleConfig streamConfig;
};

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.streamConfig.ranks = 256;
  w.streamConfig.iterations = 40;
  w.streamConfig.hiccupPerMille = 20;
  w.streamConfig.seed = seed;
  if (name == "paper-64") {
    w.scale = false;
    w.cosmoConfig.gridX = 4;
    w.cosmoConfig.gridY = 16;
    w.cosmoConfig.timesteps = 480;
    w.cosmoConfig.noiseSigma = 0.02;
    w.cosmoConfig.seed = seed;
    return w;
  }
  if (name != "scale-skewed" && name != "scale-lazy" && name != "serve-stream") {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  // The pinned ROADMAP trace: 10k ranks, a 2% tail with 256x extra nested
  // compute pairs, planted hiccups (default 10 per mille). On serve-stream
  // it is the batch control.
  w.scaleConfig.ranks = 10'000;
  w.scaleConfig.iterations = 5;
  w.scaleConfig.skewTailPerMille = 20;
  w.scaleConfig.skewEventsFactor = 256;
  w.scaleConfig.seed = seed;
  return w;
}

/// Send order of the chunks: in every block of eight chunks the seed picks
/// one adjacent pair to swap, so the daemon's reorder window has work to do
/// at the same density on every seed.
std::vector<std::size_t> sendOrder(std::size_t chunks, std::uint64_t seed) {
  std::vector<std::size_t> order(chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    order[i] = i;
  }
  std::mt19937_64 rng(seed ^ 0x5eedc0deULL);
  for (std::size_t block = 0; block + 8 <= chunks; block += 8) {
    const std::size_t first = block + 2 * (rng() % 4);
    std::swap(order[first], order[first + 1]);
  }
  return order;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

// ---- stream description (written by setup, read by stream / layers) -------

struct StreamSpec {
  std::string segmentFunction;
  std::size_t windowBytes = 0;
  std::vector<std::uint64_t> chunkEvents;  ///< by chunk index
  std::vector<std::size_t> order;          ///< send order (chunk indices)
  std::size_t segments = 0;
  /// Expected alert lines (without the daemon's "name: " prefix) and the
  /// chunk whose events complete each alerted segment.
  std::vector<std::pair<std::size_t, std::string>> alerts;

  std::string openSpec() const {
    std::ostringstream os;
    os << segmentFunction << " threshold " << kAlertThreshold << " warmup "
       << kAlertWarmup;
    return os.str();
  }
};

void writeStreamSpec(const fs::path& path, const StreamSpec& s) {
  std::ostringstream os;
  os << "segment " << s.segmentFunction << '\n'
     << "window " << s.windowBytes << '\n'
     << "segments " << s.segments << '\n';
  for (const std::uint64_t e : s.chunkEvents) {
    os << "chunk " << e << '\n';
  }
  for (const std::size_t o : s.order) {
    os << "order " << o << '\n';
  }
  for (const auto& [chunk, line] : s.alerts) {
    os << "alert " << chunk << ' ' << line << '\n';
  }
  writeFile(path, os.str());
}

StreamSpec readStreamSpec(const fs::path& path) {
  StreamSpec s;
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "segment") {
      ls >> s.segmentFunction;
    } else if (key == "window") {
      ls >> s.windowBytes;
    } else if (key == "segments") {
      ls >> s.segments;
    } else if (key == "chunk") {
      std::uint64_t e = 0;
      ls >> e;
      s.chunkEvents.push_back(e);
    } else if (key == "order") {
      std::size_t o = 0;
      ls >> o;
      s.order.push_back(o);
    } else if (key == "alert") {
      std::size_t chunk = 0;
      ls >> chunk;
      ls.get();
      std::string rest;
      std::getline(ls, rest);
      s.alerts.emplace_back(chunk, rest);
    }
  }
  return s;
}

std::vector<std::string> readChunks(const fs::path& dir, std::size_t n) {
  std::vector<std::string> images;
  for (std::size_t i = 0; i < n; ++i) {
    images.push_back(readFile(dir / "chunks" / (std::to_string(i) + ".bin")));
  }
  return images;
}

// ---- setup -----------------------------------------------------------------

/// Generate and write the workload's batch input (trace.pvt), the streamed
/// input (stream.pvt) and its chunk images (chunks/).
void generateInputs(const Workload& w, const fs::path& dir) {
  if (w.scale) {
    apps::writeScaleTrace((dir / "trace.pvt").string(), w.scaleConfig);
  } else {
    const apps::CosmoSpecsScenario scenario = apps::buildCosmoSpecs(w.cosmoConfig);
    trace::saveBinaryFile(sim::simulate(scenario.program, scenario.simOptions),
                          (dir / "trace.pvt").string());
  }
  apps::writeScaleTrace((dir / "stream.pvt").string(), w.streamConfig);
  const trace::Trace stream = trace::loadBinaryFile((dir / "stream.pvt").string());
  fs::create_directories(dir / "chunks");
  const std::vector<trace::Trace> chunks = trace::splitByTime(stream, kStreamChunks);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    std::ostringstream image;
    trace::writeBinary(chunks[i], image);
    writeFile(dir / "chunks" / (std::to_string(i) + ".bin"), image.str());
  }
}

/// One check per planted culprit of a scale input: `found` must hold it.
void checkCulprits(const apps::ScaleConfig& config, const trace::Trace& tr,
                   const std::vector<trace::ProcessId>& found,
                   const std::string& otherwise, Checks& checks) {
  for (trace::ProcessId p = 0; p < tr.processCount(); ++p) {
    if (apps::scaleRankIsCulprit(config, p)) {
      checks.check(std::find(found.begin(), found.end(), p) != found.end(),
                   "planted culprit " + tr.processes[p].name + " " + otherwise);
    }
  }
}

/// Seconds to generate and write the inputs into `dir` as fresh files, as
/// on a first run: timing overwrites made the later samples up to 2x
/// slower.
double timedGeneration(const std::string& workload, std::uint64_t seed,
                       const fs::path& dir) {
  const Workload w = makeWorkload(workload, seed);
  fs::create_directories(dir);
  fs::remove(dir / "trace.pvt");
  fs::remove(dir / "stream.pvt");
  fs::remove_all(dir / "chunks");
  const auto t0 = Clock::now();
  generateInputs(w, dir);
  return msSince(t0) / 1000.0;
}

int runGenerate(const std::string& workload, std::uint64_t seed, const fs::path& dir) {
  JsonObject out;
  out.num("setup_s", timedGeneration(workload, seed, dir));
  std::cout << out.render() << std::endl;
  return 0;
}

int runSetup(const std::string& workload, std::uint64_t seed, const fs::path& dir) {
  const double setupSeconds = timedGeneration(workload, seed, dir);
  const Workload w = makeWorkload(workload, seed);

  // Reference reports: in process, 1 thread, eager backend.
  Checks checks;
  const trace::Trace tr = trace::loadBinaryFile((dir / "trace.pvt").string());
  const trace::TraceView view(tr);
  const analysis::PipelineOptions serial;
  const analysis::AnalysisResult result = analysis::analyzeTrace(view, serial);
  writeFile(dir / "ref_analyze.txt", analysis::formatAnalysis(view, result));
  const lint::LintOptions lintOptions;
  const lint::LintReport lintReport = lint::lintTrace(view, lintOptions);
  writeFile(dir / "ref_lint.txt",
            lint::exportLintReportString(lintReport, analysis::ExportFormat::Text));
  // trace_tool lint's default --fail-on is warning.
  const int lintExit = lintReport.hasAtLeast(lint::Severity::Warning) ? 1 : 0;
  const analysis::DepAnalysisOptions depOptions;
  writeFile(dir / "ref_critpath.txt",
            analysis::formatDepAnalysis(view, analysis::analyzeDependencies(view, depOptions)));
  if (w.scale) {
    checkCulprits(w.scaleConfig, tr, result.variation.culpritProcesses,
                  "is missing from the culprit list", checks);
  }

  // The streamed input: the live entry's final report, and the alerts
  // expected when the chunks are fed in time order, each with the chunk
  // whose events complete the alerted segment.
  const trace::Trace stream = trace::loadBinaryFile((dir / "stream.pvt").string());
  const trace::TraceView streamView(stream);
  const analysis::AnalysisResult streamResult = analysis::analyzeTrace(streamView, serial);
  writeFile(dir / "ref_stream_analyze.txt",
            analysis::formatAnalysis(streamView, streamResult));
  StreamSpec spec;
  spec.segmentFunction = stream.functions.name(streamResult.segmentFunction);
  const std::vector<trace::Trace> chunks = trace::splitByTime(stream, kStreamChunks);
  std::size_t maxImage = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    spec.chunkEvents.push_back(chunks[i].eventCount());
    maxImage = std::max<std::size_t>(
        maxImage, fs::file_size(dir / "chunks" / (std::to_string(i) + ".bin")));
  }
  // The window holds the largest chunk, so the later half of a swapped
  // pair waits for the earlier half; about one chunk stays buffered, so
  // each append commits about one chunk.
  spec.windowBytes = maxImage;
  spec.order = sendOrder(chunks.size(), seed);
  analysis::StreamingOptions streamOptions;
  streamOptions.alertThreshold = kAlertThreshold;
  streamOptions.warmupSegments = kAlertWarmup;
  analysis::StreamingSos sos(stream, streamResult.segmentFunction, streamOptions);
  std::size_t current = 0;
  std::vector<trace::ProcessId> alerted;
  sos.setAlertCallback([&](const analysis::StreamingAlert& a) {
    spec.alerts.emplace_back(current, analysis::formatStreamingAlert(stream, a));
    alerted.push_back(a.segment.segment.process);
  });
  for (current = 0; current < chunks.size(); ++current) {
    sos.feed(chunks[current]);
  }
  sos.finish();
  spec.segments = sos.segmentsCompleted();
  writeStreamSpec(dir / "stream.txt", spec);
  checkCulprits(w.streamConfig, stream, alerted, "raised no streaming alert", checks);

  JsonObject out;
  out.num("setup_s", setupSeconds);
  out.num("ranks", static_cast<double>(tr.processCount()));
  out.num("events", static_cast<double>(tr.eventCount()));
  out.num("file_bytes", static_cast<double>(fs::file_size(dir / "trace.pvt")));
  out.num("stream_ranks", static_cast<double>(stream.processCount()));
  out.num("stream_events", static_cast<double>(stream.eventCount()));
  out.num("stream_file_bytes", static_cast<double>(fs::file_size(dir / "stream.pvt")));
  out.num("stream_chunks", static_cast<double>(chunks.size()));
  out.num("stream_alerts", static_cast<double>(spec.alerts.size()));
  out.num("window_bytes", static_cast<double>(spec.windowBytes));
  out.num("shard_budget_mb", static_cast<double>(kShardBudgetMb));
  out.num("lint_exit", lintExit);
  out.str("compiler", __VERSION__);
  checks.render(out);
  std::cout << out.render() << std::endl;
  return 0;
}

// ---- stream (load generator) -----------------------------------------------

/// Bound every blocking socket call of a client connection: a stalled
/// daemon turns into a transport error (counted as a failure), not a hang.
void setSocketTimeouts(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

server::Client connectClient(const std::string& socketPath) {
  // The caller waited for the socket path; only the bind-to-listen race
  // remains, so a short fixed retry suffices.
  util::FileDescriptor fd = util::connectUnix(socketPath, 40, 25);
  setSocketTimeouts(fd.get(), 10'000);
  return server::Client(std::move(fd));
}

/// Aggregate (steal, total) jiffies of the host's CPUs; zeros when
/// /proc/stat is unreadable.
std::pair<double, double> cpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0, total = 0, v = 0;
  for (int i = 0; in >> v && i < 10; ++i) {
    total += v;
    steal += i == 7 ? v : 0;
  }
  return {steal, total};
}

/// Share of the CPU time since `before` that the hypervisor gave to other
/// guests.
double stealShareSince(const std::pair<double, double>& before) {
  const auto after = cpuTimes();
  return (after.first - before.first) / std::max(1.0, after.second - before.second);
}

/// Per-round samples; each append and live query also carries the steal
/// share read around it, so benchmark/run.py can keep, per schedule slot,
/// the rounds that lost the least time to other guests.
struct StreamSamples {
  std::vector<double> appendMs;
  std::vector<double> appendSteal;
  std::vector<double> lateMs;
  std::vector<double> alertMs;
  std::vector<double> queryMs;
  std::vector<double> querySteal;
  std::vector<double> ingestMevS;
  Checks checks;
  std::size_t errorFrames = 0;
  std::size_t alertsDropped = 0;
};

/// Reads unsolicited Alert frames of the current round.
class Subscriber {
public:
  explicit Subscriber(server::Client client) : client_(std::move(client)) {}

  /// Subscribe to `name` (synchronously) and start collecting.
  bool begin(const std::string& name) {
    prefix_ = name + ": ";
    arrivals_.clear();
    dropped_ = 0;
    try {
      return client_.subscribe(name).ok();
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Collect alert frames until `expected` arrived or the deadline (ns
  /// since the clock's epoch, movable while collecting) passed.
  void collect(std::size_t expected, const std::atomic<std::int64_t>& deadline) {
    util::Frame frame;
    while (arrivals_.size() < expected &&
           Clock::now().time_since_epoch().count() < deadline.load()) {
      pollfd pfd{client_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) {
        continue;
      }
      if (!util::readFrame(client_.fd(), frame)) {
        return;
      }
      const auto now = Clock::now();
      if (static_cast<server::FrameType>(frame.type) != server::FrameType::Alert) {
        continue;
      }
      std::string line = frame.payload;
      if (line.rfind("dropped=", 0) == 0) {
        dropped_ += std::strtoull(line.c_str() + 8, nullptr, 10);
        continue;
      }
      if (line.rfind(prefix_, 0) == 0) {
        line.erase(0, prefix_.size());
      }
      arrivals_.emplace_back(line, now);
    }
  }

  const std::vector<std::pair<std::string, Clock::time_point>>& arrivals() const {
    return arrivals_;
  }
  std::size_t dropped() const { return dropped_; }

private:
  server::Client client_;
  std::string prefix_;
  std::vector<std::pair<std::string, Clock::time_point>> arrivals_;
  std::size_t dropped_ = 0;
};

/// `analyze` requests on each completed live entry.
constexpr std::size_t kLiveQueries = 10;

/// One open-loop round on live trace `name`, between two closed-loop bursts.
void streamRound(const std::string& name, const StreamSpec& spec,
                 const std::vector<std::string>& images,
                 const std::string& refAnalyze, server::Client& appender,
                 server::Client& querier, Subscriber& subscriber,
                 StreamSamples& out) {
  // Every outcome is recorded here; the querier thread shares the counters
  // with the appender. A thrown transport error is a failed operation.
  std::mutex countersMutex;
  const auto record = [&](bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(countersMutex);
    return out.checks.check(ok, what);
  };
  const auto request = [&](const std::string& what, auto&& send) {
    server::ClientResponse r;
    try {
      r = send();
    } catch (const std::exception& e) {
      record(false, what + ": " + e.what());
      return r;
    }
    if (r.type == server::FrameType::Error) {
      std::lock_guard<std::mutex> lock(countersMutex);
      ++out.errorFrames;
    }
    record(r.ok(), what + ": " + server::frameTypeName(r.type) + " " +
                       (r.ok() ? "" : r.error().message));
    return r;
  };

  // Closed-loop burst into a fresh entry: append every chunk in time order
  // as fast as the daemon acknowledges them. A round bursts twice, before
  // and after its stream: the host's speed moves in periods of 0.2-0.8 s,
  // and with one burst per round the ingest median spread 0.23 between
  // seeds.
  const std::size_t n = spec.order.size();
  const auto burst = [&](const std::string& entry) {
    if (!request("open " + entry, [&] { return appender.open(entry, spec.openSpec()); })
             .ok()) {
      return;
    }
    std::uint64_t events = 0;
    bool ok = true;
    const auto b0 = Clock::now();
    for (std::size_t chunk = 0; chunk < n && ok; ++chunk) {
      ok = request("append " + entry, [&] { return appender.append(entry, images[chunk]); })
               .ok();
      events += spec.chunkEvents[chunk];
    }
    if (ok) {
      out.ingestMevS.push_back(static_cast<double>(events) / msSince(b0) / 1000.0);
    }
    request("evict " + entry, [&] { return appender.evict(entry); });
  };
  burst(name + "-burst-0");

  if (!request("open " + name, [&] { return appender.open(name, spec.openSpec()); })
           .ok() ||
      !record(subscriber.begin(name), "subscribe " + name)) {
    return;
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t slot) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(kAppendPeriodMs * slot));
  };

  std::atomic<std::int64_t> collectUntil{std::numeric_limits<std::int64_t>::max()};
  bool collectOk = true;
  std::thread subscribeThread([&] {
    try {
      subscriber.collect(spec.alerts.size(), collectUntil);
    } catch (const std::exception&) {
      collectOk = false;
    }
  });

  // While appends stream in, the querier reads the live entry's counters
  // at a fixed period. `analyze` on a live entry fails while frames are
  // still open, and any flushing read would commit the reorder window
  // between the halves of a swapped pair; `stats` does neither.
  std::atomic<bool> appending{true};
  std::thread queryThread([&] {
    auto next = due(0);
    while (appending.load()) {
      std::this_thread::sleep_until(next);
      if (!appending.load()) {
        break;
      }
      if (!request("stats " + name, [&] { return querier.stats(name); }).ok()) {
        return;
      }
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kQueryPeriodMs));
    }
  });

  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t chunk = spec.order[slot];
    const auto cpuBefore = cpuTimes();
    std::this_thread::sleep_until(due(slot));
    const auto sent = Clock::now();
    const server::ClientResponse r =
        request("append " + name + " chunk " + std::to_string(chunk),
                [&] { return appender.append(name, images[chunk]); });
    if (!r.ok()) {
      break;
    }
    out.appendMs.push_back(msSince(due(slot)));
    out.appendSteal.push_back(stealShareSince(cpuBefore));
    out.lateMs.push_back(
        std::chrono::duration<double, std::milli>(sent - due(slot)).count());
  }
  appending.store(false);
  queryThread.join();

  // Once the stream is complete, the querier analyzes the live entry at the
  // query period; the first request also commits what the window still
  // holds. Back to back, the requests of one round all read the same host
  // state, and the round's median moved by up to half from round to round.
  // Every report must reproduce the reference, and the daemon's counts
  // must match it.
  auto nextQuery = Clock::now();
  for (std::size_t q = 0; q < kLiveQueries; ++q) {
    std::this_thread::sleep_until(nextQuery);
    nextQuery += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kQueryPeriodMs));
    const auto cpuBefore = cpuTimes();
    const auto sent = Clock::now();
    const server::ClientResponse report =
        request("analyze " + name, [&] { return querier.analyze(name); });
    if (!report.ok()) {
      break;
    }
    out.queryMs.push_back(msSince(sent));
    out.querySteal.push_back(stealShareSince(cpuBefore));
    record(report.payload == refAnalyze,
           "live analyze of " + name + " differs from the reference report");
  }
  const server::ClientResponse stats =
      request("stats " + name, [&] { return appender.stats(name); });
  if (stats.ok()) {
    const std::string want = "segments: " + std::to_string(spec.segments) +
                             "\nalerts: " + std::to_string(spec.alerts.size()) +
                             "\nwindow: 0 chunks";
    record(stats.payload.find(want) != std::string::npos,
           "live stats differ from the reference: " + stats.payload);
  }
  collectUntil.store(
      (Clock::now() + std::chrono::seconds(10)).time_since_epoch().count());
  subscribeThread.join();
  out.alertsDropped += subscriber.dropped();
  std::map<std::string, std::size_t> expected;
  for (const auto& [chunk, line] : spec.alerts) {
    expected.emplace(line, chunk);
  }
  for (const auto& [line, at] : subscriber.arrivals()) {
    const auto it = expected.find(line);
    if (it != expected.end()) {
      // Measured from the chunk's place in the time-ordered schedule: a
      // swapped chunk's data is due there, whichever slot carried it.
      out.alertMs.push_back(
          std::chrono::duration<double, std::milli>(at - due(it->second)).count());
      expected.erase(it);
    }
  }
  record(collectOk && expected.empty() &&
             subscriber.arrivals().size() == spec.alerts.size(),
         "alert frames differ from the reference: received " +
             std::to_string(subscriber.arrivals().size()) + ", missing " +
             std::to_string(expected.size()) + " of " +
             std::to_string(spec.alerts.size()));

  burst(name + "-burst-1");
  request("evict " + name, [&] { return appender.evict(name); });
}

int runStream(const fs::path& dir, const std::string& socketPath) {
  util::suppressSigpipe();
  const StreamSpec spec = readStreamSpec(dir / "stream.txt");
  const std::vector<std::string> images = readChunks(dir, spec.chunkEvents.size());
  const std::string refAnalyze = readFile(dir / "ref_stream_analyze.txt");
  StreamSamples out;
  try {
    // One set of connections for all rounds: the daemon's session threads
    // (and their allocator arenas) stay the same, so its peak memory does.
    server::Client appender = connectClient(socketPath);
    server::Client querier = connectClient(socketPath);
    Subscriber subscriber(connectClient(socketPath));
    std::string go;
    for (std::size_t round = 0; std::getline(std::cin, go); ++round) {
      const auto before = cpuTimes();
      streamRound("live-" + std::to_string(round), spec, images, refAnalyze, appender,
                  querier, subscriber, out);
      JsonObject json;
      json.num("steal_share", stealShareSince(before));
      // Share of the open-loop schedule the daemon spent serving appends
      // (send to ack): how close the append period runs to queueing.
      double serviceMs = 0;
      for (std::size_t i = 0; i < out.appendMs.size(); ++i) {
        serviceMs += out.appendMs[i] - out.lateMs[i];
      }
      json.list("busy_share", {serviceMs / (kAppendPeriodMs * static_cast<double>(
                                                std::max<std::size_t>(1, out.appendMs.size())))});
      json.list("append_ms", out.appendMs);
      json.list("append_ms_steal", out.appendSteal);
      json.list("late_ms", out.lateMs);
      json.list("alert_ms", out.alertMs);
      json.list("query_ms", out.queryMs);
      json.list("query_ms_steal", out.querySteal);
      json.list("ingest_mev_s", out.ingestMevS);
      std::cout << json.render() << std::endl;
      out.appendMs.clear();
      out.appendSteal.clear();
      out.lateMs.clear();
      out.alertMs.clear();
      out.queryMs.clear();
      out.querySteal.clear();
      out.ingestMevS.clear();
    }
  } catch (const std::exception& e) {
    out.checks.check(false, std::string("connect: ") + e.what());
  }
  JsonObject json;
  json.num("error_frames", static_cast<double>(out.errorFrames));
  json.num("alerts_dropped", static_cast<double>(out.alertsDropped));
  out.checks.render(json);
  std::cout << json.render() << std::endl;
  return 0;
}

// ---- layers (traced run) ---------------------------------------------------

/// Span recorder: named durations (ms) per repetition, plus exact counts
/// that must repeat identically.
class Spans {
public:
  template <typename F>
  auto time(const std::string& name, F&& body) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      ms_[name].push_back(msSince(t0));
    } else {
      auto result = body();
      ms_[name].push_back(msSince(t0));
      return result;
    }
  }
  double med(const std::string& name) const {
    const auto it = ms_.find(name);
    return it == ms_.end() ? 0.0 : median(it->second);
  }

  /// Record a count that must be identical on every repetition and in
  /// every configuration it is recorded under.
  void count(const std::string& name, double v) {
    const auto [it, inserted] = counts_.emplace(name, v);
    checks.check(inserted || it->second == v, "count " + name + " differs: " +
                                                   number(it->second) + " vs " + number(v));
  }
  double countOf(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  Checks checks;

private:
  std::map<std::string, std::vector<double>> ms_;
  std::map<std::string, double> counts_;
};

/// Shard-cache counters of one command on a fresh lazy view.
trace::TraceViewStats lazyCommandStats(const std::string& path,
                                       const trace::TraceViewOptions& vo,
                                       const std::string& command,
                                       std::size_t threads) {
  const trace::TraceView view = trace::TraceView::openFile(path, vo);
  if (command == "analyze") {
    analysis::PipelineOptions po;
    po.threads = threads;
    (void)analysis::analyzeTrace(view, po);
  } else if (command == "lint") {
    lint::LintOptions lo;
    lo.threads = threads;
    (void)lint::lintTrace(view, lo);
  } else {
    analysis::DepAnalysisOptions dao;
    dao.threads = threads;
    (void)analysis::analyzeDependencies(view, dao);
  }
  return view.stats();
}

/// Append frames of the stream through an in-process TraceService set up
/// like the benchmark's daemon (default threads, journal, reorder window);
/// returns the per-append handle() times (us).
std::vector<double> serviceHandle(const StreamSpec& spec,
                                  const std::vector<std::string>& images,
                                  const fs::path& journal, Spans& spans) {
  server::ServerOptions so;
  so.journalDir = journal.string();
  so.rehydrate = true;
  so.reorderWindowBytes = spec.windowBytes;
  server::TraceService service(so);
  auto [ours, theirs] = util::socketPair();
  auto session = service.openSession(std::make_shared<server::Sender>(ours.get()));
  std::size_t alertFrames = 0;
  std::size_t errorFrames = 0;
  const auto handle = [&](server::FrameType type, const std::string& payload) {
    util::Frame request;
    request.type = static_cast<std::uint8_t>(type);
    request.payload = payload;
    for (const util::Frame& f : service.handle(session, request)) {
      const auto t = static_cast<server::FrameType>(f.type);
      alertFrames += t == server::FrameType::Alert;
      errorFrames += t == server::FrameType::Error;
    }
  };
  handle(server::FrameType::Open, "live " + spec.openSpec());
  handle(server::FrameType::Subscribe, "live");
  std::vector<double> us;
  for (const std::size_t chunk : spec.order) {
    const std::string payload = server::encodeAppendPayload("live", images[chunk]);
    const auto t0 = Clock::now();
    handle(server::FrameType::Append, payload);
    us.push_back(msSince(t0) * 1000.0);
  }
  // A flushing read commits the reorder window, so every alert is out.
  handle(server::FrameType::Analyze, "live");
  service.closeSession(session);
  spans.count("server.error_frames", static_cast<double>(errorFrames));
  spans.count("server.alert_frames", static_cast<double>(alertFrames));
  return us;
}

int runLayers(const fs::path& dir, double seconds, bool lazy) {
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::string path = (dir / "trace.pvt").string();
  const StreamSpec spec = readStreamSpec(dir / "stream.txt");
  const std::vector<std::string> images = readChunks(dir, spec.chunkEvents.size());
  const std::string refAnalyze = readFile(dir / "ref_analyze.txt");
  const std::string refLint = readFile(dir / "ref_lint.txt");
  const std::string refCritpath = readFile(dir / "ref_critpath.txt");
  const auto stream = std::make_shared<const trace::Trace>(
      trace::loadBinaryFile((dir / "stream.pvt").string()));
  trace::TraceViewOptions vo;
  vo.shardBudgetBytes = kShardBudgetMb * 1024 * 1024;
  trace::BinaryReadOptions ro;
  ro.threads = threads;

  const analysis::DominantOptions dominantOptions;
  const analysis::PipelineOptions pipelineOptions;
  Spans spans;
  std::vector<double> handleUs;
  double chunks = 0, stolen = 0, idle = 0;
  double events = 0;
  double hitRatio = 0, peakResidentMib = 0;
  const auto t0 = Clock::now();
  std::size_t rep = 0;
  for (; rep < 2 || (msSince(t0) < seconds * 1000.0 && rep < 200); ++rep) {
    auto eager = std::make_shared<const trace::Trace>(
        spans.time("trace.load_ms", [&] { return trace::loadBinaryFile(path, ro); }));
    events = static_cast<double>(eager->eventCount());
    const trace::TraceView eagerView = trace::TraceView::shared(eager);
    const trace::TraceView lazyView = spans.time(
        "trace.open_lazy_ms", [&] { return trace::TraceView::openFile(path, vo); });
    const trace::TraceView& view = lazy ? lazyView : eagerView;

    // Serial stage functions (1 thread).
    const auto profile = spans.time(
        "profile.ms_1t", [&] { return profile::FlatProfile::build(view); });
    const auto selection = spans.time("dominant.ms", [&] {
      return analysis::selectDominantFunction(view, profile);
    });
    const trace::FunctionId segFn = selection.dominant().function;
    const auto sos = spans.time("sos.ms_1t", [&] {
      return analysis::analyzeSos(view, segFn, analysis::SyncClassifier{});
    });
    spans.time("variation.ms_1t", [&] { return analysis::analyzeVariation(sos); });
    const auto lint1 = spans.time("lint.ms_1t", [&] { return lint::lintTrace(view); });

    // Engine stage methods (nproc threads).
    engine::EngineOptions eo;
    eo.threads = threads;
    engine::AnalysisEngine eng(view, eo);
    spans.time("profile.ms", [&] { return eng.profile(); });
    (void)eng.dominant(dominantOptions);
    spans.time("sos_variation.ms", [&] { return eng.analyze(pipelineOptions); });
    const auto lintN = spans.time("lint.ms", [&] { return eng.lintReport(); });
    spans.count("lint.findings", static_cast<double>(lint1.findings.size()));
    spans.count("lint.findings", static_cast<double>(lintN->findings.size()));

    // Scheduler counters of one full analyze at nproc threads.
    util::ThreadPoolStats pool;
    analysis::PipelineOptions po;
    po.threads = threads;
    po.poolStats = &pool;
    const analysis::AnalysisResult result = analysis::analyzeTrace(view, po);
    chunks += static_cast<double>(pool.totalChunks());
    stolen += static_cast<double>(pool.totalStolen());
    idle += static_cast<double>(pool.totalIdleWakeups());

    // Dependency analysis, stage by stage.
    analysis::DepGraphOptions go;
    go.threads = threads;
    const analysis::DepGraph graph =
        spans.time("depgraph.build_ms", [&] { return analysis::buildDepGraph(view, go); });
    analysis::DepAnalysis dep;
    dep.processCount = graph.processCount;
    dep.graphStats = graph.stats;
    dep.criticalPath = spans.time(
        "depgraph.path_ms", [&] { return analysis::extractCriticalPath(graph); });
    spans.time("depgraph.detect_ms", [&] {
      dep.serialization = analysis::detectSerialization(graph, dep.criticalPath);
      dep.idleWaves = analysis::detectIdleWaves(graph);
    });
    spans.count("depgraph.matched_messages",
                static_cast<double>(graph.stats.matchedPairs));
    spans.count("depgraph.unmatched",
                static_cast<double>(graph.stats.unmatchedSends +
                                    graph.stats.unmatchedRecvs));

    // Report rendering; each must match the 1-thread eager reference.
    std::string analyzeText, lintText, depText;
    spans.time("export.analyze_ms",
               [&] { analyzeText = analysis::formatAnalysis(view, result); });
    spans.time("export.lint_ms", [&] { lintText = lint::formatLintReport(*lintN); });
    spans.time("export.critpath_ms",
               [&] { depText = analysis::formatDepAnalysis(view, dep); });
    spans.checks.check(analyzeText == refAnalyze, "formatAnalysis differs from the reference");
    spans.checks.check(lintText == refLint, "formatLintReport differs from the reference");
    spans.checks.check(depText == refCritpath, "formatDepAnalysis differs from the reference");

    // Lazy shard cache, per command on a fresh view, on the first two
    // repetitions. At 1 thread the ranks are pinned in a fixed order, so
    // the decode count is exact and must repeat. At nproc threads the
    // workers reach the shared LRU in the order the scheduler gives, and a
    // same-rank race keeps one decode and counts the other as a hit (see
    // LazyV2Backend::rank), so there only the number of lookups, decodes
    // plus hits, must equal the 1-thread run's.
    if (rep < 2) {
      double hits = 0, decodes = 0, peak = 0;
      for (const std::string command : {"analyze", "lint", "critpath"}) {
        const trace::TraceViewStats serial = lazyCommandStats(path, vo, command, 1);
        const trace::TraceViewStats parallel = lazyCommandStats(path, vo, command, threads);
        spans.count("trace.shard_decodes." + command,
                    static_cast<double>(serial.shardDecodes));
        spans.count("trace.shard_lookups." + command,
                    static_cast<double>(serial.shardDecodes + serial.shardHits));
        spans.count("trace.shard_lookups." + command,
                    static_cast<double>(parallel.shardDecodes + parallel.shardHits));
        hits += static_cast<double>(serial.shardHits);
        decodes += static_cast<double>(serial.shardDecodes);
        peak = std::max({peak, static_cast<double>(serial.peakResidentBytes),
                         static_cast<double>(parallel.peakResidentBytes)});
      }
      // The peak may depend on how the workers interleave, so it is
      // reported, not compared.
      hitRatio = hits / std::max(1.0, hits + decodes);
      peakResidentMib = std::max(peakResidentMib, peak / (1024.0 * 1024.0));
    }

    // Streaming SOS and the daemon's request handler, in process, on the
    // streamed input: its cost grows with the stream, not with the batch
    // input, so the first two repetitions suffice.
    if (rep < 2) {
      analysis::StreamingOptions so;
      so.alertThreshold = kAlertThreshold;
      so.warmupSegments = kAlertWarmup;
      analysis::StreamingSos streaming(
          *stream, *stream->functions.find(spec.segmentFunction), so);
      std::size_t alerts = 0;
      streaming.setAlertCallback([&](const analysis::StreamingAlert&) { ++alerts; });
      spans.time("streaming.replay_ms",
                 [&] { analysis::StreamingSos::replay(*stream, streaming); });
      spans.count("streaming.segments",
                  static_cast<double>(streaming.segmentsCompleted()));
      spans.count("streaming.alerts", static_cast<double>(alerts));

      const fs::path journal = dir / ("journal-layers-" + std::to_string(rep));
      fs::remove_all(journal);
      fs::create_directories(journal);
      const std::vector<double> us =
          serviceHandle(spec, images, journal, spans);
      handleUs.insert(handleUs.end(), us.begin(), us.end());
      fs::remove_all(journal);
    }
  }
  spans.checks.check(spans.countOf("streaming.segments") == static_cast<double>(spec.segments),
              "streaming segments differ from the chunked reference");
  const auto alerts = static_cast<double>(spec.alerts.size());
  spans.checks.check(spans.countOf("streaming.alerts") == alerts &&
                  spans.countOf("server.alert_frames") == alerts,
              "streaming alerts differ from the chunked reference");

  JsonObject out;
  const auto put = [&](const std::string& name) { out.num(name, spans.med(name)); };
  const auto putCount = [&](const std::string& name) {
    out.num(name, spans.countOf(name));
  };
  for (const char* name :
       {"trace.load_ms", "trace.open_lazy_ms", "profile.ms_1t", "profile.ms",
        "dominant.ms", "sos.ms_1t", "variation.ms_1t", "sos_variation.ms",
        "depgraph.build_ms", "depgraph.path_ms", "depgraph.detect_ms",
        "lint.ms_1t", "lint.ms", "export.analyze_ms"}) {
    put(name);
  }
  out.num("trace.load_mev_s", events / spans.med("trace.load_ms") / 1000.0);
  out.num("trace.shard_hit_ratio", hitRatio);
  out.num("trace.peak_resident_mib", peakResidentMib);
  out.num("export.ms", spans.med("export.analyze_ms") + spans.med("export.lint_ms") +
                           spans.med("export.critpath_ms"));
  for (const char* name :
       {"trace.shard_decodes.analyze", "trace.shard_decodes.lint",
        "trace.shard_decodes.critpath", "depgraph.matched_messages",
        "depgraph.unmatched", "lint.findings", "streaming.segments",
        "streaming.alerts", "server.error_frames"}) {
    putCount(name);
  }
  const double reps = static_cast<double>(rep);
  out.num("pool.chunks", chunks / reps);
  out.num("pool.stolen", stolen / reps);
  out.num("pool.idle_wakeups", idle / reps);
  out.num("streaming.mev_s", static_cast<double>(stream->eventCount()) /
                                spans.med("streaming.replay_ms") / 1000.0);
  out.num("server.handle_us", median(handleUs));
  out.num("reps", reps);
  spans.checks.render(out);
  std::cout << out.render() << std::endl;
  return 0;
}

// ---- command line ----------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;
  std::string get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::runtime_error("missing --" + key);
    }
    return it->second;
  }
  bool flag(const std::string& key) const { return values.count(key) > 0; }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfvar_bench_harness setup|generate|stream|layers [--key value]...\n";
    return 2;
  }
  const std::string mode = argv[1];
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument '" << key << "'\n";
      return 2;
    }
    key.erase(0, 2);
    if (key == "lazy") {
      args.values[key] = "1";
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      std::cerr << "--" << key << " expects a value\n";
      return 2;
    }
  }
  try {
    if (mode == "setup") {
      return runSetup(args.get("workload"), std::stoull(args.get("seed")), args.get("dir"));
    }
    if (mode == "generate") {
      return runGenerate(args.get("workload"), std::stoull(args.get("seed")), args.get("dir"));
    }
    if (mode == "stream") {
      return runStream(args.get("dir"), args.get("socket"));
    }
    if (mode == "layers") {
      return runLayers(args.get("dir"), std::stod(args.get("seconds")), args.flag("lazy"));
    }
    std::cerr << "unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfvar_bench_harness: " << e.what() << '\n';
    return 1;
  }
}
