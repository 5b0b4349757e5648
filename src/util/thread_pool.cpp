#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "util/error.hpp"

namespace perfvar::util {

namespace {

/// The pool the current thread is a worker of (null elsewhere); a
/// runChunks on that pool from a chunk body would wait for itself.
thread_local const ThreadPool* tlsOwnPool = nullptr;

}  // namespace

std::uint64_t ThreadPoolStats::totalChunks() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.chunksRun;
  return total;
}

std::uint64_t ThreadPoolStats::totalStolen() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.chunksStolen;
  return total;
}

std::uint64_t ThreadPoolStats::totalIdleWakeups() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.idleWakeups;
  return total;
}

std::string formatThreadPoolStats(const ThreadPoolStats& stats) {
  std::ostringstream os;
  os << "thread pool: " << stats.workers.size()
     << " workers, chunks=" << stats.totalChunks()
     << " stolen=" << stats.totalStolen()
     << " idle-wakeups=" << stats.totalIdleWakeups() << '\n';
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const ThreadPoolStats::Worker& w = stats.workers[i];
    os << "  worker " << i << ": chunks=" << w.chunksRun
       << " stolen=" << w.chunksStolen << " idle-wakeups=" << w.idleWakeups
       << '\n';
  }
  return os.str();
}

std::size_t ThreadPool::resolveThreadCount(std::size_t threads) {
  if (threads == 0) {
    threads = static_cast<std::size_t>(std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, threads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolveThreadCount(threads);
  counters_ = std::make_unique<WorkerCounters[]>(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  workReady_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

/// One runChunks batch. Lives on the caller's stack: the caller returns
/// only after every worker has left the run (pending == 0, observed under
/// the pool mutex), so the workers' pointer never dangles.
struct ThreadPool::ChunkRun {
  /// One contiguous slice of the chunk index space, owned by one worker.
  /// Claims are a single fetch_add on `next`; a cursor past `end` just
  /// means the shard is drained (overshoot is bounded by the batch size
  /// times the number of failed claims, far from wrapping).
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t batch = 1;
  std::size_t stealBatch = 1;
  // Raw array: Shard holds an atomic, so vector growth is ill-formed.
  std::unique_ptr<Shard[]> shards;
  std::size_t shardCount = 0;
  std::size_t pending = 0;  ///< workers not yet done with this run
  std::exception_ptr error;  ///< first exception of this run
};

void ThreadPool::workerLoop(std::size_t self) {
  tlsOwnPool = this;
  WorkerCounters& counters = counters_[self];
  // Every worker takes part in every run, and a run completes only when
  // all have left it, so the generation advances by exactly one between
  // two runs this worker sees.
  std::uint64_t seen = 0;
  for (;;) {
    ChunkRun* run = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Hand-rolled predicate loop so spurious wakeups are countable.
      while (!stop_ && generation_ == seen) {
        workReady_.wait(lock);
        if (!stop_ && generation_ == seen) {
          counters.idleWakeups.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (stop_) {
        return;
      }
      seen = generation_;
      run = run_;
    }
    runShards(*run, self);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--run->pending == 0) {
      runDone_.notify_one();
    }
  }
}

void ThreadPool::runShards(ChunkRun& run, std::size_t self) {
  WorkerCounters& counters = counters_[self];
  // Drain one shard `step` chunks per claim. Claims on a foreign shard
  // are steals; a worker without a shard of its own (n < threads) only
  // steals.
  const auto drain = [&](ChunkRun::Shard& shard, std::size_t step,
                         bool stolen) {
    for (;;) {
      const std::size_t begin =
          shard.next.fetch_add(step, std::memory_order_relaxed);
      if (begin >= shard.end) {
        return;
      }
      const std::size_t end = std::min(shard.end, begin + step);
      for (std::size_t c = begin; c < end; ++c) {
        try {
          (*run.body)(c, c + 1);
        } catch (...) {
          // Record the first error, keep running the remaining chunks.
          std::lock_guard<std::mutex> lock(mutex_);
          if (!run.error) {
            run.error = std::current_exception();
          }
        }
      }
      counters.chunksRun.fetch_add(end - begin, std::memory_order_relaxed);
      if (stolen) {
        counters.chunksStolen.fetch_add(end - begin,
                                        std::memory_order_relaxed);
      }
    }
  };
  const bool owner = self < run.shardCount;
  const std::size_t home = self % run.shardCount;
  for (std::size_t k = 0; k < run.shardCount; ++k) {
    const bool stolen = k > 0 || !owner;
    drain(run.shards[(home + k) % run.shardCount],
          stolen ? run.stealBatch : run.batch, stolen);
  }
}

void ThreadPool::runChunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  PERFVAR_REQUIRE(body != nullptr, "runChunks needs a body");
  PERFVAR_REQUIRE(tlsOwnPool != this,
                  "runChunks called from a chunk body of the same pool "
                  "(nested parallelism would deadlock)");
  if (n == 0) {
    return;
  }
  if (threadCount() <= 1 || n == 1) {
    body(0, n);
    return;
  }

  ChunkRun run;
  run.body = &body;
  const std::size_t shards = std::min(threadCount(), n);
  run.batch = std::clamp<std::size_t>(n / (shards * 16), 1, 32);
  run.stealBatch = std::max<std::size_t>(1, run.batch / 4);
  // Static contiguous partition of the chunk space: shard s owns
  // [s*per + min(s, rem), ...) — a function of n and the worker count only.
  run.shards = std::make_unique<ChunkRun::Shard[]>(shards);
  run.shardCount = shards;
  const std::size_t per = n / shards;
  const std::size_t rem = n % shards;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    run.shards[s].next.store(cursor, std::memory_order_relaxed);
    cursor += per + (s < rem ? 1 : 0);
    run.shards[s].end = cursor;
  }

  const std::lock_guard<std::mutex> batch(batchMutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  run.pending = threadCount();
  run_ = &run;
  ++generation_;
  workReady_.notify_all();
  runDone_.wait(lock, [&run] { return run.pending == 0; });
  run_ = nullptr;
  if (run.error) {
    std::rethrow_exception(run.error);
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  out.workers.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerCounters& c = counters_[i];
    out.workers[i].chunksRun = c.chunksRun.load(std::memory_order_relaxed);
    out.workers[i].chunksStolen =
        c.chunksStolen.load(std::memory_order_relaxed);
    out.workers[i].idleWakeups =
        c.idleWakeups.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::resetStats() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerCounters& c = counters_[i];
    c.chunksRun.store(0, std::memory_order_relaxed);
    c.chunksStolen.store(0, std::memory_order_relaxed);
    c.idleWakeups.store(0, std::memory_order_relaxed);
  }
}

void parallelChunks(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  PERFVAR_REQUIRE(body != nullptr, "parallelChunks needs a body");
  if (pool != nullptr) {
    pool->runChunks(n, body);
  } else if (n > 0) {
    body(0, n);
  }
}

PoolScope::PoolScope(ThreadPool* external, std::size_t threads)
    : owned_(external == nullptr && threads != 1
                 ? std::make_unique<ThreadPool>(threads)
                 : nullptr),
      pool_(external != nullptr ? external : owned_.get()) {}

}  // namespace perfvar::util
