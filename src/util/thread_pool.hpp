#ifndef PERFVAR_UTIL_THREAD_POOL_HPP
#define PERFVAR_UTIL_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// Fixed-size fork-join pool used by the parallel analysis stages.
///
/// runChunks(n, body) is the only way to run work on it: index i of
/// [0, n) is chunk i, the chunk space is cut into one contiguous shard per
/// worker, each worker claims batches from its own shard with a single
/// atomic fetch_add and steals quarter-batches from the other shards once
/// its own runs dry, so tail ranks of a skewed trace do not leave the rest
/// of the pool idle. The calling thread publishes the batch and waits; it
/// runs no chunk itself, so a pool of N threads means N workers.
///
/// The pool serializes its own batches: concurrent callers queue up, and
/// each gets its own completion and its own first exception. A runChunks
/// issued from a chunk body on a worker of the same pool throws
/// perfvar::Error instead of deadlocking.
///
/// Determinism contract: chunk boundaries depend only on n — never on the
/// thread count, the batch size, or which worker ran a chunk. Callers keep
/// results bit-identical by writing only disjoint per-chunk output slots;
/// the scheduler only changes *who* runs a chunk and *when*.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfvar::util {

/// Per-worker scheduler counters, snapshot via ThreadPool::stats().
struct ThreadPoolStats {
  struct Worker {
    std::uint64_t chunksRun = 0;     ///< chunks executed via runChunks
    std::uint64_t chunksStolen = 0;  ///< subset of chunksRun from other shards
    std::uint64_t idleWakeups = 0;   ///< condvar wakeups with no work ready
  };
  std::vector<Worker> workers;

  std::uint64_t totalChunks() const;
  std::uint64_t totalStolen() const;
  std::uint64_t totalIdleWakeups() const;
};

/// Multi-line human-readable rendering (one header line + one line per
/// worker), used by `trace_tool --verbose --threads N`.
std::string formatThreadPoolStats(const ThreadPoolStats& stats);

/// Fixed-size pool running one batch of chunks at a time, with work
/// stealing and exception propagation.
class ThreadPool {
public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least one).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers. No runChunks may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Run body(i, i + 1) for every i in [0, n) across the workers and block
  /// until all chunks finished. With one worker or n == 1 the body runs
  /// inline as body(0, n). If chunk bodies throw, the remaining chunks
  /// still run and the first exception is rethrown to this caller.
  /// Throws perfvar::Error when called from a chunk body of this pool.
  void runChunks(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body);

  /// Snapshot of the per-worker scheduler counters since construction or
  /// the last resetStats(). Safe to call concurrently with running work
  /// (counters are relaxed atomics; a snapshot taken mid-batch may be a
  /// few chunks behind).
  ThreadPoolStats stats() const;
  void resetStats();

  /// Number of worker threads a `threads` option value resolves to:
  /// 0 = hardware concurrency, clamped to at least 1.
  static std::size_t resolveThreadCount(std::size_t threads);

private:
  struct ChunkRun;

  /// One cache line per worker so counter updates never false-share.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> chunksRun{0};
    std::atomic<std::uint64_t> chunksStolen{0};
    std::atomic<std::uint64_t> idleWakeups{0};
  };

  void workerLoop(std::size_t self);
  void runShards(ChunkRun& run, std::size_t self);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerCounters[]> counters_;
  /// Held by a caller for its whole batch: one ChunkRun at a time.
  std::mutex batchMutex_;
  /// Guards run_, generation_, stop_ and the published run's pending
  /// count and error.
  std::mutex mutex_;
  std::condition_variable workReady_;
  std::condition_variable runDone_;
  ChunkRun* run_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped once per published batch
  bool stop_ = false;
};

/// Run body(begin, end) over [0, n): inline as body(0, n) with a null
/// pool, else via pool->runChunks (one index per chunk).
void parallelChunks(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

/// The pool an entry point with a `threads` option runs on: the caller's
/// `external` pool when given; otherwise, for threads != 1, a pool of
/// `threads` workers (0 = hardware concurrency) that lives as long as this
/// object; otherwise none, so parallelChunks runs every chunk inline.
class PoolScope {
public:
  PoolScope(ThreadPool* external, std::size_t threads);

  ThreadPool* get() const { return pool_; }

private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace perfvar::util

#endif  // PERFVAR_UTIL_THREAD_POOL_HPP
