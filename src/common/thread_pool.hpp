// A small fixed-size thread pool plus a blocking parallel_for.
//
// This pool is the library's only parallel runtime: the linalg kernels run
// serially inside its lanes. It carries the embarrassingly parallel sub-tree
// updates of I-mrDMD (paper Sec. III-A.1) and the asynchronous stale-level
// recomputation behind `recompute_on_drift`.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace imrdmd {

/// Fixed-size worker pool with a FIFO queue.
///
/// Tasks must not block on other tasks in the same pool (no nested waiting);
/// parallel_for below partitions work up-front so it never violates this.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it finishes (or rethrows).
  std::future<void> submit(std::function<void()> task);

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Blocks until every task submitted so far has completed.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Process-wide pool shared by library components. Lazily constructed and
/// intentionally never destroyed (a leaked singleton): joining the workers
/// during static destruction would race — or block exit behind — any
/// thread still using the pool at exit (e.g. a serve::AsyncSink worker or
/// an AssessorService tenant). Pools a caller owns (AssessorConfig::pool)
/// still drain and join normally in ~ThreadPool.
ThreadPool& global_pool();

/// Waits for every future, then rethrows the first captured exception (if
/// any). Use this instead of a get()-in-a-loop when the tasks reference
/// caller state: packaged_task futures do not block on destruction, so
/// rethrowing at the first failure would unwind the referenced stack while
/// later tasks are still queued or running.
void wait_all(std::vector<std::future<void>>& futures);

/// Runs fn(i) for i in [begin, end) across `pool` (or the global pool when
/// null), blocking until complete. Exceptions from any chunk are rethrown.
/// `grain` is the minimum indices per chunk.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 1);

/// Runs fn(lane) for lane in [0, lanes): on the caller thread when lanes
/// <= 1 (so the callee may legally fan out onto the pool itself),
/// otherwise as one task per lane on `pool` (or the global pool when
/// null), waiting for EVERY lane before returning or unwinding — lane
/// functions typically hold references to caller stack state (wait_all
/// discipline). This is the fleet drivers' worker-lane dispatch: lane l
/// owns items l, l + lanes, l + 2*lanes, ... by convention of its fn.
void run_lanes(std::size_t lanes, const std::function<void(std::size_t)>& fn,
               ThreadPool* pool = nullptr);

}  // namespace imrdmd
