#ifndef DIAL_UTIL_THREAD_POOL_H_
#define DIAL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file
/// A small fixed-size worker pool plus a `ParallelFor` helper used for
/// per-example training tapes, the inference engine's fan-out and batched
/// index probes. All callers also work with `num_threads == 0` (inline
/// execution) and give bit-identical results either way.

namespace dial::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means every Submit
  /// runs inline on the caller thread (useful for deterministic tests).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns immediately (or runs inline if no workers).
  void Submit(std::function<void()> fn);

  /// Blocks until the pool is fully drained (no queued or running tasks from
  /// *any* submitter). Only meaningful for a caller that owns all outstanding
  /// work — with concurrent submitters this waits on strangers' tasks and may
  /// never return if the pool never goes idle. `ParallelFor` therefore uses a
  /// per-call completion latch instead of this.
  void Wait();

  /// True when the calling thread is one of this pool's workers. Used by
  /// `ParallelFor` to degrade to inline execution on nested calls — a worker
  /// that Submit()s subtasks and then Wait()s would deadlock once every
  /// worker is parked in Wait().
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Splits [0, n) into contiguous chunks and runs `fn(begin, end)` on the
/// pool; blocks until complete. Runs inline with a null pool, with fewer
/// than two workers, or when called from one of the pool's own workers
/// (nested data-parallelism degrades gracefully instead of deadlocking).
/// Chunk boundaries never change results for callers whose iterations are
/// independent, which is what the index layer's determinism guarantee
/// (threaded Search bit-identical to inline) rests on.
///
/// Safe with concurrent submitters: completion is tracked by a per-call
/// latch, so each caller returns exactly when its own chunks finish, even
/// while other threads keep the pool busy.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace dial::util

#endif  // DIAL_UTIL_THREAD_POOL_H_
