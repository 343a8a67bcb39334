#ifndef PNW_UTIL_THREAD_POOL_H_
#define PNW_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pnw {

/// A small fixed-size worker pool. K-means training parallelizes its
/// assignment step across this pool (the paper's Fig. 11 compares 1-core vs
/// 4-core training time), and ShardedPnwStore checkpoints and recovers its
/// shards in parallel on one.
///
/// Capability: `mu_` guards the task queue and the idle/shutdown state.
/// Workers and callers only ever hold it for queue manipulation, never
/// while a task body runs.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void Submit(std::function<void()> task) PNW_EXCLUDES(mu_);

  /// Block until every submitted task has finished executing.
  void Wait() PNW_EXCLUDES(mu_);

  /// Run `fn(i)` for i in [0, n) across the pool, blocking until done.
  /// Work is chunked so each worker receives a contiguous range.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      PNW_EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() PNW_EXCLUDES(mu_);

  std::vector<std::thread> threads_;  // immutable after the constructor
  std::queue<std::function<void()>> tasks_ PNW_GUARDED_BY(mu_);
  util::Mutex mu_;
  util::CondVar task_cv_;
  util::CondVar idle_cv_;
  size_t in_flight_ PNW_GUARDED_BY(mu_) = 0;
  bool shutdown_ PNW_GUARDED_BY(mu_) = false;
};

}  // namespace pnw

#endif  // PNW_UTIL_THREAD_POOL_H_
