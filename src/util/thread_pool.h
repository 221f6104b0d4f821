#ifndef EXODUS_UTIL_THREAD_POOL_H_
#define EXODUS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace exodus::util {

/// A fixed-size pool of worker threads draining a FIFO job queue.
///
/// Submit() enqueues a job and returns immediately; jobs run on the
/// next free worker in submission order. Shutdown() (also run by the
/// destructor) stops intake, drains every job already queued and joins
/// the workers — in-flight work is never dropped.
///
/// Worker threads are spawned lazily on the first Submit(): a pool
/// that is constructed but never used (every Database owns one for
/// intra-query parallelism, including the hundreds of short-lived
/// Databases the test suite creates) costs nothing but the object.
/// size() reports the configured width either way.
///
/// Callers needing a result pair Submit with a std::promise/future or
/// their own synchronization; the pool itself is fire-and-forget.
class ThreadPool {
 public:
  /// Configures `num_threads` workers (at least one); none start until
  /// the first Submit().
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `job` and returns true; returns false (without enqueuing)
  /// once Shutdown() has begun, so callers waiting on a job's side
  /// effects can fall back instead of blocking forever.
  bool Submit(std::function<void()> job);

  /// Installs a hook invoked on the worker thread with each job's queue
  /// wait (enqueue -> dequeue, nanoseconds) just before the job runs.
  /// Keeps the pool free of any observability dependency: the Database
  /// points this at its wait profile (`thread_pool_queue` wait events).
  /// Set once before the pool is shared across threads; null clears.
  void SetQueueWaitHook(std::function<void(uint64_t wait_ns)> hook);

  /// Drains the queue and joins all workers. Idempotent.
  void Shutdown();

  /// Configured worker count (threads may not have spawned yet).
  size_t size() const { return target_threads_; }

  /// Threads actually running (0 until the first Submit).
  size_t spawned() const;

  /// Jobs currently queued (excluding ones being executed).
  size_t queued() const;

 private:
  void WorkerLoop();
  void SpawnLocked();  // requires mu_ held

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::function<void(uint64_t)> queue_wait_hook_;  // guarded by mu_
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t target_threads_ = 1;
  bool shutting_down_ = false;
};

}  // namespace exodus::util

#endif  // EXODUS_UTIL_THREAD_POOL_H_
