// xia::util::ThreadPool — a fixed-size worker pool for parallel index
// builds: key extraction in PathValueIndex::BuildBulk and the online
// build's scan.
//
// The pool owns `threads` std::threads pulling std::function tasks off a
// single queue. Two entry points:
//
//  * Submit(task)      — fire-and-forget enqueue. Carries the
//    xia.fault.pool.submit injection point so the fault matrix can prove
//    a failed dispatch surfaces as a clean Status.
//  * ParallelFor(n, body) — runs body(0..n-1) across the workers and
//    blocks until every dispatched item finished. Items are handed out
//    through an atomic counter in ascending index order; on a body error
//    the batch stops pulling new items and the error with the smallest
//    index is returned (matching what a serial in-order loop would have
//    reported).
//
// Nested use is safe by construction: ParallelFor called from inside a
// pool worker (OnWorkerThread()) runs the body inline and serially —
// submitting from a worker and waiting would deadlock a fixed-size pool.
// Callers that need deterministic results have workers write into
// disjoint, pre-sized slots and reduce serially in index order afterwards.

#ifndef XIA_UTIL_THREAD_POOL_H_
#define XIA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace xia::util {

class ThreadPool {
 public:
  /// Spawns max(1, threads) workers.
  explicit ThreadPool(size_t threads);
  /// Drains the queue (pending tasks still run) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  /// One worker per hardware thread (>= 1 even when the runtime cannot
  /// tell).
  static size_t DefaultThreadCount();

  /// True on a thread owned by any ThreadPool. Used to run nested
  /// parallel sections inline instead of deadlocking on the queue.
  static bool OnWorkerThread();

  /// Enqueues a task. Fails only on injected faults or shutdown.
  Status Submit(std::function<void()> task);

  /// Runs body(0..n-1) to completion; see the header comment for error
  /// and ordering semantics. Runs inline (serially, in index order) when
  /// the pool has one thread, n < 2, or the caller is a pool worker.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace xia::util

#endif  // XIA_UTIL_THREAD_POOL_H_
