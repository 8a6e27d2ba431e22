#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace xia::util {

namespace {
thread_local bool tls_on_worker_thread = false;
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  const size_t count = std::max<size_t>(1, threads);
  threads_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  XIA_OBS_GAUGE_SET("xia.util.pool.threads", static_cast<double>(count));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker_thread; }

void ThreadPool::WorkerLoop() {
  tls_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    XIA_OBS_COUNT("xia.util.pool.tasks_completed", 1);
  }
}

Status ThreadPool::Submit(std::function<void()> task) {
  XIA_FAULT_INJECT(fault::points::kPoolSubmit);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("ThreadPool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  XIA_OBS_COUNT("xia.util.pool.tasks_submitted", 1);
  return Status::OK();
}

Status ThreadPool::ParallelFor(size_t n,
                               const std::function<Status(size_t)>& body) {
  if (n == 0) return Status::OK();
  if (thread_count() <= 1 || n < 2 || OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) XIA_RETURN_IF_ERROR(body(i));
    return Status::OK();
  }

  // Shared by the runner tasks. Items are handed out through `next` in
  // ascending order, so when a body fails, every smaller index has been
  // dispatched too; waiting for in-flight items then makes the recorded
  // smallest-index error the one a serial loop would have hit.
  struct Batch {
    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mu;
    std::condition_variable done;
    size_t active = 0;
    Status error = Status::OK();
    size_t error_index = std::numeric_limits<size_t>::max();
  };
  auto batch = std::make_shared<Batch>();

  auto runner = [batch, &body, n] {
    for (;;) {
      if (batch->abort.load(std::memory_order_relaxed)) break;
      const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      Status s = body(i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(batch->mu);
        if (i < batch->error_index) {
          batch->error = std::move(s);
          batch->error_index = i;
        }
        batch->abort.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(batch->mu);
    if (--batch->active == 0) batch->done.notify_all();
  };

  const size_t runners = std::min(thread_count(), n);
  Status submit_error = Status::OK();
  for (size_t r = 0; r < runners; ++r) {
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      ++batch->active;
    }
    Status s = Submit(runner);
    if (!s.ok()) {
      // Dispatch failed: stop the runners already queued, surface the
      // submit failure once they drained (no partially-reported batch).
      {
        std::lock_guard<std::mutex> lock(batch->mu);
        --batch->active;
      }
      batch->abort.store(true, std::memory_order_relaxed);
      submit_error = std::move(s);
      break;
    }
  }

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] { return batch->active == 0; });
  }
  if (!batch->error.ok()) return batch->error;
  return submit_error;
}

}  // namespace xia::util
