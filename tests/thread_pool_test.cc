#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fault/fault.h"

namespace xia::util {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }).ok());
    }
    // The destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> seen(kN);
  Status s = pool.ParallelFor(kN, [&seen](size_t i) {
    seen[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsOk) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) {
                return Status::InvalidArgument("never called");
              }).ok());
}

TEST(ThreadPoolTest, FirstErrorBySmallestIndexWins) {
  // Both serial (1 thread) and parallel pools must report the error a
  // serial in-order loop would have reported: the smallest failing index.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    for (int round = 0; round < 10; ++round) {
      Status s = pool.ParallelFor(64, [](size_t i) {
        if (i == 7 || i == 40) {
          return Status::InvalidArgument("boom at " + std::to_string(i));
        }
        return Status::OK();
      });
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.message().find("boom at 7"), std::string::npos) << s;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  Status s = pool.ParallelFor(4, [&](size_t) {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    // A nested ParallelFor from a worker must not deadlock the fixed-size
    // pool: it runs inline on the calling worker.
    return pool.ParallelFor(8, [&inner_total](size_t) {
      inner_total.fetch_add(1);
      return Status::OK();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ThreadPoolTest, ArmedSubmitFaultSurfacesAsCleanStatus) {
  fault::ScopedFaultDisarm cleanup;
  fault::FaultRegistry::Global().Arm(fault::points::kPoolSubmit,
                                     fault::FaultSpec::Probability(1));
  ThreadPool pool(2);
  const Status direct = pool.Submit([] {});
  EXPECT_FALSE(direct.ok());
  EXPECT_NE(direct.message().find("fault injected"), std::string::npos)
      << direct;

  // ParallelFor propagates the dispatch failure instead of hanging or
  // reporting a half-run batch as success.
  std::atomic<int> ran{0};
  const Status batch = pool.ParallelFor(8, [&ran](size_t) {
    ran.fetch_add(1);
    return Status::OK();
  });
  EXPECT_FALSE(batch.ok());
  EXPECT_NE(batch.message().find("fault injected"), std::string::npos)
      << batch;
}

}  // namespace
}  // namespace xia::util
