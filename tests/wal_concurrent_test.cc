// Concurrency tests for the WAL writer's group commit: many threads
// appending and committing simultaneously must all become durable, with
// no torn interleaving in the on-disk frame stream. Runs under the
// xia_tsan_build gate as well as the default suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "scratch_dir.h"
#include "wal/log_file.h"
#include "wal/record.h"
#include "wal/writer.h"

namespace xia::wal {
namespace {

using testutil::ScratchDir;

void HammerWriter(FsyncPolicy policy, int threads, int per_thread) {
  const std::string dir =
      ScratchDir(std::string("hammer_") + FsyncPolicyName(policy));
  const std::string path = dir + "/wal.log";
  ASSERT_TRUE(InitLogFile(path).ok());

  WalWriterOptions options;
  options.policy = policy;
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(path, 1).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        auto lsn = writer.Append(WalRecord::Insert(
            "C", "<t><id>" + std::to_string(t * per_thread + i) +
                     "</id></t>"));
        if (!lsn.ok() || !writer.Commit(*lsn).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  // Every record must be on disk exactly once, with a dense LSN range —
  // group commit may batch arbitrarily but can never drop or duplicate.
  auto scanned = ScanLogFile(path);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_FALSE(scanned->torn_tail) << scanned->tail_reason;
  const size_t total = static_cast<size_t>(threads) * per_thread;
  ASSERT_EQ(scanned->payloads.size(), total);
  std::set<uint64_t> lsns;
  for (const std::string& payload : scanned->payloads) {
    auto record = DecodeRecord(payload);
    ASSERT_TRUE(record.ok()) << record.status();
    lsns.insert(record->lsn);
  }
  EXPECT_EQ(lsns.size(), total);
  EXPECT_EQ(*lsns.begin(), 1u);
  EXPECT_EQ(*lsns.rbegin(), total);
  if (policy == FsyncPolicy::kOff) {
    EXPECT_EQ(writer.durable_lsn(), 0u);  // kOff never fsyncs, by design
  } else {
    EXPECT_EQ(writer.durable_lsn(), total);
  }
}

TEST(WalConcurrentTest, GroupCommitAlwaysPolicy) {
  HammerWriter(FsyncPolicy::kAlways, 8, 50);
}

TEST(WalConcurrentTest, GroupCommitIntervalPolicy) {
  HammerWriter(FsyncPolicy::kInterval, 8, 200);
}

TEST(WalConcurrentTest, GroupCommitOffPolicy) {
  HammerWriter(FsyncPolicy::kOff, 8, 200);
}

TEST(WalConcurrentTest, ConcurrentCommitsBatch) {
  // With many threads racing a slow medium (fsync per batch), at least
  // one flush should carry more than one record. This is probabilistic
  // in principle, but with 16 threads and an fsync-bound leader it is
  // effectively certain; assert on writer accounting rather than the
  // histogram so the test also runs under XIA_OBS_OFF.
  const std::string dir = ScratchDir("batching");
  const std::string path = dir + "/wal.log";
  ASSERT_TRUE(InitLogFile(path).ok());
  WalWriterOptions options;
  options.policy = FsyncPolicy::kAlways;
  WalWriter writer(options);
  ASSERT_TRUE(writer.Open(path, 1).ok());

  constexpr int kThreads = 16;
  constexpr int kPerThread = 25;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = writer.Append(WalRecord::DropIndex("x"));
        ASSERT_TRUE(lsn.ok());
        ASSERT_TRUE(writer.Commit(*lsn).ok());
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(writer.appended_records(), total);
  EXPECT_EQ(writer.durable_lsn(), total);
  // Fewer fsyncs than records == group commit actually grouped.
  EXPECT_LT(writer.fsyncs(), total);
  ASSERT_TRUE(writer.Close().ok());
}

}  // namespace
}  // namespace xia::wal
