// Per-process scratch directories for tests that write files.
//
// Every directory lives under one root named after the process id, so
// concurrent runs of the same test binary (the plain and sanitizer builds
// under a parallel ctest) never share files. The root is removed after the
// last test of the binary.

#ifndef XIA_TESTS_SCRATCH_DIR_H_
#define XIA_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace xia::testutil {

/// Root of this process's scratch directories.
inline std::string ScratchRoot() {
  return ::testing::TempDir() + "/xia_test_" + std::to_string(::getpid());
}

/// A fresh, empty directory `name` under the scratch root.
inline std::string ScratchDir(const std::string& name) {
  const std::string dir = ScratchRoot() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(ScratchRoot()); }
};

inline ::testing::Environment* const kScratchCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

}  // namespace xia::testutil

#endif  // XIA_TESTS_SCRATCH_DIR_H_
