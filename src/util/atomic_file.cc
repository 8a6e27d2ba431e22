#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xia {

namespace {

namespace fs = std::filesystem;

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::Internal("fsync failed for " + what + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Status FsyncParentDirectory(const std::string& path) {
  fs::path dir = fs::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::OK();  // best-effort
  // Some filesystems refuse fsync on directories; that is not a failure
  // the caller can act on.
  (void)::fsync(fd);
  ::close(fd);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + tmp + " for writing: " +
                            std::strerror(errno));
  }
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = Status::Internal("write failed for " + tmp + ": " +
                                        std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    written += static_cast<size_t>(n);
  }
  if (Status s = FsyncFd(fd, tmp); !s.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + " failed: " +
                            ec.message());
  }
  return FsyncParentDirectory(path);
}

}  // namespace xia
