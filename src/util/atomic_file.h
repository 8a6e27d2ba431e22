// Crash-safe file replacement: write-to-temp, fsync, rename.
//
// Every XIA persistence format (snapshot, workload save, WAL manifest and
// checkpoint files) replaces files through this helper so a crash mid-save
// can never clobber the previous good copy: the new bytes land in a
// sibling ".tmp" file first, are fsynced, and only then renamed over the
// target (rename(2) is atomic within a filesystem). The containing
// directory is fsynced after the rename so the new directory entry is
// itself durable.

#ifndef XIA_UTIL_ATOMIC_FILE_H_
#define XIA_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace xia {

/// Atomically replaces `path` with `contents`. The temp file is
/// `path + ".tmp"`; a stale temp from an earlier crash is overwritten.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Reads the whole file at `path`; kNotFound when it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

/// fsyncs the directory containing `path` (making a rename durable).
/// Best-effort: filesystems that reject directory fsync are ignored.
Status FsyncParentDirectory(const std::string& path);

}  // namespace xia

#endif  // XIA_UTIL_ATOMIC_FILE_H_
