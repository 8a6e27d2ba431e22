#include "wal/log_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "wal/wire.h"

namespace xia::wal {

namespace fs = std::filesystem;

void AppendFrame(std::string_view payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

FrameParse ParseNextFrame(std::string_view data, size_t* pos,
                          std::string_view* payload, std::string* reason) {
  const std::string_view rest = data.substr(*pos);
  if (rest.size() < 8) {
    if (reason != nullptr) *reason = "truncated frame header";
    return FrameParse::kNeedMore;
  }
  const uint32_t len = LoadLE<uint32_t>(rest.data());
  const uint32_t crc = LoadLE<uint32_t>(rest.data() + 4);
  if (len > kMaxFrameBytes) {
    if (reason != nullptr) *reason = "frame length out of range";
    return FrameParse::kCorrupt;
  }
  if (rest.size() - 8 < len) {
    if (reason != nullptr) *reason = "truncated frame payload";
    return FrameParse::kNeedMore;
  }
  const std::string_view body = rest.substr(8, len);
  if (Crc32(body) != crc) {
    if (reason != nullptr) *reason = "frame crc mismatch";
    return FrameParse::kCorrupt;
  }
  *payload = body;
  *pos += 8 + len;
  return FrameParse::kFrame;
}

Result<ScannedLog> ScanLogFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("WAL file not found: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  ScannedLog scanned;
  if (data.size() < sizeof(kWalMagic)) {
    // A crash can land between file creation and the magic write only if
    // the init itself was torn; salvage nothing, keep nothing.
    scanned.valid_bytes = 0;
    scanned.discarded_bytes = data.size();
    scanned.torn_tail = true;
    scanned.tail_reason = "truncated magic";
    return scanned;
  }
  if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::ParseError(path + " is not a WAL file (bad magic)");
  }

  size_t pos = sizeof(kWalMagic);
  scanned.valid_bytes = pos;
  while (pos < data.size()) {
    std::string_view payload;
    const FrameParse parsed =
        ParseNextFrame(data, &pos, &payload, &scanned.tail_reason);
    if (parsed != FrameParse::kFrame) break;
    scanned.payloads.emplace_back(payload);
    scanned.valid_bytes = pos;
  }
  scanned.discarded_bytes = data.size() - scanned.valid_bytes;
  scanned.torn_tail = scanned.discarded_bytes > 0;
  return scanned;
}

Status InitLogFile(const std::string& path) {
  return WriteFileAtomic(path,
                         std::string_view(kWalMagic, sizeof(kWalMagic)));
}

Status TruncateLogFile(const std::string& path, uint64_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    return Status::Internal("truncate " + path + " failed: " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace xia::wal
