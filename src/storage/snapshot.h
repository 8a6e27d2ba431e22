// Binary snapshots of a DocumentStore.
//
// The CLI tools re-parse XML trees on every invocation; a snapshot
// round-trips the whole store through one flat file instead. The format
// preserves DocIds exactly — including dead slots left by deletions — so
// index RIDs built against the original store remain meaningful against a
// reloaded one.
//
// Layout (all integers little-endian):
//   "XIASNAP2"                          magic + version
//   u32 collection_count
//   per collection, a CRC-framed section:
//     u32 payload_len
//     payload                           (the collection body below)
//     u32 crc32(payload)                (IEEE CRC-32, zlib variant)
// collection body:
//   str  name
//   u32  slot_count                     (id_bound: live + dead slots)
//   per slot: u8 live; if live:
//     u32 node_count
//     per node: u8 kind; str label; str value; i32 parent
// where str = u32 length + bytes.
//
// The per-section CRC turns any single bit flip or truncation into a
// precise kDataLoss/kParseError status instead of silently corrupt data.
// Any other magic is rejected. Loading always parses into a staging store
// and swaps on success, so a failed load never partially mutates the
// caller's store.

#ifndef XIA_STORAGE_SNAPSHOT_H_
#define XIA_STORAGE_SNAPSHOT_H_

#include <iosfwd>
#include <string>

#include "storage/document_store.h"
#include "util/status.h"

namespace xia::storage {

/// Serializes every collection of `store` to `out`.
Status SaveSnapshot(const DocumentStore& store, std::ostream& out);

/// Convenience: save to a file path.
Status SaveSnapshotToFile(const DocumentStore& store,
                          const std::string& path);

/// Restores a snapshot into `store`, which must be empty (no collections).
/// DocIds, including gaps from deleted documents, are reproduced exactly.
Status LoadSnapshot(std::istream& in, DocumentStore* store);

/// Convenience: load from a file path.
Status LoadSnapshotFromFile(const std::string& path, DocumentStore* store);

}  // namespace xia::storage

#endif  // XIA_STORAGE_SNAPSHOT_H_
