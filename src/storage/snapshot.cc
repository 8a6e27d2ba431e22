#include "storage/snapshot.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "fault/fault.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "wal/wire.h"

namespace xia::storage {

namespace {

constexpr char kMagicV2[8] = {'X', 'I', 'A', 'S', 'N', 'A', 'P', '2'};

constexpr uint32_t kMaxString = 64u << 20;   // 64 MiB per string
constexpr uint32_t kMaxSection = 1u << 30;   // 1 GiB per collection section

void WriteU32(std::ostream& out, uint32_t v) {
  std::string buf;
  wal::PutU32(&buf, v);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool ReadU32(std::istream& in, uint32_t* v) {
  char buf[4];
  if (!in.read(buf, 4)) return false;
  *v = wal::LoadLE<uint32_t>(buf);
  return true;
}

/// A node as a snapshot stores it, in document (pre-)order. One instance
/// is reused across a whole collection body, so its strings keep their
/// capacity from node to node.
struct SnapshotNode {
  xml::NodeKind kind = xml::NodeKind::kElement;
  std::string label;
  std::string value;
  uint32_t parent = 0;  // the NodeIndex's bits: the root's is -1
};

template <class IO>
bool Fields(IO& io, SnapshotNode& n) {
  return io(n.kind, xml::NodeKind::kAttribute) && io(n.label) &&
         io(n.value) && io(n.parent) && io.Check([&] {
           return n.label.size() <= kMaxString && n.value.size() <= kMaxString;
         });
}

/// Appends one collection body (a v2 section payload): str name, u32
/// slot_count, then per slot u8 live and, if live, u32 node_count +
/// node_count SnapshotNodes.
void WriteCollectionBody(const Collection& coll, std::string* out) {
  wal::Writer w(out);
  w(coll.name());
  const xml::DocId bound = coll.id_bound();
  w(static_cast<uint32_t>(bound));
  SnapshotNode node;
  for (xml::DocId id = 0; id < bound; ++id) {
    w(coll.IsLive(id));
    if (!coll.IsLive(id)) continue;
    const xml::Document& doc = coll.Get(id);
    w(static_cast<uint32_t>(doc.size()));
    for (xml::NodeIndex n = 0; n < static_cast<xml::NodeIndex>(doc.size());
         ++n) {
      node.kind = doc.is_attribute(n) ? xml::NodeKind::kAttribute
                                      : xml::NodeKind::kElement;
      node.label.assign(doc.label(n).view());
      node.value.assign(doc.value(n));
      node.parent = static_cast<uint32_t>(doc.parent(n));
      w(node);
    }
  }
}

/// Parses one collection body (name + slots) from `in` into `store`.
Status ReadCollectionBody(wal::Reader& in, DocumentStore* store) {
  std::string name;
  if (!in(name) || name.empty() || name.size() > kMaxString) {
    return Status::ParseError("bad collection name");
  }
  XIA_ASSIGN_OR_RETURN(Collection * coll, store->CreateCollection(name));
  uint32_t slots = 0;
  if (!in(slots)) return Status::ParseError("bad slot count");
  SnapshotNode node;
  for (uint32_t s = 0; s < slots; ++s) {
    bool live = false;
    if (!in(live)) return Status::ParseError("truncated slot");
    if (!live) {
      coll->AddTombstone();
      continue;
    }
    uint32_t node_count = 0;
    if (!in(node_count)) return Status::ParseError("bad node count");
    xml::Document doc;
    for (uint32_t n = 0; n < node_count; ++n) {
      if (!in(node)) return Status::ParseError("bad node record");
      const auto parent = static_cast<xml::NodeIndex>(node.parent);
      // Nodes are stored in pre-order, so rebuilding in order is valid
      // exactly when each parent is on the document's open path. The
      // first node must be the root.
      if (n == 0) {
        if (parent != xml::kInvalidNode) {
          return Status::ParseError("first node must be the root");
        }
        doc.AddRoot(node.label);
        doc.SetValue(0, node.value);
      } else {
        if (!doc.OnOpenPath(parent)) {
          return Status::ParseError("node parent out of order");
        }
        if (doc.is_attribute(parent)) {
          return Status::ParseError("attribute node with children");
        }
        if (node.kind == xml::NodeKind::kElement) {
          doc.AddElement(parent, node.label, node.value);
        } else {
          if (node.label.empty() || node.label[0] != '@') {
            return Status::ParseError("attribute label must start with @");
          }
          doc.AddAttribute(parent, std::string_view(node.label).substr(1),
                           node.value);
        }
      }
    }
    if (doc.empty()) return Status::ParseError("empty live document");
    coll->Add(std::move(doc));
  }
  return Status::OK();
}

/// The body after the magic: per-collection CRC-framed sections, then EOF.
Status LoadSections(std::istream& in, DocumentStore* staging) {
  uint32_t collections = 0;
  if (!ReadU32(in, &collections)) {
    return Status::ParseError("truncated snapshot header");
  }
  for (uint32_t c = 0; c < collections; ++c) {
    uint32_t len = 0;
    if (!ReadU32(in, &len)) {
      return Status::ParseError("truncated section header");
    }
    if (len > kMaxSection) {
      return Status::ParseError("snapshot section too large");
    }
    std::string payload(len, '\0');
    if (!in.read(payload.data(), static_cast<std::streamsize>(len))) {
      return Status::DataLoss("truncated snapshot section");
    }
    uint32_t stored_crc = 0;
    if (!ReadU32(in, &stored_crc)) {
      return Status::DataLoss("truncated section checksum");
    }
    const uint32_t actual_crc = Crc32(payload);
    if (actual_crc != stored_crc) {
      return Status::DataLoss("snapshot section checksum mismatch");
    }
    wal::Reader body(payload);
    XIA_RETURN_IF_ERROR(ReadCollectionBody(body, staging));
    if (!body.AtEnd()) {
      return Status::ParseError("trailing bytes in snapshot section");
    }
  }
  if (in.peek() != EOF) {
    return Status::ParseError("trailing bytes after snapshot");
  }
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const DocumentStore& store, std::ostream& out) {
  XIA_FAULT_INJECT(fault::points::kSnapshotWrite);
  out.write(kMagicV2, sizeof(kMagicV2));
  const std::vector<std::string> names = store.CollectionNames();
  WriteU32(out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    auto coll = store.GetCollection(name);
    if (!coll.ok()) return coll.status();
    std::string payload;
    WriteCollectionBody(**coll, &payload);
    if (payload.size() > kMaxSection) {
      return Status::ResourceExhausted("collection too large for snapshot: " +
                                       name);
    }
    WriteU32(out, static_cast<uint32_t>(payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    WriteU32(out, Crc32(payload));
  }
  if (!out) return Status::Internal("snapshot write failed");
  return Status::OK();
}

Status SaveSnapshotToFile(const DocumentStore& store,
                          const std::string& path) {
  // Stage-and-rename: a crash mid-save never clobbers the previous good
  // file.
  std::ostringstream out;
  XIA_RETURN_IF_ERROR(SaveSnapshot(store, out));
  return WriteFileAtomic(path, out.str());
}

Status LoadSnapshot(std::istream& in, DocumentStore* store) {
  XIA_FAULT_INJECT(fault::points::kSnapshotRead);
  if (!store->CollectionNames().empty()) {
    return Status::FailedPrecondition(
        "snapshot must be loaded into an empty store");
  }
  char magic[sizeof(kMagicV2)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::ParseError("not a XIA snapshot (bad magic)");
  }
  // All parsing targets a staging store; `store` is swapped in only after
  // the whole stream verified and parsed, so a corrupt snapshot can never
  // leave it partially populated.
  DocumentStore staging;
  XIA_RETURN_IF_ERROR(LoadSections(in, &staging));
  store->Swap(&staging);
  return Status::OK();
}

Status LoadSnapshotFromFile(const std::string& path, DocumentStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot " + path);
  return LoadSnapshot(in, store);
}

}  // namespace xia::storage
