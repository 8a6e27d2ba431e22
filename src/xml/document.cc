#include "xml/document.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace xia::xml {

namespace {

// A value's size is a 31-bit field and its arena offset a 32-bit one.
constexpr size_t kMaxValueSize = (size_t{1} << 31) - 1;
constexpr size_t kMaxArenaBytes = std::numeric_limits<uint32_t>::max();

}  // namespace

void Document::ShrinkToFit() {
  nodes_.shrink_to_fit();
  if (dead_value_bytes_ > 0) CompactValues();
  values_.shrink_to_fit();
}

NodeIndex Document::AddRoot(std::string_view label) {
  assert(nodes_.empty());
  if (!nodes_.empty()) return kInvalidNode;
  const Tag tag(label);
  Record& r = nodes_.emplace_back();
  r.label = tag.id();
  r.end = 1;
  approx_bytes_ += NodeBytes(tag.size(), 0);
  return 0;
}

NodeIndex Document::AddAttribute(NodeIndex parent, std::string_view name,
                                 std::string_view value) {
  // Build the "@name" spelling in one pre-sized buffer for the intern
  // probe; "@" + string(name) would allocate twice per attribute.
  std::string prefixed;
  prefixed.reserve(name.size() + 1);
  prefixed.push_back('@');
  prefixed.append(name);
  return Append(parent, Tag(prefixed), value, /*attribute=*/true);
}

NodeIndex Document::Append(NodeIndex parent, Tag label,
                           std::string_view value, bool attribute) {
  assert(OnOpenPath(parent) && !is_attribute(parent));
  if (!OnOpenPath(parent) || is_attribute(parent)) return kInvalidNode;
  if (InArena(value)) {
    // Copy first: appending may reallocate the arena under the view.
    const std::string copy(value);
    return Append(parent, label, copy, attribute);
  }
  const NodeIndex idx = static_cast<NodeIndex>(nodes_.size());
  Record& r = nodes_.emplace_back();
  r.label = label.id();
  r.parent = parent;
  r.end = idx + 1;
  r.attribute = attribute;
  AppendValue(&r, value);
  approx_bytes_ += NodeBytes(label.size(), value.size());
  // The new node extends the subtree of every node on its ancestor path.
  for (NodeIndex a = parent; a != kInvalidNode;
       a = nodes_[static_cast<size_t>(a)].parent) {
    nodes_[static_cast<size_t>(a)].end = idx + 1;
  }
  return idx;
}

void Document::AppendValue(Record* r, std::string_view value) {
  // Empty values take no arena position, so no offset can ever point past
  // the arena's end.
  r->value_offset = 0;
  r->value_size = 0;
  if (value.empty()) return;
  if (value.size() > kMaxValueSize ||
      values_.size() + value.size() > kMaxArenaBytes) {
    throw std::length_error("xml document values exceed the arena limit");
  }
  r->value_offset = static_cast<uint32_t>(values_.size());
  r->value_size = static_cast<uint32_t>(value.size());
  values_.append(value);
}

void Document::SetValue(NodeIndex node, std::string_view value) {
  if (InArena(value)) {
    const std::string copy(value);
    SetValue(node, copy);
    return;
  }
  Record& r = nodes_[static_cast<size_t>(node)];
  const size_t old_size = r.value_size;
  approx_bytes_ = approx_bytes_ - old_size + value.size();
  if (value.size() <= old_size) {
    if (value.empty()) {
      r.value_offset = 0;
    } else {
      std::memcpy(values_.data() + r.value_offset, value.data(),
                  value.size());
    }
    r.value_size = static_cast<uint32_t>(value.size());
    dead_value_bytes_ += old_size - value.size();
  } else {
    dead_value_bytes_ += old_size;
    AppendValue(&r, value);
  }
  if (dead_value_bytes_ > values_.size() - dead_value_bytes_) {
    CompactValues();
  }
}

void Document::CompactValues() {
  std::string packed;
  packed.reserve(values_.size() - dead_value_bytes_);
  for (Record& r : nodes_) {
    if (r.value_size == 0) {
      r.value_offset = 0;
      continue;
    }
    const auto offset = static_cast<uint32_t>(packed.size());
    packed.append(values_, r.value_offset, r.value_size);
    r.value_offset = offset;
  }
  values_.swap(packed);
  dead_value_bytes_ = 0;
}

std::vector<Tag> Document::LabelPath(NodeIndex i) const {
  std::vector<Tag> rev;
  for (NodeIndex cur = i; cur != kInvalidNode; cur = parent(cur)) {
    rev.push_back(label(cur));
  }
  return {rev.rbegin(), rev.rend()};
}

std::string Document::LabelPathString(NodeIndex i) const {
  std::string out;
  for (const Tag& label : LabelPath(i)) {
    out += '/';
    out += label.view();
  }
  return out;
}

int Document::Depth(NodeIndex i) const {
  int d = 0;
  for (NodeIndex cur = i; cur != kInvalidNode; cur = parent(cur)) ++d;
  return d;
}

}  // namespace xia::xml
