#include "xml/tag.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace xia::xml {

namespace {

struct Pool {
  std::shared_mutex mu;
  // Entry i has id i. A deque never moves its elements on push_back, so
  // entry addresses (and the views `index` keys on) stay valid; a probe
  // never allocates on hit.
  std::deque<Tag::Entry> entries;
  std::unordered_map<std::string_view, const Tag::Entry*> index;
  // Entries by id, for FromId without the lock. An entry is stored before
  // its id is handed out, so a reader holding an id finds it. The table
  // grows by doubling into a new array published with a release store;
  // older arrays stay allocated (a reader may still be indexing one) and
  // stay reachable through `tables`.
  std::atomic<const Tag::Entry* const*> by_id{nullptr};
  std::vector<std::unique_ptr<const Tag::Entry*[]>> tables;
  size_t by_id_capacity = 0;
};

Pool& GlobalPool() {
  static Pool* pool = new Pool();  // never destroyed: Tags outlive main()
  return *pool;
}

}  // namespace

const Tag::Entry* Tag::EmptyEntry() {
  static const Entry* empty = Intern("");
  return empty;
}

namespace {

// Per-thread direct-mapped memo in front of the shared pool: data-centric
// XML reuses a tiny label vocabulary, so nearly every probe hits here and
// skips both the pool's lock and its hash-table walk. Pool pointers stay
// valid forever (interned strings are never freed), so entries need no
// invalidation — a colliding label just overwrites the slot.
// Trivially constructible on purpose: a thread_local array of a type
// with default member initializers would pay a TLS init-guard check on
// every probe; zero-initialized trivial TLS is a direct offset access.
struct MemoEntry {
  size_t hash;
  const Tag::Entry* interned;
};
static_assert(std::is_trivially_constructible_v<MemoEntry>);
constexpr size_t kMemoSlots = 256;  // power of two

}  // namespace

const Tag::Entry* Tag::Intern(std::string_view text) {
  static thread_local std::array<MemoEntry, kMemoSlots> memo;
  const size_t hash = std::hash<std::string_view>{}(text);
  MemoEntry& slot = memo[hash & (kMemoSlots - 1)];
  if (slot.interned != nullptr && slot.hash == hash &&
      slot.interned->text == text) {
    return slot.interned;
  }

  Pool& pool = GlobalPool();
  const Entry* interned = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(pool.mu);
    auto it = pool.index.find(text);
    if (it != pool.index.end()) interned = it->second;
  }
  if (interned == nullptr) {
    std::unique_lock<std::shared_mutex> lock(pool.mu);
    auto it = pool.index.find(text);  // another thread may have won the race
    if (it != pool.index.end()) {
      interned = it->second;
    } else {
      const size_t id = pool.entries.size();
      pool.entries.push_back({std::string(text), static_cast<uint32_t>(id)});
      const Entry& entry = pool.entries.back();
      pool.index.emplace(entry.text, &entry);
      if (id == pool.by_id_capacity) {
        const size_t capacity = std::max<size_t>(64, 2 * id);
        auto grown = std::make_unique<const Entry*[]>(capacity);
        std::copy_n(pool.by_id.load(std::memory_order_relaxed), id,
                    grown.get());
        pool.by_id.store(grown.get(), std::memory_order_release);
        pool.tables.push_back(std::move(grown));
        pool.by_id_capacity = capacity;
      }
      pool.tables.back()[id] = &entry;
      interned = &entry;
    }
  }
  slot = {hash, interned};
  return interned;
}

Tag Tag::FromId(uint32_t id) {
  return Tag(GlobalPool().by_id.load(std::memory_order_acquire)[id]);
}

size_t Tag::PoolSize() {
  Pool& pool = GlobalPool();
  std::shared_lock<std::shared_mutex> lock(pool.mu);
  return pool.entries.size();
}

std::ostream& operator<<(std::ostream& os, const Tag& tag) {
  return os << tag.str();
}

}  // namespace xia::xml
