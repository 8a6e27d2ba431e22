#include "advisor/dag.h"

#include <bit>
#include <cstdint>

#include "xpath/containment.h"

namespace xia::advisor {

namespace {

// A matrix of bits, one row of words per candidate.
class BitMatrix {
 public:
  BitMatrix(size_t rows, size_t columns)
      : words_((columns + 63) / 64), bits_(rows * words_, 0) {}

  size_t words() const { return words_; }
  uint64_t* row(size_t i) { return bits_.data() + i * words_; }
  const uint64_t* row(size_t i) const { return bits_.data() + i * words_; }
  bool test(size_t i, size_t j) const {
    return (row(i)[j / 64] >> (j % 64)) & 1;
  }
  void set(size_t i, size_t j) { row(i)[j / 64] |= uint64_t{1} << (j % 64); }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

// True when every bit of `a` is set in `b`.
bool Subset(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (a[w] & ~b[w]) return false;
  }
  return true;
}

}  // namespace

std::vector<int> BuildDag(CandidateSet* set) {
  const size_t n = set->candidates.size();
  const size_t basics = set->basic_count;
  for (Candidate& c : set->candidates) {
    c.children.clear();
    c.parents.clear();
  }

  // covered_by[x]: the basic candidates x covers. A general candidate's
  // row is the covered_basics generalization computed; the others are
  // computed here.
  BitMatrix covered_by(n, basics);
  for (size_t i = 0; i < n; ++i) {
    const Candidate& a = (*set)[i];
    if (a.is_general) {
      for (int b : a.covered_basics) covered_by.set(i, static_cast<size_t>(b));
      continue;
    }
    for (size_t j = 0; j < basics; ++j) {
      const Candidate& b = (*set)[j];
      if (i == j || (SameIndexKind(a, b) &&
                     xpath::Covers(a.pattern.path, b.pattern.path))) {
        covered_by.set(i, j);
      }
    }
  }

  // covers[i][j]: candidate i covers candidate j (same kind, i != j). A
  // basic j is a lookup in covered_by. A general j is covered only by a
  // candidate that covers every basic j covers (coverage is transitive),
  // so Covers runs only where that subset test passes.
  BitMatrix covers(n, n);
  for (size_t i = 0; i < n; ++i) {
    const Candidate& a = (*set)[i];
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Candidate& b = (*set)[j];
      if (!SameIndexKind(a, b)) continue;
      const bool covered =
          j < basics ? covered_by.test(i, j)
                     : (!b.is_general || Subset(covered_by.row(j),
                                                covered_by.row(i),
                                                covered_by.words())) &&
                           xpath::Covers(a.pattern.path, b.pattern.path);
      if (covered) covers.set(i, j);
    }
  }

  // strict[i][j]: candidate i strictly covers candidate j. Equivalent
  // patterns: treat the smaller id as the representative covering the
  // other, so the pair still forms a chain rather than disappearing from
  // the DAG. below[j] is the transpose.
  BitMatrix strict(n, n);
  BitMatrix below(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (covers.test(i, j) && (i < j || !covers.test(j, i))) {
        strict.set(i, j);
        below.set(j, i);
      }
    }
  }

  // Transitive reduction: keep edge i->j only if no k with i>k>j, i.e.
  // strict[i] and below[j] share no bit.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row = strict.row(i);
    for (size_t w = 0; w < strict.words(); ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        const uint64_t* column = below.row(j);
        bool immediate = true;
        for (size_t v = 0; v < strict.words() && immediate; ++v) {
          immediate = (row[v] & column[v]) == 0;
        }
        if (immediate) {
          (*set)[i].children.push_back(static_cast<int>(j));
          (*set)[j].parents.push_back(static_cast<int>(i));
        }
      }
    }
  }

  std::vector<int> roots;
  for (const Candidate& c : set->candidates) {
    if (c.parents.empty()) roots.push_back(c.id);
  }
  return roots;
}

}  // namespace xia::advisor
