// Little-endian wire encoding shared by the WAL record codec, the log
// frame format, the checkpoint manifest/catalog files and the net
// protocol's payloads. All integers are little-endian; strings are u32
// length + bytes — the same conventions as the snapshot format, kept
// byte-compatible so checksums stay portable across platforms.
//
// Every message is declared once, as a field list in wire order:
//
//   template <class IO>
//   bool Fields(IO& io, QueryRequest& m) {
//     return io(m.statement) && io(m.materialize_rows) && io(m.max_rows) &&
//            io(m.budget_ms);
//   }
//
// and the same list drives both directions: a Writer appends each field,
// a Reader parses it with bounds checks. The field encodings, chosen by
// the C++ type of the field:
//
//   uint8_t / uint32_t / uint64_t   that many bytes
//   uint16_t                        a u32 slot; values above 0xffff rejected
//   double                          the u64 of its IEEE-754 bits
//   bool                            one byte; any nonzero byte reads as true
//   StrictBool{b}                   one byte; bytes above 1 are rejected
//   enum, via io(e, kLast)          one byte; values above kLast rejected
//   std::string                     u32 length + bytes
//   std::vector<T>                  u32 count + each element's fields
//   xpath::Path                     u32 step count + (u8 axis, string) per step
//   any other struct                its own Fields() list
//
// A counted vector or path is rejected before anything is allocated when
// its count cannot fit in the bytes left (each element has a fixed
// minimum wire size: 4 for a string, 5 for a path step, the encoding of a
// default-constructed element in general).
//
// io.Check(pred) ends a list whose decoded values must satisfy a check
// across fields (a role name, an epoch floor, a flag combination); only
// the reader evaluates it.
//
// io.Tail(present, fields...) declares optional trailing fields: the
// writer emits them iff present() holds; a reader with no bytes left
// keeps their defaults, otherwise reads them and requires present() to
// hold on the decoded values (a tail the writer would never have written
// is malformed). New fields are only ever added this way, so old
// payloads keep decoding.

#ifndef XIA_WAL_WIRE_H_
#define XIA_WAL_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "xpath/path.h"

namespace xia::wal {

/// Appends `v` as sizeof(U) little-endian bytes.
template <class U>
void PutLE(std::string* out, U v) {
  for (size_t i = 0; i < sizeof(U); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Reads sizeof(U) little-endian bytes at `p` (callers check bounds).
template <class U>
U LoadLE(const char* p) {
  U v = 0;
  for (size_t i = 0; i < sizeof(U); ++i) {
    v |= static_cast<U>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

inline void PutU8(std::string* out, uint8_t v) { PutLE(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLE(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLE(out, v); }

inline void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// A boolean field whose byte must be exactly 0 or 1.
struct StrictBool {
  bool& value;
};

/// Appends fields to a byte string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  bool operator()(uint8_t v) { PutU8(out_, v); return true; }
  bool operator()(uint16_t v) { PutU32(out_, v); return true; }
  bool operator()(uint32_t v) { PutU32(out_, v); return true; }
  bool operator()(uint64_t v) { PutU64(out_, v); return true; }
  bool operator()(double v) { PutF64(out_, v); return true; }
  bool operator()(bool v) { PutU8(out_, v ? 1 : 0); return true; }
  bool operator()(StrictBool b) { return (*this)(b.value); }
  bool operator()(const std::string& s) { PutString(out_, s); return true; }

  template <class E>
  bool operator()(E e, E /*last*/) {
    static_assert(std::is_enum_v<E>);
    PutU8(out_, static_cast<uint8_t>(e));
    return true;
  }

  bool operator()(const xpath::Path& path) {
    PutU32(out_, static_cast<uint32_t>(path.steps().size()));
    for (const xpath::Step& step : path.steps()) {
      PutU8(out_, static_cast<uint8_t>(step.axis));
      PutString(out_, step.name_test.view());
    }
    return true;
  }

  template <class T>
  bool operator()(const std::vector<T>& v) {
    PutU32(out_, static_cast<uint32_t>(v.size()));
    for (const T& e : v) (*this)(e);
    return true;
  }

  /// A nested message: its own field list. Writers never modify it.
  template <class T>
  bool operator()(const T& m) {
    return Fields(*this, const_cast<T&>(m));
  }

  template <class Present, class... T>
  bool Tail(Present present, T&... fields) {
    if (present()) ((*this)(fields), ...);
    return true;
  }

  template <class Pred>
  bool Check(Pred) {
    return true;
  }

 private:
  std::string* out_;
};

/// Bounds-checked cursor over a byte buffer. Every call returns false on
/// underrun or an invalid value and leaves the cursor unspecified
/// (callers bail out).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool operator()(uint8_t& v) { return Int(v); }
  bool operator()(uint32_t& v) { return Int(v); }
  bool operator()(uint64_t& v) { return Int(v); }
  bool operator()(uint16_t& v) {
    uint32_t wide = 0;
    if (!Int(wide) || wide > 0xffff) return false;
    v = static_cast<uint16_t>(wide);
    return true;
  }
  bool operator()(double& v) {
    uint64_t bits = 0;
    if (!(*this)(bits)) return false;
    std::memcpy(&v, &bits, sizeof(bits));
    return true;
  }
  bool operator()(bool& v) {
    uint8_t byte = 0;
    if (!(*this)(byte)) return false;
    v = byte != 0;
    return true;
  }
  bool operator()(StrictBool b) {
    uint8_t byte = 0;
    if (!(*this)(byte) || byte > 1) return false;
    b.value = byte != 0;
    return true;
  }
  bool operator()(std::string& s) {
    uint32_t len = 0;
    if (!(*this)(len) || len > left()) return false;
    s.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  template <class E>
  bool operator()(E& e, E last) {
    static_assert(std::is_enum_v<E>);
    uint8_t byte = 0;
    if (!(*this)(byte) || byte > static_cast<uint8_t>(last)) return false;
    e = static_cast<E>(byte);
    return true;
  }

  /// Steps need a known axis and a non-empty name test.
  bool operator()(xpath::Path& path) {
    constexpr size_t kMinStepBytes = 1 + 4;
    uint32_t count = 0;
    if (!(*this)(count) || count > left() / kMinStepBytes) return false;
    std::vector<xpath::Step> steps;
    steps.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      xpath::Axis axis = xpath::Axis::kChild;
      std::string name;
      if (!(*this)(axis, xpath::Axis::kDescendant) || !(*this)(name) ||
          name.empty()) {
        return false;
      }
      steps.emplace_back(axis, std::move(name));
    }
    path = xpath::Path(std::move(steps));
    return true;
  }

  template <class T>
  bool operator()(std::vector<T>& v) {
    uint32_t count = 0;
    if (!(*this)(count) || count > left() / MinEncodedSize<T>()) return false;
    v.resize(count);
    for (T& e : v) {
      if (!(*this)(e)) return false;
    }
    return true;
  }

  template <class T>
  bool operator()(T& m) {
    return Fields(*this, m);
  }

  template <class Present, class... T>
  bool Tail(Present present, T&... fields) {
    if (AtEnd()) return true;
    return ((*this)(fields) && ...) && present();
  }

  template <class Pred>
  bool Check(Pred valid) {
    return valid();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  size_t left() const { return data_.size() - pos_; }

  template <class U>
  bool Int(U& v) {
    if (left() < sizeof(U)) return false;
    v = LoadLE<U>(data_.data() + pos_);
    pos_ += sizeof(U);
    return true;
  }

  /// Fewest bytes any T can occupy: the encoding of a default T.
  template <class T>
  static size_t MinEncodedSize() {
    static const size_t size = [] {
      std::string out;
      Writer writer(&out);
      writer(T{});
      return out.size();
    }();
    return size;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Encodes `m` through its field list, appending to `out`.
template <class T>
void EncodeTo(const T& m, std::string* out) {
  Writer writer(out);
  writer(m);
}

template <class T>
std::string Encode(const T& m) {
  std::string out;
  EncodeTo(m, &out);
  return out;
}

/// Decodes a whole payload through `m`'s field list; false on underrun,
/// an invalid field or trailing bytes.
template <class T>
bool DecodeAll(std::string_view payload, T* m) {
  Reader in(payload);
  return in(*m) && in.AtEnd();
}

}  // namespace xia::wal

#endif  // XIA_WAL_WIRE_H_
