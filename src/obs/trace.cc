#include "obs/trace.h"

#include "util/string_util.h"

namespace xia::obs {

const SpanRecord* Trace::Find(const std::string& name) const {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double Trace::PhaseSeconds() const {
  double total = 0;
  for (const SpanRecord& s : spans) {
    if (s.depth == 0) total += s.seconds;
  }
  return total;
}

uint64_t Trace::PhaseTrackedCalls() const {
  uint64_t total = 0;
  for (const SpanRecord& s : spans) {
    if (s.depth == 0) total += s.tracked_calls;
  }
  return total;
}

std::string Trace::ToString() const {
  std::string out;
  for (const SpanRecord& s : spans) {
    std::string label(static_cast<size_t>(s.depth) * 2, ' ');
    label += s.name;
    out += StringPrintf("%-28s %10.6fs %8llu calls", label.c_str(),
                        s.seconds,
                        static_cast<unsigned long long>(s.tracked_calls));
    if (s.items >= 0) out += StringPrintf("  %g items", s.items);
    out += "\n";
  }
  return out;
}

std::string Trace::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",";
    out += StringPrintf(
        "{\"name\":\"%s\",\"depth\":%d,\"seconds\":%g,\"calls\":%llu",
        s.name.c_str(), s.depth, s.seconds,
        static_cast<unsigned long long>(s.tracked_calls));
    if (s.items >= 0) out += StringPrintf(",\"items\":%g", s.items);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace xia::obs
