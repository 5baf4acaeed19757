#include <cstdio>
#include <stdexcept>

#include "bench.h"

namespace pskbench {

int SpanLog::begin(const char* name, int parent, std::uint32_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start = now_s();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span) { spans_[static_cast<std::size_t>(span)].end = now_s(); }

std::vector<double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Children of one parent run one after another on one thread, so their
  // durations never overlap and subtracting them is exact.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name.c_str(),
                 (span.start - origin) * 1e6, (span.end - span.start) * 1e6,
                 span.request, span.parent);
  }
  std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace pskbench
