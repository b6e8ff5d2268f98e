#include "spine/spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace spine {

u32 Tracer::intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<u32>(i);
  names_.emplace_back(name);
  return static_cast<u32>(names_.size() - 1);
}

Tracer::Scope::Scope(Tracer& tracer, u32 name)
    : tracer_(&tracer), index_(tracer.spans_.size()) {
  Span s;
  s.name = name;
  s.parent = tracer.open_.empty() ? 0 : static_cast<u32>(tracer.open_.back() + 1);
  s.request = tracer.request_;
  tracer.spans_.push_back(s);
  tracer.open_.push_back(index_);
  // Read the clock last so the bookkeeping above is not charged to the span.
  tracer.spans_[index_].start_ns = wall_ns();
}

Tracer::Scope::~Scope() {
  const u64 end = wall_ns();
  Span& s = tracer_->spans_[index_];
  s.dur_ns = end - s.start_ns;
  tracer_->open_.pop_back();
}

bool write_chrome_trace(const Tracer& tracer, const std::string& track,
                        const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<Span>& spans = tracer.spans();
  const u64 origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perf_spine\"}},\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               track.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Chrome trace timestamps are microseconds; keep the ns fraction.
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"span\":%zu,\"parent\":%u}}",
                 tracer.name(s.name).c_str(), track.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.request), i + 1, s.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

namespace {

/// Nearest rank (1-based) of `pct` in a sample of n, in exact integer
/// arithmetic on tenths of a percent: ceil(pct/100 * n), at least 1.
size_t nearest_rank(double pct, size_t n) {
  const auto tenths = static_cast<size_t>(std::lround(pct * 10.0));
  const size_t rank = (tenths * n + 999) / 1000;
  return rank < 1 ? 1 : rank;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const size_t rank = std::min(nearest_rank(pct, sorted.size()), sorted.size());
  return sorted[rank - 1];
}

double tail_percentile_for(size_t n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (n >= nearest_rank(pct, n) + 10) return pct;
  return 50.0;
}

}  // namespace spine
