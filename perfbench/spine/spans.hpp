// Host-time measurement for the perf spine: a wall clock, an in-memory span
// recorder that writes Chrome trace-event JSON, and the exact percentile
// rule the end-to-end report uses.
//
// Spans are recorded from the benchmark's own code around calls into each
// simulator layer; nothing inside src/ is instrumented. Every span carries
// the request it belongs to and the span that caused it (its parent), and
// all of them stay in memory until write_chrome_trace() runs at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spine {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

inline u64 wall_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// One closed span. `parent` is the index of the enclosing span + 1 (0 =
/// a root span); `request` is the replayed request's global id.
struct Span {
  u32 name = 0;
  u32 parent = 0;
  u64 request = 0;
  u64 start_ns = 0;
  u64 dur_ns = 0;
};

class Tracer {
 public:
  /// Stable small id for a span name (names are few and fixed).
  u32 intern(std::string_view name);
  const std::string& name(u32 id) const { return names_[id]; }
  size_t name_count() const { return names_.size(); }

  /// Request id stamped on every span opened from now on.
  void set_request(u64 request) { request_ = request; }

  /// RAII span: opened at construction, closed at destruction. Spans nest
  /// strictly (LIFO), so the open stack gives each span its parent.
  class Scope {
   public:
    Scope(Tracer& tracer, u32 name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };
  Scope span(u32 name) { return Scope(*this, name); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices of open spans, innermost last
  u64 request_ = 0;
};

/// Write `tracer`'s spans as a Chrome trace-event JSON document (opens in
/// Perfetto / chrome://tracing). All spans go on one track named `track`;
/// each event's args carry its request id, span id and parent span id.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const Tracer& tracer, const std::string& track,
                        const std::string& path);

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct`% of the sample at or below it.
double percentile(const std::vector<double>& sorted, double pct);

/// The tail percentile to report for a sample of `n`: the highest of 99.9,
/// 99, 95, 90, 75 and 50 that has at least ten samples beyond its rank, or
/// 50 when none has. Beyond = n - ceil(pct/100 * n).
double tail_percentile_for(size_t n);

}  // namespace spine
