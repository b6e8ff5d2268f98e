// Basic size/time units used throughout the simulator.
//
// All simulated durations are carried as double nanoseconds (Nanos). The
// simulator is analytic, so sub-nanosecond fractions are meaningful when
// amortizing bandwidth costs over bursts.
#pragma once

#include <cstdint>
#include <string>

namespace toss {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Simulated duration in nanoseconds.
using Nanos = double;

inline constexpr u64 kKiB = 1024;
inline constexpr u64 kMiB = 1024 * kKiB;
inline constexpr u64 kGiB = 1024 * kMiB;

/// Guest physical pages are 4 KiB, matching Firecracker/x86.
inline constexpr u64 kPageSize = 4 * kKiB;

/// Cache line granularity used by the access-cost model.
inline constexpr u64 kCacheLine = 64;

inline constexpr u64 pages_for_bytes(u64 bytes) {
  return (bytes + kPageSize - 1) / kPageSize;
}

inline constexpr u64 bytes_for_pages(u64 pages) { return pages * kPageSize; }

inline constexpr Nanos us(double v) { return v * 1e3; }
inline constexpr Nanos ms(double v) { return v * 1e6; }
inline constexpr Nanos sec(double v) { return v * 1e9; }

inline constexpr double to_ms(Nanos v) { return v / 1e6; }
inline constexpr double to_sec(Nanos v) { return v / 1e9; }

/// Render a byte count as a compact human-readable string ("1.5 MiB").
std::string format_bytes(u64 bytes);

/// Render a duration as a compact human-readable string ("3.2 ms").
std::string format_nanos(Nanos t);

}  // namespace toss
