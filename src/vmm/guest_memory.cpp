#include "vmm/guest_memory.hpp"

#include <utility>

namespace toss {

namespace {

constexpr u64 kFnvOffset = 0xcbf29ce484222325ULL;
constexpr u64 kFnvPrime = 0x100000001b3ULL;
constexpr u64 kFnvPrime4 = kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

/// One page of FNV-1a: the version's four bytes, low byte first.
u64 fold_page(u64 h, u32 version) {
  for (int b = 0; b < 4; ++b) {
    h ^= (version >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// h -> a·h + b (mod 2^64).
struct Affine {
  u64 a = 1;
  u64 b = 0;

  u64 operator()(u64 h) const { return a * h + b; }
  /// This map applied after `first`.
  Affine after(const Affine& first) const {
    return Affine{a * first.a, a * first.b + b};
  }
};

/// `map` applied `n` times, by squaring.
Affine power(Affine map, u64 n) {
  Affine out;
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) out = map.after(out);
    map = map.after(map);
  }
  return out;
}

/// fold_page applied `pages` times at `version`, in O(256 + log pages).
u64 fold_run(u64 h, u32 version, u64 pages) {
  // A zero byte leaves h alone, so a zero page is four multiplies.
  if (version == 0) return power(Affine{kFnvPrime4, 0}, pages)(h);
  // Each XOR touches only the low byte, and the odd prime maps low bytes
  // to low bytes. So a page maps h -> P^4·h + c(l), where c depends on h's
  // low byte l alone, and l steps through a permutation of the 256 byte
  // values. Walk pages until l returns: from then on, every `cycle`
  // pages compose into the same affine map.
  const u64 start = h;
  u64 cycle = 0;
  u64 scale = 1;
  while (cycle < pages) {
    h = fold_page(h, version);
    scale *= kFnvPrime4;
    ++cycle;
    if ((h & 0xff) == (start & 0xff)) break;
  }
  if (cycle == pages) return h;
  const u64 rest = pages - cycle;
  h = power(Affine{scale, h - scale * start}, rest / cycle)(h);
  for (u64 i = 0; i < rest % cycle; ++i) h = fold_page(h, version);
  return h;
}

}  // namespace

GuestMemory::GuestMemory(u64 bytes) : contents_(pages_for_bytes(bytes), 0) {}

GuestMemory::GuestMemory(PageVersions contents)
    : contents_(std::move(contents)) {}

u64 region_checksum(const PageVersions& versions, u64 first_page,
                    u64 page_count) {
  u64 h = kFnvOffset;
  versions.for_each_in(first_page, page_count, [&](u32 version, u64 pages) {
    h = fold_run(h, version, pages);
  });
  return h;
}

u64 hash_memory(const GuestMemory& memory) {
  return region_checksum(memory.page_versions(), 0, memory.num_pages());
}

u64 hash_memory_against(const GuestMemory& memory,
                        const PageVersions& authority, u64 authority_hash) {
  return memory.page_versions() == authority ? authority_hash
                                             : hash_memory(memory);
}

}  // namespace toss
