#include "platform/keepalive.hpp"

#include <algorithm>

namespace toss {

KeepAliveCache::KeepAliveCache(KeepAliveConfig cfg) : cfg_(cfg) {}

double KeepAliveCache::priority_of(const Entry& e) const {
  // Greedy-Dual-Size-Frequency. `size` is the DRAM share (the constrained
  // pool); a pure slow-tier VM is nearly free to keep and ages very slowly.
  const double size =
      std::max<double>(static_cast<double>(e.dram_bytes), 1.0);
  // Prewarm urgency: the predictor says the function fires again in
  // `gap` — the sooner, the costlier an eviction, so scale the benefit
  // term by up to 2x (gap 0) decaying to 1x. No prediction = plain GDSF.
  const double urgency =
      e.predicted_reuse_gap_ns < 0 || cfg_.urgency_halflife_ns <= 0
          ? 1.0
          : 1.0 + cfg_.urgency_halflife_ns /
                      (cfg_.urgency_halflife_ns + e.predicted_reuse_gap_ns);
  return clock_ +
         static_cast<double>(e.frequency) * e.cold_cost_ns * urgency / size;
}

bool KeepAliveCache::lookup(const std::string& function) {
  auto it = entries_.find(function);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  ++it->second.frequency;
  it->second.priority = priority_of(it->second);
  return true;
}

void KeepAliveCache::evict(const std::string& function) {
  auto it = entries_.find(function);
  if (it == entries_.end()) return;
  dram_used_ -= it->second.dram_bytes;
  slow_used_ -= it->second.slow_bytes;
  entries_.erase(it);
}

std::optional<std::string> KeepAliveCache::evict_lowest() {
  // Evict the lowest-priority warm VM and advance the aging clock to its
  // priority (classic Greedy-Dual). The victim is the minimum of the
  // explicit (priority, function_id) tuple — the name is part of the key,
  // not a side effect of map iteration order, so the choice is
  // deterministic by construction even if the container changes.
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (victim == entries_.end() ||
        it->second.priority < victim->second.priority ||
        (it->second.priority == victim->second.priority &&
         it->first < victim->first))
      victim = it;
  }
  if (victim == entries_.end()) return std::nullopt;
  std::string name = victim->first;
  clock_ = victim->second.priority;
  evict(name);
  ++stats_.evictions;
  return name;
}

bool KeepAliveCache::make_room(u64 dram_bytes, u64 slow_bytes) {
  if (dram_bytes > cfg_.dram_capacity_bytes ||
      slow_bytes > cfg_.slow_capacity_bytes)
    return false;
  while (dram_used_ + dram_bytes > cfg_.dram_capacity_bytes ||
         slow_used_ + slow_bytes > cfg_.slow_capacity_bytes) {
    if (!evict_lowest()) return false;  // nothing left to evict
  }
  return true;
}

bool KeepAliveCache::insert(const std::string& function, u64 dram_bytes,
                            u64 slow_bytes, Nanos cold_cost_ns,
                            Nanos predicted_reuse_gap_ns) {
  evict(function);
  if (!make_room(dram_bytes, slow_bytes)) {
    ++stats_.rejected;
    return false;
  }
  Entry e;
  e.dram_bytes = dram_bytes;
  e.slow_bytes = slow_bytes;
  e.cold_cost_ns = cold_cost_ns;
  e.predicted_reuse_gap_ns = predicted_reuse_gap_ns;
  e.frequency = 1;
  e.priority = priority_of(e);
  dram_used_ += dram_bytes;
  slow_used_ += slow_bytes;
  entries_.emplace(function, e);
  return true;
}

bool KeepAliveCache::contains(const std::string& function) const {
  return entries_.contains(function);
}

}  // namespace toss
