#include "util/fault.hpp"

#include <algorithm>

namespace toss {

FaultInjector::FaultInjector(FaultPlan plan, u64 salt) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    sites_[i].config = std::move(plan.sites[i]);
    // Independent stream per site: a draw at one site never shifts the
    // schedule of another, so adding probes is behaviour-preserving.
    sites_[i].rng = Rng(mix_seed(mix_seed(plan.seed, salt), i + 1));
  }
}

bool FaultInjector::should_fire(FaultSite site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  const u64 arm = s.arms++;
  if (!s.config.armed() || s.fires >= s.config.max_fires) return false;
  bool fire = std::find(s.config.schedule.begin(), s.config.schedule.end(),
                        arm) != s.config.schedule.end();
  // Probability draws only happen on probability-armed sites, so a pure
  // schedule is stable under config edits elsewhere.
  if (!fire && s.config.probability > 0.0)
    fire = s.rng.next_double() < s.config.probability;
  if (fire) ++s.fires;
  return fire;
}

u64 FaultInjector::draw(FaultSite site, u64 bound) {
  return sites_[static_cast<size_t>(site)].rng.next_below(bound);
}

Nanos FaultInjector::stall_ns(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].config.delay_ns;
}

u64 FaultInjector::arms(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].arms;
}

u64 FaultInjector::fires(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].fires;
}

u64 FaultInjector::total_fires() const {
  u64 n = 0;
  for (const SiteState& s : sites_) n += s.fires;
  return n;
}

Nanos RetryPolicy::backoff_ns(int retry_index, Rng& rng) const {
  Nanos backoff = base_backoff_ns;
  for (int i = 0; i < retry_index; ++i) backoff *= multiplier;
  if (jitter > 0.0) backoff *= 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
  return std::max(0.0, backoff);
}

}  // namespace toss
