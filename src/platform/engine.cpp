#include "platform/engine.hpp"

namespace toss {

PlatformEngine::PlatformEngine(SystemConfig cfg, PricingPlan pricing,
                               EngineOptions options)
    : host_("host0", std::move(cfg), pricing, options) {}

PlatformEngine::~PlatformEngine() = default;

Result<void> PlatformEngine::add(const FunctionRegistration& registration,
                                 std::vector<Request> requests) {
  return host_.add(registration, std::move(requests));
}

Result<EngineReport> PlatformEngine::run() { return run(options().threads); }

Result<EngineReport> PlatformEngine::run(int threads) {
  return host_.drain(threads);
}

Result<EngineReport> PlatformEngine::drain(const RequestBatch& batch) {
  return drain(batch, options().threads);
}

Result<EngineReport> PlatformEngine::drain(const RequestBatch& batch,
                                           int threads) {
  for (const LaneBatch& b : batch)
    if (Result<void> q = host_.enqueue(b.function, b.requests); !q.ok())
      return {q.code(), q.message()};
  return host_.drain(threads);
}

}  // namespace toss
