#include "platform/recovery.hpp"

#include <algorithm>

namespace toss {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {
  options_.failure_threshold = std::max<u32>(1, options_.failure_threshold);
  options_.cooldown_invocations =
      std::max<u32>(1, options_.cooldown_invocations);
}

void CircuitBreaker::open() {
  state_ = State::kOpen;
  cooldown_left_ = options_.cooldown_invocations;
  consecutive_failures_ = 0;
  ++opened_count_;
}

void CircuitBreaker::trip() {
  if (state_ == State::kOpen) return;
  open();
}

void CircuitBreaker::observe(bool degraded) {
  switch (state_) {
    case State::kClosed:
      if (degraded) {
        if (++consecutive_failures_ >= options_.failure_threshold) open();
      } else {
        consecutive_failures_ = 0;
      }
      break;
    case State::kOpen:
      // The lane served this invocation suspended; count down to the probe.
      if (--cooldown_left_ == 0) state_ = State::kHalfOpen;
      break;
    case State::kHalfOpen:
      // This invocation ran unsuspended as the probe.
      if (degraded) {
        open();
      } else {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
      }
      break;
  }
}

}  // namespace toss
