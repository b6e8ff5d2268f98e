// Virtual machine monitor state captured alongside guest memory in a
// snapshot: vCPU registers and emulated device state. Modeled only by its
// sizes, which contribute to snapshot load time.
#pragma once

#include "util/units.hpp"

namespace toss {

struct VmState {
  u32 vcpu_count = 1;
  u64 vcpu_state_bytes = 16 * kKiB;    ///< per-vCPU register/MSR state
  u64 device_state_bytes = 128 * kKiB; ///< virtio-net/block/serial, KVM irqchip
  u64 config_hash = 0;                 ///< identity of the machine config
};

}  // namespace toss
