// Deterministic fault injection over the in-process simulator.
//
// FaultyNetwork is the lossless Network simulator with a FaultInjector
// (net/fault_injector.h) attached from construction: driven by a seeded
// RNG so every schedule is reproducible, it drops, duplicates, reorders,
// corrupts (single bit flip), truncates or delays frames matched by a
// FaultPlan, and can silence a party entirely after a chosen round (crash
// fault). Network itself applies the verdicts and keeps the pristine,
// pruned per-channel store that serves RecvValidated's bounded
// retransmission requests, so the socket transport with the same plan
// attached runs the same fault path over real sockets.
//
// The chaos invariant the test suite enforces on top of this layer
// (docs/FAULTS.md): a protocol driver run under ANY fault schedule either
// produces exactly the fault-free result or terminates promptly with a
// clean non-OK Status — never a wrong answer, a crash, or a hang.

#ifndef PSI_NET_FAULT_H_
#define PSI_NET_FAULT_H_

#include <utility>

#include "net/fault_injector.h"
#include "net/network.h"

namespace psi {

/// \brief Network with deterministic, plan-driven fault injection.
class FaultyNetwork : public Network {
 public:
  explicit FaultyNetwork(FaultPlan plan) {
    AttachFaultInjector(std::move(plan));
  }
};

}  // namespace psi

#endif  // PSI_NET_FAULT_H_
