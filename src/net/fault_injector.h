// Backend-agnostic deterministic fault injection: the decision and
// mutation engine behind every lossy transport.
//
// FaultInjector owns the seeded RNG, the fault plan and the fault counters,
// and nothing else: no frames, no mailbox, no socket. Network
// (net/network.h) owns the optional injector. It runs every outgoing frame
// through OnTransmit, carries out the returned Action with its own delivery
// hop, holds delayed frames until the next round, and keeps the pristine
// store that serves retransmissions through OnRetransmit. Because every RNG
// draw happens inside this class, in a fixed order per frame, a given
// (plan, message sequence) produces the same fault schedule on every
// backend: the simulator (FaultyNetwork, net/fault.h) and the socket
// transport alike.

#ifndef PSI_NET_FAULT_INJECTOR_H_
#define PSI_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.h"
#include "net/envelope.h"

namespace psi {

/// \brief Wildcard PartyId accepted by FaultRule matchers.
inline constexpr PartyId kAnyParty = 0xFFFFFFFFu;

/// \brief What a firing fault rule does to a frame in flight.
enum class FaultKind : uint8_t {
  kDrop = 0,      ///< Frame vanishes.
  kDuplicate,     ///< Frame is delivered twice.
  kReorder,       ///< Frame jumps ahead of the channel queue.
  kCorrupt,       ///< One random bit of the frame is flipped.
  kTruncate,      ///< Frame is cut to a random proper prefix.
  kDelay,         ///< Frame is held until the next BeginRound.
};

const char* FaultKindToString(FaultKind kind);

/// \brief One fault matcher: which messages it applies to and how often.
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  PartyId from = kAnyParty;   ///< Sender filter (kAnyParty matches all).
  PartyId to = kAnyParty;     ///< Receiver filter.
  uint64_t round_min = 0;     ///< First round index the rule is active in.
  uint64_t round_max = UINT64_MAX;  ///< Last active round index.
  double probability = 1.0;   ///< Per-matching-message firing probability.
  uint32_t max_triggers = UINT32_MAX;  ///< Firing budget across the run.
};

/// \brief A party that stops participating after a given round: all its
/// transmissions (including retransmissions) are lost while it is down.
///
/// With the default `restart_round` the crash is permanent. A finite
/// `restart_round` models crash-*restart*: the party is down for round
/// indices in (after_round, restart_round) and rejoins from `restart_round`
/// on — having lost its volatile state, which is exactly the failure a
/// checkpointed ProtocolSession (mpc/session.h) recovers from. Restarting
/// parties keep their retransmission store (it models durable storage, like
/// the session checkpoint).
struct CrashSpec {
  PartyId party = kAnyParty;
  uint64_t after_round = 0;  ///< Down in every round index > after_round...
  uint64_t restart_round = UINT64_MAX;  ///< ...until this round (exclusive).
};

/// \brief A complete, seeded fault schedule.
struct FaultPlan {
  uint64_t seed = 0;  ///< Seeds the coin flips and mutation choices.
  std::vector<FaultRule> rules;
  std::optional<CrashSpec> crash;

  /// \brief The all-zero plan: a transport with it attached behaves like
  /// its lossless base.
  static FaultPlan None() { return FaultPlan{}; }

  /// \brief A randomized chaos schedule: 1-3 rules with random kinds,
  /// probabilities and budgets, plus an occasional crash of one of
  /// `num_parties` parties. Fully determined by `seed`.
  static FaultPlan RandomPlan(uint64_t seed, size_t num_parties);

  /// \brief A randomized crash-restart schedule for session recovery tests:
  /// always crashes one non-host party after a random round and restarts it
  /// a few rounds later, plus 0-2 light fault rules. Fully determined by
  /// `seed`. Kept separate from RandomPlan so its draw order (and therefore
  /// every existing chaos transcript) is unchanged.
  static FaultPlan RandomRestartPlan(uint64_t seed, size_t num_parties);
};

/// \brief Counters of what the fault layer actually did.
struct FaultStats {
  uint64_t transmitted = 0;    ///< Frames that entered the fault pipeline.
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
  uint64_t truncated = 0;
  uint64_t delayed = 0;
  uint64_t crash_dropped = 0;  ///< Sends silenced by a crash.
  uint64_t retransmits_served = 0;
  uint64_t retransmits_refused = 0;

  uint64_t injected() const {
    return dropped + duplicated + reordered + corrupted + truncated + delayed;
  }
};

/// \brief The plan-driven fault decisions, independent of any transport.
class FaultInjector {
 public:
  /// \brief What the transport does with a frame after the injector saw it.
  enum class Action : uint8_t {
    kDeliver = 0,   ///< Deliver normally (possibly mutated).
    kDeliverFront,  ///< Deliver jumped ahead of the channel queue (reorder).
    kDeliverTwice,  ///< Deliver two identical copies back to back.
    kHold,          ///< Hold until the next BeginRound (delay).
    kDrop,          ///< Nothing to deliver: dropped, or the sender crashed.
  };

  explicit FaultInjector(FaultPlan plan);

  /// \brief Decides the fate of one outgoing frame: crash check, rule
  /// matching, and for corrupt or truncate the mutation of `*frame` in
  /// place. `round` is the transport's current round index. RNG draw order
  /// is part of this function's contract (see the file comment).
  Action OnTransmit(uint64_t round, PartyId from, PartyId to,
                    std::vector<uint8_t>* frame);

  /// \brief Re-fault step for a retransmission the transport serves from
  /// its pristine store: a retransmission travels the same unreliable wire.
  /// Returns kDrop when a drop or delay rule fires (the copy is lost), else
  /// kDeliver, with corrupt or truncate applied to `*frame`. Duplicate and
  /// reorder have no meaning for a direct hand-back.
  Action OnRetransmit(uint64_t round, PartyId from, PartyId to,
                      std::vector<uint8_t>* frame);

  /// \brief Counts a retransmission request the transport refused.
  void CountRefusedRetransmit() { ++stats_.retransmits_refused; }

  /// \brief True when `party` is down at round index `round`.
  bool Crashed(PartyId party, uint64_t round) const;

  const FaultStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  /// Index into plan_.rules of the first rule that matches and fires, or -1.
  int Decide(uint64_t round, PartyId from, PartyId to);
  void Mutate(FaultKind kind, std::vector<uint8_t>* frame);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  std::vector<uint32_t> triggers_used_;  // Parallel to plan_.rules.
};

}  // namespace psi

#endif  // PSI_NET_FAULT_INJECTOR_H_
