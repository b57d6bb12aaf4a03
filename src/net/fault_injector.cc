#include "net/fault_injector.h"

#include <utility>

namespace psi {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kDelay: return "delay";
  }
  return "unknown";
}

FaultPlan FaultPlan::RandomPlan(uint64_t seed, size_t num_parties) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  FaultPlan plan;
  plan.seed = seed;
  const size_t num_rules = 1 + rng.UniformU64(3);
  for (size_t i = 0; i < num_rules; ++i) {
    FaultRule rule;
    rule.kind = static_cast<FaultKind>(rng.UniformU64(6));
    // Mostly wildcard channels; occasionally pin one endpoint.
    if (num_parties > 0 && rng.Bernoulli(0.3)) {
      rule.from = static_cast<PartyId>(rng.UniformU64(num_parties));
    }
    if (num_parties > 0 && rng.Bernoulli(0.3)) {
      rule.to = static_cast<PartyId>(rng.UniformU64(num_parties));
    }
    rule.probability = rng.UniformReal(0.05, 0.35);
    rule.max_triggers = static_cast<uint32_t>(1 + rng.UniformU64(4));
    plan.rules.push_back(rule);
  }
  if (num_parties > 1 && rng.Bernoulli(0.15)) {
    CrashSpec crash;
    // Never crash party 0: by convention that is the host H, without which
    // no protocol can even start a round.
    crash.party = static_cast<PartyId>(1 + rng.UniformU64(num_parties - 1));
    crash.after_round = 1 + rng.UniformU64(6);
    plan.crash = crash;
  }
  return plan;
}

FaultPlan FaultPlan::RandomRestartPlan(uint64_t seed, size_t num_parties) {
  Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  FaultPlan plan;
  plan.seed = seed;
  // 0-2 light rules so recovery is exercised both alone and under noise.
  const size_t num_rules = rng.UniformU64(3);
  for (size_t i = 0; i < num_rules; ++i) {
    FaultRule rule;
    rule.kind = static_cast<FaultKind>(rng.UniformU64(6));
    rule.probability = rng.UniformReal(0.05, 0.2);
    rule.max_triggers = static_cast<uint32_t>(1 + rng.UniformU64(3));
    plan.rules.push_back(rule);
  }
  CrashSpec crash;
  // Never crash party 0 (the host H, without which no round can start).
  crash.party = num_parties > 1
                    ? static_cast<PartyId>(1 + rng.UniformU64(num_parties - 1))
                    : kAnyParty;
  crash.after_round = rng.UniformU64(8);
  crash.restart_round = crash.after_round + 2 + rng.UniformU64(6);
  plan.crash = crash;
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      triggers_used_(plan_.rules.size(), 0) {}

bool FaultInjector::Crashed(PartyId party, uint64_t round) const {
  if (!plan_.crash.has_value() || plan_.crash->party != party) return false;
  return round > plan_.crash->after_round &&
         round < plan_.crash->restart_round;
}

int FaultInjector::Decide(uint64_t round, PartyId from, PartyId to) {
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.from != kAnyParty && rule.from != from) continue;
    if (rule.to != kAnyParty && rule.to != to) continue;
    if (round < rule.round_min || round > rule.round_max) continue;
    if (triggers_used_[i] >= rule.max_triggers) continue;
    // Draw the coin only for matching rules so the decision stream is a
    // deterministic function of the message sequence.
    if (!rng_.Bernoulli(rule.probability)) continue;
    ++triggers_used_[i];
    return static_cast<int>(i);
  }
  return -1;
}

void FaultInjector::Mutate(FaultKind kind, std::vector<uint8_t>* frame) {
  if (frame->empty()) return;
  if (kind == FaultKind::kCorrupt) {
    const uint64_t bit = rng_.UniformU64(frame->size() * 8);
    (*frame)[bit / 8] =
        static_cast<uint8_t>((*frame)[bit / 8] ^ (1u << (bit % 8)));
  } else if (kind == FaultKind::kTruncate) {
    frame->resize(rng_.UniformU64(frame->size()));
  }
}

FaultInjector::Action FaultInjector::OnTransmit(uint64_t round, PartyId from,
                                                PartyId to,
                                                std::vector<uint8_t>* frame) {
  if (Crashed(from, round)) {
    ++stats_.crash_dropped;
    return Action::kDrop;  // The receiver sees only silence.
  }
  ++stats_.transmitted;
  const int rule = Decide(round, from, to);
  if (rule < 0) return Action::kDeliver;
  const FaultKind kind = plan_.rules[static_cast<size_t>(rule)].kind;
  switch (kind) {
    case FaultKind::kDrop:
      ++stats_.dropped;
      return Action::kDrop;
    case FaultKind::kDuplicate:
      ++stats_.duplicated;
      return Action::kDeliverTwice;
    case FaultKind::kReorder:
      ++stats_.reordered;
      return Action::kDeliverFront;
    case FaultKind::kCorrupt:
    case FaultKind::kTruncate:
      ++(kind == FaultKind::kCorrupt ? stats_.corrupted : stats_.truncated);
      Mutate(kind, frame);
      return Action::kDeliver;
    case FaultKind::kDelay:
      ++stats_.delayed;
      return Action::kHold;
  }
  return Action::kDeliver;
}

FaultInjector::Action FaultInjector::OnRetransmit(
    uint64_t round, PartyId from, PartyId to, std::vector<uint8_t>* frame) {
  ++stats_.retransmits_served;
  const int rule = Decide(round, from, to);
  if (rule < 0) return Action::kDeliver;
  const FaultKind kind = plan_.rules[static_cast<size_t>(rule)].kind;
  if (kind == FaultKind::kDrop || kind == FaultKind::kDelay) {
    ++(kind == FaultKind::kDrop ? stats_.dropped : stats_.delayed);
    return Action::kDrop;
  }
  if (kind == FaultKind::kCorrupt || kind == FaultKind::kTruncate) {
    ++(kind == FaultKind::kCorrupt ? stats_.corrupted : stats_.truncated);
    Mutate(kind, frame);
  }
  return Action::kDeliver;
}

}  // namespace psi
