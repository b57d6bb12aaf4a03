#include "net/network.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace psi {

std::string TrafficReport::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %12s %14s %14s\n",
                "communication round", "messages", "bytes", "payload");
  out += line;
  for (const auto& r : rounds) {
    std::snprintf(line, sizeof(line), "%-44s %12llu %14llu %14llu\n",
                  r.label.c_str(),
                  static_cast<unsigned long long>(r.num_messages),
                  static_cast<unsigned long long>(r.num_bytes),
                  static_cast<unsigned long long>(r.num_payload_bytes));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-44s %12llu %14llu %14llu  (NR=%llu)\n",
                "TOTAL", static_cast<unsigned long long>(num_messages),
                static_cast<unsigned long long>(num_bytes),
                static_cast<unsigned long long>(num_payload_bytes),
                static_cast<unsigned long long>(num_rounds));
  out += line;
  return out;
}

PartyId Network::RegisterParty(std::string name) {
  names_.push_back(std::move(name));
  bytes_sent_by_.push_back(0);
  return static_cast<PartyId>(names_.size() - 1);
}

void Network::BeginRound(std::string label) {
  // Delayed frames surface at the round boundary, before any of the round's
  // own traffic, in the local mailbox on every backend, so the release
  // point does not depend on daemon scheduling.
  for (auto& [key, frame] : delayed_) {
    Deliver(key.first, key.second, std::move(frame));
  }
  delayed_.clear();
  rounds_.push_back(RoundStats{std::move(label), 0, 0, 0});
  if (round_observer_) {
    round_observer_(rounds_.back().label, rounds_.size() - 1);
  }
}

void Network::SetRoundObserver(RoundObserver observer) {
  round_observer_ = std::move(observer);
}

void Network::AttachFaultInjector(FaultPlan plan) {
  injector_.emplace(std::move(plan));
}

const FaultStats* Network::fault_stats() const {
  return injector_.has_value() ? &injector_->stats() : nullptr;
}

const std::string& Network::CurrentRoundLabel() const {
  static const std::string kNoRound = "<no round>";
  return rounds_.empty() ? kNoRound : rounds_.back().label;
}

std::string Network::DescribeChannel(PartyId from, PartyId to) const {
  auto name = [this](PartyId id) {
    return ValidParty(id) ? names_[id] : "party#" + std::to_string(id);
  };
  return name(from) + " -> " + name(to);
}

void Network::MeterSend(PartyId from, size_t wire_bytes,
                        size_t payload_bytes) {
  rounds_.back().num_messages += 1;
  rounds_.back().num_bytes += wire_bytes;
  rounds_.back().num_payload_bytes += payload_bytes;
  bytes_sent_by_[from] += wire_bytes;
}

void Network::Deliver(PartyId from, PartyId to, std::vector<uint8_t> frame,
                      bool front) {
  auto& box = mailboxes_[{from, to}];
  if (front) {
    box.push_front(std::move(frame));
  } else {
    box.push_back(std::move(frame));
  }
}

Status Network::Forward(PartyId from, PartyId to, std::vector<uint8_t> frame,
                        bool front) {
  Deliver(from, to, std::move(frame), front);
  return Status::OK();
}

Status Network::Transmit(PartyId from, PartyId to,
                         std::vector<uint8_t> frame) {
  using Action = FaultInjector::Action;
  const uint64_t round = RoundIndex();
  // A crashed sender's frames never reach the store: a retransmission
  // request for one is refused, like the frame itself.
  const bool crashed =
      injector_.has_value() && injector_->Crashed(from, round);
  if (CanLoseFrames() && !crashed) {
    auto seq = PeekEnvelopeSeq(frame);
    if (seq.ok()) {  // A headerless frame has no sequence to serve.
      auto& log = sent_log_[{from, to}];
      log.erase(log.begin(), log.lower_bound(ExpectedRecvSeq(from, to)));
      log.insert_or_assign(seq.ValueOrDie(), frame);  // Pristine, pre-fault.
    }
  }
  const Action action = injector_.has_value()
                            ? injector_->OnTransmit(round, from, to, &frame)
                            : Action::kDeliver;
  switch (action) {
    case Action::kDrop:
      return Status::OK();
    case Action::kHold:
      delayed_.emplace_back(ChannelKey{from, to}, std::move(frame));
      return Status::OK();
    case Action::kDeliverTwice:
      PSI_RETURN_NOT_OK(Forward(from, to, frame, /*front=*/false));
      break;
    case Action::kDeliverFront:
      return Forward(from, to, std::move(frame), /*front=*/true);
    case Action::kDeliver:
      break;
  }
  return Forward(from, to, std::move(frame), /*front=*/false);
}

Status Network::SendFramed(PartyId from, PartyId to, ProtocolId protocol_id,
                           uint16_t step,
                           const std::vector<uint8_t>& payload) {
  if (!ValidParty(from) || !ValidParty(to)) {
    return Status::InvalidArgument("SendFramed: unknown party id");
  }
  if (from == to) {
    return Status::InvalidArgument("SendFramed: a party cannot message itself");
  }
  if (rounds_.empty()) {
    return Status::FailedPrecondition("SendFramed before any BeginRound");
  }
  uint64_t seq = send_seq_[{from, to}]++;
  std::vector<uint8_t> frame =
      SealEnvelope(protocol_id, step, from, seq, payload);
  MeterSend(from, frame.size(), payload.size());
  return Transmit(from, to, std::move(frame));
}

Result<std::vector<uint8_t>> Network::Recv(PartyId to, PartyId from) {
  if (!ValidParty(from) || !ValidParty(to)) {
    return Status::InvalidArgument("Recv: unknown party id");
  }
  auto it = mailboxes_.find({from, to});
  if (it == mailboxes_.end() || it->second.empty()) {
    return Status::FailedPrecondition(
        "Recv: no pending message on " + DescribeChannel(from, to) +
        " in round '" + CurrentRoundLabel() + "'");
  }
  std::vector<uint8_t> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

Result<std::vector<uint8_t>> Network::RequestRetransmit(PartyId to,
                                                        PartyId from,
                                                        uint64_t seq) {
  if (!CanLoseFrames()) {
    return Status::FailedPrecondition(
        "retransmission unavailable on the lossless network for " +
        DescribeChannel(from, to));
  }
  const uint64_t round = RoundIndex();
  const bool crashed =
      injector_.has_value() && injector_->Crashed(from, round);
  const std::vector<uint8_t>* sent = nullptr;
  auto log = sent_log_.find({from, to});
  if (!crashed && log != sent_log_.end()) {
    auto it = log->second.find(seq);
    if (it != log->second.end()) sent = &it->second;
  }
  if (sent == nullptr) {
    if (injector_.has_value()) injector_->CountRefusedRetransmit();
    return Status::FailedPrecondition(
        "retransmit refused: " +
        (crashed ? party_name(from) + " crashed after round " +
                       std::to_string(injector_->plan().crash->after_round)
                 : "no frame with seq " + std::to_string(seq) +
                       " awaiting delivery on " + DescribeChannel(from, to)));
  }
  // A retransmission travels the same unreliable wire: it is metered like
  // any other message and the injector gets another shot at it. Bounded
  // attempts in RecvValidated guarantee termination.
  MeterSend(from, sent->size(), sent->size() - kEnvelopeOverheadBytes);
  std::vector<uint8_t> frame = *sent;
  if (injector_.has_value() &&
      injector_->OnRetransmit(round, from, to, &frame) ==
          FaultInjector::Action::kDrop) {
    return Status::FailedPrecondition("retransmitted frame lost on " +
                                      DescribeChannel(from, to));
  }
  return frame;
}

Status Network::WaitForPending(PartyId to, PartyId from, uint64_t budget_ms) {
  (void)to;
  (void)from;
  (void)budget_ms;
  return Status::OK();  // Simulator mailboxes are synchronous.
}

Result<std::vector<uint8_t>> Network::RecvValidated(PartyId to, PartyId from,
                                                    ProtocolId protocol_id,
                                                    uint16_t step,
                                                    const RecvOptions& opts) {
  if (!ValidParty(from) || !ValidParty(to)) {
    return Status::InvalidArgument("RecvValidated: unknown party id");
  }
  const ChannelKey key{from, to};
  uint64_t& expected = recv_seq_[key];
  auto& stash = stash_[key];
  std::string last_error = "no message pending";
  // Attempts meter transport work (receives, retransmission requests,
  // damaged frames). Stale duplicates are free to discard but bounded
  // separately so a flooded mailbox still terminates. Retransmission
  // requests draw on their own budget so a dead channel degrades into a
  // clean error instead of hammering the peer max_attempts times.
  const uint64_t deadline_ms =
      opts.deadline_ms != 0 ? opts.deadline_ms : DefaultRecvDeadlineMs();
  const auto started = std::chrono::steady_clock::now();
  auto elapsed_ms = [&started]() -> uint64_t {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
  };
  int attempts = 0;
  int discards = 0;
  int retransmits = 0;
  // Set when a frame fails to open: its pristine copy exists only at the
  // sender, so the next empty-mailbox pass asks for it without waiting.
  bool damaged = false;
  while (attempts < opts.max_attempts && discards < opts.max_discards) {
    if (deadline_ms != 0 && elapsed_ms() >= deadline_ms) {
      return Status::ProtocolError(
          "RecvValidated: deadline of " + std::to_string(deadline_ms) +
          " ms expired on " + DescribeChannel(from, to) + " in round '" +
          CurrentRoundLabel() + "'; last transport error: " + last_error);
    }
    std::vector<uint8_t> frame;
    auto sit = stash.find(expected);
    if (sit != stash.end()) {
      frame = std::move(sit->second);
      stash.erase(sit);
    } else if (HasPending(to, from)) {
      PSI_ASSIGN_OR_RETURN(frame, Recv(to, from));
      ++attempts;
    } else {
      ++attempts;
      if (!damaged) {
        uint64_t wait_budget_ms =
            deadline_ms != 0 ? deadline_ms - elapsed_ms() : 0;
        Status waited = WaitForPending(to, from, wait_budget_ms);
        if (!waited.ok()) {
          last_error = waited.message();
          continue;
        }
      }
      if (HasPending(to, from)) {
        PSI_ASSIGN_OR_RETURN(frame, Recv(to, from));
      } else {
        if (retransmits >= opts.max_retransmits) {
          break;  // Nothing pending and no budget left; keep last_error.
        }
        ++retransmits;
        damaged = false;
        auto retry = RequestRetransmit(to, from, expected);
        if (!retry.ok()) {
          last_error = retry.status().message();
          continue;
        }
        frame = std::move(retry).MoveValue();
      }
    }
    auto env = OpenEnvelope(frame);
    if (!env.ok()) {
      last_error = env.status().message();
      damaged = true;
      continue;
    }
    if (env->seq < expected) {
      ++discards;  // Stale duplicate of an already-accepted frame.
      continue;
    }
    if (env->seq > expected) {
      if (stash.size() >= kMaxStashedFramesPerChannel) {
        return Status::ProtocolError(
            "RecvValidated: early-frame stash overflow on " +
            DescribeChannel(from, to) + " in round '" + CurrentRoundLabel() +
            "' (" + std::to_string(stash.size()) +
            " frames ahead of seq " + std::to_string(expected) +
            "); refusing to buffer more");
      }
      stash.emplace(env->seq, std::move(frame));  // Arrived early.
      ++discards;
      continue;
    }
    if (env->sender != from) {
      last_error = "frame claims sender " + std::to_string(env->sender);
      continue;
    }
    if (env->protocol_id != protocol_id || env->step != step) {
      // An intact, in-sequence frame of the wrong type is not a transport
      // fault: the peer is running a different protocol or step. No number
      // of retransmissions can fix that.
      return Status::ProtocolError(
          std::string("RecvValidated: expected ") +
          ProtocolIdToString(protocol_id) + " step " + std::to_string(step) +
          " but got " + ProtocolIdToString(env->protocol_id) + " step " +
          std::to_string(env->step) + " on " + DescribeChannel(from, to) +
          " in round '" + CurrentRoundLabel() + "'");
    }
    ++expected;
    return std::move(env->payload);
  }
  return Status::ProtocolError(
      "RecvValidated: giving up on " + DescribeChannel(from, to) +
      " in round '" + CurrentRoundLabel() + "' after " +
      std::to_string(attempts) + " attempt(s) and " +
      std::to_string(retransmits) +
      " retransmission request(s); last transport error: " + last_error);
}

bool Network::HasPending(PartyId to, PartyId from) const {
  auto it = mailboxes_.find({from, to});
  return it != mailboxes_.end() && !it->second.empty();
}

size_t Network::PendingCount() const {
  size_t count = 0;
  for (const auto& [key, box] : mailboxes_) count += box.size();
  return count;
}

std::string Network::Drain(PartyId to) {
  std::string summary;
  for (auto& [key, box] : mailboxes_) {
    if (key.second != to || box.empty()) continue;
    if (!summary.empty()) summary += "; ";
    summary += std::to_string(box.size()) + " message(s) from " +
               (ValidParty(key.first) ? names_[key.first]
                                      : std::to_string(key.first)) +
               " (sizes:";
    for (const auto& frame : box) {
      summary += " " + std::to_string(frame.size());
    }
    summary += " bytes)";
    box.clear();
  }
  return summary;
}

std::string Network::DrainAll() {
  std::string summary;
  for (PartyId id = 0; id < names_.size(); ++id) {
    std::string part = Drain(id);
    if (part.empty()) continue;
    if (!summary.empty()) summary += "; ";
    summary += "to " + names_[id] + ": " + part;
  }
  return summary;
}

void Network::ResyncChannel(PartyId from, PartyId to) {
  const ChannelKey key{from, to};
  recv_seq_[key] = send_seq_[key];
  stash_[key].clear();
}

uint64_t Network::ExpectedRecvSeq(PartyId from, PartyId to) const {
  auto it = recv_seq_.find({from, to});
  return it == recv_seq_.end() ? 0 : it->second;
}

size_t Network::StashedCount(PartyId from, PartyId to) const {
  auto it = stash_.find({from, to});
  return it == stash_.end() ? 0 : it->second.size();
}

size_t Network::SentLogFrames() const {
  size_t frames = 0;
  for (const auto& [channel, log] : sent_log_) frames += log.size();
  return frames;
}

TrafficReport Network::Report() const {
  TrafficReport report;
  report.rounds = rounds_;
  report.num_rounds = rounds_.size();
  for (const auto& r : rounds_) {
    report.num_messages += r.num_messages;
    report.num_bytes += r.num_bytes;
    report.num_payload_bytes += r.num_payload_bytes;
  }
  return report;
}

uint64_t Network::BytesSentBy(PartyId id) const {
  return ValidParty(id) ? bytes_sent_by_[id] : 0;
}

Status Network::ResetMetering() {
  if (PendingCount() != 0) {
    return Status::FailedPrecondition("ResetMetering with undelivered messages");
  }
  rounds_.clear();
  for (auto& b : bytes_sent_by_) b = 0;
  return Status::OK();
}

}  // namespace psi
