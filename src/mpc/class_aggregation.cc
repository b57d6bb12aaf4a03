#include "mpc/class_aggregation.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/serialize.h"
#include "crypto/permutation.h"
#include "crypto/shift_cipher.h"
#include "mpc/wire.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kClassAggregation frames.
constexpr uint16_t kStepObfuscatedLogs = 2;  // P_k -> P-hat: obfuscated log.
constexpr uint16_t kStepCounters = 5;        // P-hat -> representative.

}  // namespace

namespace internal {

std::vector<uint8_t> PackCounters(const internal::ObfuscatedCounters& counters,
                                  uint64_t h) {
  BinaryWriter w;
  w.WriteVarU64(counters.a.size());
  for (const auto& [user, count] : counters.a) {
    w.WriteU32(user);
    w.WriteVarU64(count);
  }
  w.WriteVarU64(counters.c.size());
  for (const auto& [key, by_delay] : counters.c) {
    w.WriteU64(key);
    for (uint64_t l = 0; l < h; ++l) w.WriteVarU64(by_delay[l]);
  }
  return w.TakeBuffer();
}

Status UnpackCounters(const std::vector<uint8_t>& buf, uint64_t h,
                      internal::ObfuscatedCounters* out) {
  BinaryReader r(buf);
  uint64_t a_count;
  // An a-entry is a u32 user plus a varint count: at least 5 bytes.
  PSI_RETURN_NOT_OK(r.ReadCount(&a_count, /*min_bytes_per_element=*/5));
  out->a.reserve(a_count);
  for (uint64_t i = 0; i < a_count; ++i) {
    uint32_t user;
    uint64_t count;
    PSI_RETURN_NOT_OK(r.ReadU32(&user));
    PSI_RETURN_NOT_OK(r.ReadVarU64(&count));
    out->a.emplace(user, count);
  }
  uint64_t c_count;
  // A c-entry is a u64 key plus h varints: at least 8 + h bytes.
  PSI_RETURN_NOT_OK(r.ReadCount(&c_count, /*min_bytes_per_element=*/8 + h));
  out->c.reserve(c_count);
  for (uint64_t i = 0; i < c_count; ++i) {
    uint64_t key;
    PSI_RETURN_NOT_OK(r.ReadU64(&key));
    std::vector<uint64_t> by_delay(h);
    for (uint64_t l = 0; l < h; ++l) {
      PSI_RETURN_NOT_OK(r.ReadVarU64(&by_delay[l]));
    }
    out->c.emplace(key, std::move(by_delay));
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

}  // namespace internal

std::pair<ActionLog, ActionLog> SplitOutClass(
    const ActionLog& log, const std::vector<uint32_t>& class_of_action,
    uint32_t q) {
  ActionLog in_class, remainder;
  for (const auto& r : log.records()) {
    bool is_class =
        r.action < class_of_action.size() && class_of_action[r.action] == q;
    (is_class ? in_class : remainder).Add(r);
  }
  return {std::move(in_class), std::move(remainder)};
}

ClassAggregationProtocol::ClassAggregationProtocol(Network* network,
                                                   std::vector<PartyId> group,
                                                   PartyId aggregator,
                                                   Protocol5Config config)
    : network_(network),
      group_(std::move(group)),
      aggregator_(aggregator),
      config_(config) {}

Result<AggregatedClassCounters> ClassAggregationProtocol::Run(
    const std::vector<ActionLog>& class_logs, size_t num_users,
    Rng* group_secret_rng, const std::string& label_prefix) {
  return DrainAfterRun(
      network_, RunImpl(class_logs, num_users, group_secret_rng, label_prefix));
}

Result<AggregatedClassCounters> ClassAggregationProtocol::RunImpl(
    const std::vector<ActionLog>& class_logs, size_t num_users,
    Rng* group_secret_rng, const std::string& label_prefix) {
  const size_t d = group_.size();
  if (d == 0) return Status::InvalidArgument("empty provider group");
  if (class_logs.size() != d) {
    return Status::InvalidArgument("one class log per group member");
  }
  for (PartyId p : group_) {
    if (p == aggregator_) {
      return Status::InvalidArgument("aggregator must be outside the group");
    }
  }
  const bool enhanced = config_.method == ObfuscationMethod::kEnhanced;
  uint64_t frame_t = config_.time_frame_t;
  if (frame_t == 0) {
    return Status::InvalidArgument("time_frame_t must be set (public T)");
  }
  for (const auto& log : class_logs) {
    if (log.MaxTime() >= frame_t) {
      return Status::OutOfRange("record timestamp >= public frame T");
    }
  }
  const uint64_t frame = frame_t + config_.h;  // S' = T + h.

  // ---- Shared secrets (derived from the group's pre-shared key). ----
  const size_t num_fake = enhanced ? config_.num_fake_users : 0;
  SecretInjection user_map =
      SecretInjection::Random(group_secret_rng, num_users, num_fake);
  ShiftCipher time_cipher = enhanced
                                ? ShiftCipher::Random(group_secret_rng, frame)
                                : ShiftCipher(0, frame);

  // Shared action pseudonyms: distinct random u32 per real action id that
  // appears in the class (derived identically by every provider from the
  // shared key; the class's action universe is public).
  std::unordered_set<ActionId> class_actions;
  for (const auto& log : class_logs) {
    for (const auto& r : log.records()) class_actions.insert(r.action);
  }
  std::vector<ActionId> sorted_actions(class_actions.begin(),
                                       class_actions.end());
  std::sort(sorted_actions.begin(), sorted_actions.end());
  std::unordered_map<ActionId, uint32_t> pseudonym;
  std::unordered_set<uint32_t> used_pseudonyms;
  for (ActionId a : sorted_actions) {
    uint32_t p;
    do {
      p = group_secret_rng->NextU32();
    } while (!used_pseudonyms.insert(p).second);
    pseudonym.emplace(a, p);
  }

  // ---- Step 2: each provider obfuscates and ships its log. ----
  network_->BeginRound(label_prefix + "P5.Step2 (obfuscated logs to P-hat)");
  std::vector<size_t> fake_user_pool = user_map.FakeIds();
  for (size_t k = 0; k < d; ++k) {
    std::vector<ActionRecord> obf;
    obf.reserve(class_logs[k].size());
    std::vector<uint64_t> per_time(enhanced ? frame : 0, 0);
    for (const auto& r : class_logs[k].records()) {
      ActionRecord o;
      o.user = static_cast<NodeId>(user_map.Apply(r.user));
      o.action = pseudonym.at(r.action);
      o.time = enhanced ? time_cipher.Encrypt(r.time) : r.time;
      obf.push_back(o);
      if (enhanced) ++per_time[time_cipher.Encrypt(r.time)];
    }
    if (enhanced && !fake_user_pool.empty()) {
      // Pad every encrypted timestamp up to W_k with fake single-use records.
      uint64_t w_max = 0;
      for (uint64_t c : per_time) w_max = std::max(w_max, c);
      if (w_max == 0) w_max = 1;  // Even an empty log emits uniform noise.
      // Fake pseudonyms come from the provider's own randomness; they are
      // single-use so they can never form follow pairs.
      Rng local = group_secret_rng->Fork("fakes-" + std::to_string(k));
      for (uint64_t t = 0; t < frame; ++t) {
        for (uint64_t fill = per_time[t]; fill < w_max; ++fill) {
          ActionRecord o;
          const uint64_t pick = local.UniformU64(fake_user_pool.size());
          // psi-lint: allow(secret-flow) the index is a uniform draw the provider publishes anyway as the fake pseudonym
          o.user = static_cast<NodeId>(fake_user_pool[pick]);
          o.action = local.NextU32();
          o.time = t;
          obf.push_back(o);
        }
      }
    }
    // Shuffle so record order reveals nothing about real-vs-fake.
    Rng shuffle_rng = group_secret_rng->Fork("shuffle-" + std::to_string(k));
    shuffle_rng.Shuffle(&obf);
    PSI_RETURN_NOT_OK(network_->SendFramed(group_[k], aggregator_,
                                           ProtocolId::kClassAggregation,
                                           kStepObfuscatedLogs, wire::PackRecords(obf)));
  }

  // ---- Steps 3-4: the aggregator merges and counts. ----
  std::vector<ActionRecord> merged;
  views_.aggregator_logs.clear();
  for (size_t k = 0; k < d; ++k) {
    PSI_ASSIGN_OR_RETURN(auto buf, network_->RecvValidated(aggregator_, group_[k],
                                                           ProtocolId::kClassAggregation,
                                                           kStepObfuscatedLogs));
    std::vector<ActionRecord> records;
    PSI_RETURN_NOT_OK(wire::UnpackRecords(buf, &records));
    views_.aggregator_logs.push_back(records);
    merged.insert(merged.end(), records.begin(), records.end());
  }

  internal::ObfuscatedCounters counters;
  std::unordered_map<uint32_t, std::vector<ActionRecord>> by_action;
  for (const auto& r : merged) {
    ++counters.a[r.user];
    by_action[r.action].push_back(r);
  }
  for (const auto& [action, records] : by_action) {
    for (const auto& first : records) {
      for (const auto& second : records) {
        if (first.user == second.user) continue;
        uint64_t diff;
        if (enhanced) {
          // Cyclic difference within the frame (condition (12)).
          diff = (second.time + frame - first.time) % frame;
        } else {
          if (second.time <= first.time) continue;
          diff = second.time - first.time;
        }
        if (diff >= 1 && diff <= config_.h) {
          auto [it, inserted] = counters.c.try_emplace(
              PairKey(first.user, second.user),
              std::vector<uint64_t>(config_.h, 0));
          ++it->second[diff - 1];
        }
      }
    }
  }

  // ---- Step 5: nonzero counters return to the representative. ----
  network_->BeginRound(label_prefix + "P5.Step5 (counters to representative)");
  PSI_RETURN_NOT_OK(network_->SendFramed(aggregator_, group_[0],
                                         ProtocolId::kClassAggregation, kStepCounters,
                                         internal::PackCounters(counters, config_.h)));

  // ---- Step 6: the representative recovers the true counters. ----
  PSI_ASSIGN_OR_RETURN(auto buf, network_->RecvValidated(group_[0], aggregator_,
                                                         ProtocolId::kClassAggregation,
                                                         kStepCounters));
  internal::ObfuscatedCounters received;
  PSI_RETURN_NOT_OK(internal::UnpackCounters(buf, config_.h, &received));

  // Obfuscated ids come from P-hat: one outside the injection's codomain is
  // a protocol violation, not a fake user.
  auto invert = [&](uint32_t obf_user) -> Result<size_t> {
    if (obf_user >= user_map.codomain_size()) {
      return Status::ProtocolError(
          "Protocol 5 counters from aggregator " + network_->party_name(aggregator_) +
          " name obfuscated user " + std::to_string(obf_user) + " outside [0, " +
          std::to_string(user_map.codomain_size()) + ")");
    }
    return user_map.InvertOrFake(obf_user);
  };
  AggregatedClassCounters out;
  out.a.assign(num_users, 0);
  for (const auto& [obf_user, count] : received.a) {
    PSI_ASSIGN_OR_RETURN(size_t real, invert(obf_user));
    if (real == SIZE_MAX) continue;  // Fake user: discard.
    out.a[real] += count;
  }
  for (const auto& [key, by_delay] : received.c) {
    PSI_ASSIGN_OR_RETURN(size_t i_real, invert(static_cast<uint32_t>(key >> 32)));
    PSI_ASSIGN_OR_RETURN(size_t j_real,
                         invert(static_cast<uint32_t>(key & 0xffffffffu)));
    if (i_real == SIZE_MAX || j_real == SIZE_MAX) continue;
    auto [it, inserted] = out.c_by_delay.try_emplace(
        PairKey(static_cast<NodeId>(i_real), static_cast<NodeId>(j_real)),
        std::vector<uint64_t>(config_.h, 0));
    for (uint64_t l = 0; l < config_.h; ++l) it->second[l] += by_delay[l];
  }
  return out;
}

}  // namespace psi
