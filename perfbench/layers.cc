#include "layers.h"

#include <algorithm>

#include "crypto/rsa.h"
#include "mpc/wire.h"
#include "net/envelope.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Unpack-then-Pack of one payload with codec T, timing each direction.
/// False when the payload does not decode.
template <class T, class Unpack, class Pack>
bool RoundTrip(const std::vector<uint8_t>& payload, Unpack unpack, Pack pack,
               int64_t* decode_ns, int64_t* encode_ns, bool* exact) {
  std::vector<T> decoded;
  auto start = Clock::now();
  const psi::Status status = unpack(payload, &decoded);
  *decode_ns += NanosSince(start);
  if (!status.ok()) return false;
  start = Clock::now();
  const std::vector<uint8_t> encoded = pack(decoded);
  *encode_ns += NanosSince(start);
  if (encoded != payload) *exact = false;
  return true;
}

}  // namespace

ReplayTiming ReplayEnvelopes(const std::vector<std::vector<uint8_t>>& frames,
                             int repetitions) {
  ReplayTiming out;
  std::vector<double> decode, encode;
  for (int rep = 0; rep < repetitions; ++rep) {
    int64_t decode_ns = 0, encode_ns = 0;
    for (const auto& frame : frames) {
      auto start = Clock::now();
      auto opened = psi::OpenEnvelope(frame);
      decode_ns += NanosSince(start);
      if (!opened.ok()) {
        out.exact = false;
        continue;
      }
      const psi::Envelope& env = opened.ValueOrDie();
      start = Clock::now();
      const std::vector<uint8_t> sealed = psi::SealEnvelope(
          env.protocol_id, env.step, env.sender, env.seq, env.payload);
      encode_ns += NanosSince(start);
      if (sealed != frame) out.exact = false;
    }
    decode.push_back(static_cast<double>(decode_ns) / 1e3);
    encode.push_back(static_cast<double>(encode_ns) / 1e3);
  }
  out.frames = frames.size();
  out.decode_us = Median(decode);
  out.encode_us = Median(encode);
  return out;
}

ReplayTiming ReplayWireCodecs(const std::vector<std::vector<uint8_t>>& frames,
                              psi::PartyId p1, psi::PartyId p2,
                              int repetitions) {
  using psi::ProtocolId;
  // Open once, outside the timed region: only the codec is measured here.
  std::vector<psi::Envelope> envelopes;
  for (const auto& frame : frames) {
    auto opened = psi::OpenEnvelope(frame);
    if (opened.ok()) envelopes.push_back(std::move(opened).ValueOrDie());
  }
  ReplayTiming out;
  std::vector<double> decode, encode;
  for (int rep = 0; rep < repetitions; ++rep) {
    int64_t decode_ns = 0, encode_ns = 0;
    uint64_t covered = 0;
    for (const psi::Envelope& env : envelopes) {
      const auto& payload = env.payload;
      bool ok = false;
      const bool omega =
          env.step == 2 && (env.protocol_id == ProtocolId::kLinkInfluence ||
                            env.protocol_id == ProtocolId::kPropagationGraph);
      // Protocol 1/2 share vectors (steps 2-4) and P1's masked shares use
      // the BigUInt batch layout; P2's masked shares are signed.
      const bool share_vector =
          (env.protocol_id == ProtocolId::kSecureSum && env.step >= 2 &&
           env.step <= 4) ||
          (env.protocol_id == ProtocolId::kLinkInfluence && env.step == 7 &&
           env.sender == p1);
      const bool signed_shares = env.protocol_id ==
                                     ProtocolId::kLinkInfluence &&
                                 env.step == 7 && env.sender == p2;
      if (omega) {
        ok = RoundTrip<psi::Arc>(payload, psi::wire::UnpackArcs,
                                 psi::wire::PackArcs, &decode_ns, &encode_ns,
                                 &out.exact);
      } else if (share_vector) {
        ok = RoundTrip<psi::BigUInt>(payload, psi::wire::UnpackBigUInts,
                                     psi::wire::PackBigUInts, &decode_ns,
                                     &encode_ns, &out.exact);
      } else if (signed_shares) {
        ok = RoundTrip<psi::BigInt>(payload, psi::wire::UnpackBigInts,
                                    psi::wire::PackBigInts, &decode_ns,
                                    &encode_ns, &out.exact);
      } else {
        continue;
      }
      if (!ok) out.exact = false;
      ++covered;
    }
    out.frames = covered;
    decode.push_back(static_cast<double>(decode_ns) / 1e3);
    encode.push_back(static_cast<double>(encode_ns) / 1e3);
  }
  out.decode_us = Median(decode);
  out.encode_us = Median(encode);
  return out;
}

double TimeProviderCounters(const std::vector<psi::ActionLog>& provider_logs,
                            size_t num_users,
                            const std::vector<psi::Arc>& omega,
                            const psi::Protocol4Config& config,
                            int repetitions) {
  std::vector<double> per_session_ms;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = Clock::now();
    for (const auto& log : provider_logs) {
      auto counters =
          psi::ComputeProviderCounterVector(log, num_users, omega, config);
      if (!counters.ok()) return -1.0;
    }
    per_session_ms.push_back(static_cast<double>(NanosSince(start)) / 1e6);
  }
  return Median(per_session_ms);
}

RsaTiming TimeRsa(uint64_t seed, size_t bits, int keygens, int ops) {
  RsaTiming out;
  psi::Rng rng(seed);
  std::vector<double> keygen_ms;
  psi::RsaKeyPair keys;
  for (int k = 0; k < keygens; ++k) {
    const auto start = Clock::now();
    auto generated = psi::RsaGenerateKeyPair(&rng, bits);
    keygen_ms.push_back(static_cast<double>(NanosSince(start)) / 1e6);
    if (!generated.ok()) {
      out.roundtrip_ok = false;
      return out;
    }
    keys = std::move(generated).ValueOrDie();
  }
  out.keygen_ms = Median(keygen_ms);

  std::vector<psi::BigUInt> plain;
  for (int i = 0; i < ops; ++i) {
    plain.push_back(psi::BigUInt(rng.NextU64()));
  }
  std::vector<psi::BigUInt> cipher(plain.size());
  auto start = Clock::now();
  for (size_t i = 0; i < plain.size(); ++i) {
    auto c = psi::RsaEncrypt(keys.public_key, plain[i]);
    if (!c.ok()) {
      out.roundtrip_ok = false;
      return out;
    }
    cipher[i] = std::move(c).ValueOrDie();
  }
  out.encrypt_us = static_cast<double>(NanosSince(start)) / 1e3 /
                   static_cast<double>(plain.size());
  start = Clock::now();
  for (size_t i = 0; i < cipher.size(); ++i) {
    auto m = psi::RsaDecrypt(keys.private_key, cipher[i]);
    if (!m.ok() || m.ValueOrDie() != plain[i]) out.roundtrip_ok = false;
  }
  out.decrypt_us = static_cast<double>(NanosSince(start)) / 1e3 /
                   static_cast<double>(cipher.size());
  return out;
}

}  // namespace perfbench
