#include "crypto/oblivious_transfer.h"

#include <algorithm>

#include "bigint/modular.h"
#include "common/serialize.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace psi {

namespace {

// Step tags for ProtocolId::kObliviousTransfer frames, one per round.
constexpr uint16_t kStepElements = 1;   // S -> R: x vectors.
constexpr uint16_t kStepBlinded = 2;    // R -> S: blinded choices.
constexpr uint16_t kStepEncrypted = 3;  // S -> R: encrypted messages.

// Derives a ChaCha20 pad of `len` bytes from a group element.
std::vector<uint8_t> PadFromElement(const BigUInt& element, size_t len) {
  auto digest = Sha256::Hash(element.ToLittleEndianBytes());
  std::array<uint8_t, ChaCha20Cipher::kKeySize> key;
  std::copy(digest.begin(), digest.end(), key.begin());
  std::array<uint8_t, ChaCha20Cipher::kNonceSize> nonce{};  // Single use key.
  ChaCha20Cipher cipher(key, nonce);
  std::vector<uint8_t> pad(len, 0);
  cipher.Process(&pad);
  return pad;
}

// Length-prefix + pad every message to a common size, so ciphertext sizes
// cannot reveal the receiver's choice.
std::vector<std::vector<uint8_t>> PadMessages(
    const std::vector<std::vector<uint8_t>>& messages, size_t* padded_len) {
  size_t max_len = 0;
  for (const auto& m : messages) max_len = std::max(max_len, m.size());
  *padded_len = max_len + 4;  // 4-byte length prefix.
  std::vector<std::vector<uint8_t>> out;
  out.reserve(messages.size());
  for (const auto& m : messages) {
    std::vector<uint8_t> padded(*padded_len, 0);
    auto len32 = static_cast<uint32_t>(m.size());
    padded[0] = static_cast<uint8_t>(len32 & 0xff);
    padded[1] = static_cast<uint8_t>((len32 >> 8) & 0xff);
    padded[2] = static_cast<uint8_t>((len32 >> 16) & 0xff);
    padded[3] = static_cast<uint8_t>((len32 >> 24) & 0xff);
    std::copy(m.begin(), m.end(), padded.begin() + 4);
    out.push_back(std::move(padded));
  }
  return out;
}

[[nodiscard]] Result<std::vector<uint8_t>> UnpadMessage(const std::vector<uint8_t>& padded) {
  if (padded.size() < 4) return Status::CryptoError("OT message too short");
  uint32_t len = static_cast<uint32_t>(padded[0]) |
                 (static_cast<uint32_t>(padded[1]) << 8) |
                 (static_cast<uint32_t>(padded[2]) << 16) |
                 (static_cast<uint32_t>(padded[3]) << 24);
  if (len > padded.size() - 4) {
    return Status::CryptoError("OT message length prefix corrupt");
  }
  return std::vector<uint8_t>(padded.begin() + 4, padded.begin() + 4 + len);
}

}  // namespace

Result<std::vector<std::vector<uint8_t>>> RunObliviousTransfers(
    Network* network, PartyId sender, PartyId receiver,
    const std::vector<std::vector<uint8_t>>& messages,
    const std::vector<size_t>& choices, const RsaKeyPair& sender_keys,
    Rng* sender_rng, Rng* receiver_rng, const std::string& label) {
  const size_t count_n = messages.size();
  if (count_n == 0) return Status::InvalidArgument("no messages to transfer");
  for (size_t b : choices) {
    if (b >= count_n) return Status::InvalidArgument("choice out of range");
  }
  const BigUInt& modulus = sender_keys.public_key.n;
  const size_t num_transfers = choices.size();

  // Round 1: per transfer, N fresh random group elements.
  network->BeginRound(label + "OT.Round1 (S -> R: x vectors)");
  std::vector<std::vector<BigUInt>> xs(num_transfers);
  {
    BinaryWriter w;
    w.WriteVarU64(num_transfers);
    w.WriteVarU64(count_n);
    for (auto& vec : xs) {
      vec.resize(count_n);
      for (auto& x : vec) {
        x = BigUInt::RandomBelow(sender_rng, modulus);
        WriteBigUInt(&w, x);
      }
    }
    PSI_RETURN_NOT_OK(network->SendFramed(sender, receiver,
                                          ProtocolId::kObliviousTransfer,
                                          kStepElements, w.TakeBuffer()));
  }
  PSI_ASSIGN_OR_RETURN(auto r1_buf,
                       network->RecvValidated(receiver, sender,
                                              ProtocolId::kObliviousTransfer,
                                              kStepElements));
  std::vector<std::vector<BigUInt>> r_xs(num_transfers);
  {
    BinaryReader r(r1_buf);
    uint64_t t, n_msgs;
    PSI_RETURN_NOT_OK(r.ReadVarU64(&t));
    PSI_RETURN_NOT_OK(r.ReadVarU64(&n_msgs));
    if (t != num_transfers || n_msgs != count_n) {
      return Status::ProtocolError("OT round-1 shape mismatch");
    }
    for (auto& vec : r_xs) {
      vec.resize(count_n);
      for (auto& x : vec) PSI_RETURN_NOT_OK(ReadBigUInt(&r, &x));
    }
    if (!r.AtEnd()) return Status::ProtocolError("OT round-1 trailing bytes");
  }

  // Round 2: receiver blinds its choices: v = x_b + k^e.
  network->BeginRound(label + "OT.Round2 (R -> S: blinded choices)");
  std::vector<BigUInt> secrets(num_transfers);
  {
    BinaryWriter w;
    w.WriteVarU64(num_transfers);
    for (size_t t = 0; t < num_transfers; ++t) {
      secrets[t] = BigUInt::RandomBelow(receiver_rng, modulus);
      PSI_ASSIGN_OR_RETURN(BigUInt k_enc,
                           RsaEncrypt(sender_keys.public_key, secrets[t]));
      BigUInt v = ModAdd(r_xs[t][choices[t]] % modulus, k_enc, modulus);
      WriteBigUInt(&w, v);
    }
    PSI_RETURN_NOT_OK(network->SendFramed(receiver, sender,
                                          ProtocolId::kObliviousTransfer,
                                          kStepBlinded, w.TakeBuffer()));
  }
  PSI_ASSIGN_OR_RETURN(auto r2_buf,
                       network->RecvValidated(sender, receiver,
                                              ProtocolId::kObliviousTransfer,
                                              kStepBlinded));
  std::vector<BigUInt> vs(num_transfers);
  {
    BinaryReader r(r2_buf);
    uint64_t t;
    PSI_RETURN_NOT_OK(r.ReadVarU64(&t));
    if (t != num_transfers) {
      return Status::ProtocolError("OT round-2 shape mismatch");
    }
    for (auto& v : vs) {
      PSI_RETURN_NOT_OK(ReadBigUInt(&r, &v));
      if (v >= modulus) {
        return Status::ProtocolError("OT round-2 blinded choice out of range");
      }
    }
    if (!r.AtEnd()) return Status::ProtocolError("OT round-2 trailing bytes");
  }

  // Round 3: sender encrypts every message under every candidate key.
  size_t padded_len = 0;
  auto padded = PadMessages(messages, &padded_len);
  network->BeginRound(label + "OT.Round3 (S -> R: encrypted messages)");
  {
    BinaryWriter w;
    w.WriteVarU64(num_transfers);
    w.WriteVarU64(count_n);
    w.WriteVarU64(padded_len);
    for (size_t t = 0; t < num_transfers; ++t) {
      for (size_t i = 0; i < count_n; ++i) {
        BigUInt diff = ModSub(vs[t], xs[t][i] % modulus, modulus);
        PSI_ASSIGN_OR_RETURN(BigUInt key_i,
                             RsaDecrypt(sender_keys.private_key, diff));
        auto pad = PadFromElement(key_i, padded_len);
        std::vector<uint8_t> ct = padded[i];
        for (size_t b = 0; b < padded_len; ++b) ct[b] ^= pad[b];
        w.WriteRaw(ct.data(), ct.size());
      }
    }
    PSI_RETURN_NOT_OK(network->SendFramed(sender, receiver,
                                          ProtocolId::kObliviousTransfer,
                                          kStepEncrypted, w.TakeBuffer()));
  }

  // Receiver decrypts its chosen slots.
  PSI_ASSIGN_OR_RETURN(auto r3_buf,
                       network->RecvValidated(receiver, sender,
                                              ProtocolId::kObliviousTransfer,
                                              kStepEncrypted));
  BinaryReader r(r3_buf);
  uint64_t t_count, n_msgs, plen;
  PSI_RETURN_NOT_OK(r.ReadVarU64(&t_count));
  PSI_RETURN_NOT_OK(r.ReadVarU64(&n_msgs));
  PSI_RETURN_NOT_OK(r.ReadVarU64(&plen));
  if (t_count != num_transfers || n_msgs != count_n) {
    return Status::ProtocolError("OT round-3 shape mismatch");
  }
  // Every slot is plen bytes of this frame: a length the frame cannot hold
  // is rejected before it sizes an allocation.
  if (plen > r.remaining()) {
    return Status::ProtocolError("OT round-3 slot length exceeds the frame");
  }
  std::vector<std::vector<uint8_t>> out;
  out.reserve(num_transfers);
  std::vector<uint8_t> slot(plen);
  for (size_t t = 0; t < num_transfers; ++t) {
    std::vector<uint8_t> chosen;
    for (size_t i = 0; i < count_n; ++i) {
      if (r.remaining() < plen) {
        return Status::ProtocolError("OT round-3 truncated");
      }
      // Consume the slot bytes.
      for (size_t b = 0; b < plen; ++b) {
        uint8_t byte;
        PSI_RETURN_NOT_OK(r.ReadU8(&byte));
        slot[b] = byte;
      }
      if (i == choices[t]) chosen = slot;
    }
    auto pad = PadFromElement(secrets[t], plen);
    for (size_t b = 0; b < plen; ++b) chosen[b] ^= pad[b];
    PSI_ASSIGN_OR_RETURN(auto message, UnpadMessage(chosen));
    out.push_back(std::move(message));
  }
  if (!r.AtEnd()) return Status::ProtocolError("OT round-3 trailing bytes");
  return out;
}

}  // namespace psi
