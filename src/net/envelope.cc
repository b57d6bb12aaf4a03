#include "net/envelope.h"

#include "common/serialize.h"

namespace psi {

const char* ProtocolIdToString(ProtocolId id) {
  switch (id) {
    case ProtocolId::kRaw: return "Raw";
    case ProtocolId::kSecureSum: return "SecureSum";
    case ProtocolId::kSecureDivision: return "SecureDivision";
    case ProtocolId::kLinkInfluence: return "LinkInfluence";
    case ProtocolId::kClassAggregation: return "ClassAggregation";
    case ProtocolId::kPropagationGraph: return "PropagationGraph";
    case ProtocolId::kHomomorphicSum: return "HomomorphicSum";
    case ProtocolId::kJointRandom: return "JointRandom";
    case ProtocolId::kSession: return "Session";
    case ProtocolId::kExec: return "Exec";
    case ProtocolId::kObliviousTransfer: return "ObliviousTransfer";
  }
  return "Unknown";
}

std::vector<uint8_t> SealEnvelope(ProtocolId protocol_id, uint16_t step,
                                  uint32_t sender, uint64_t seq,
                                  const std::vector<uint8_t>& payload) {
  BinaryWriter w;
  w.Reserve(payload.size() + kEnvelopeOverheadBytes);
  w.WriteU32(kEnvelopeMagic);
  w.WriteU8(kEnvelopeVersion);
  w.WriteU16(static_cast<uint16_t>(protocol_id));
  w.WriteU16(step);
  w.WriteU32(sender);
  w.WriteU64(seq);
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteRaw(payload.data(), payload.size());
  uint32_t crc = Crc32(w.buffer());
  w.WriteU32(crc);
  return w.TakeBuffer();
}

Result<Envelope> OpenEnvelope(const std::vector<uint8_t>& frame) {
  if (frame.size() < kEnvelopeOverheadBytes) {
    return Status::SerializationError("envelope: frame shorter than header");
  }
  BinaryReader r(frame);
  uint32_t magic;
  uint8_t version;
  uint16_t protocol_id, step;
  uint32_t sender, payload_len;
  uint64_t seq;
  PSI_RETURN_NOT_OK(r.ReadU32(&magic));
  if (magic != kEnvelopeMagic) {
    return Status::SerializationError("envelope: bad magic");
  }
  PSI_RETURN_NOT_OK(r.ReadU8(&version));
  if (version != kEnvelopeVersion) {
    return Status::SerializationError("envelope: unsupported version");
  }
  PSI_RETURN_NOT_OK(r.ReadU16(&protocol_id));
  PSI_RETURN_NOT_OK(r.ReadU16(&step));
  PSI_RETURN_NOT_OK(r.ReadU32(&sender));
  PSI_RETURN_NOT_OK(r.ReadU64(&seq));
  PSI_RETURN_NOT_OK(r.ReadU32(&payload_len));
  if (static_cast<uint64_t>(payload_len) + kEnvelopeOverheadBytes !=
      frame.size()) {
    return Status::SerializationError(
        "envelope: payload length does not match frame size");
  }
  uint32_t declared_crc;
  std::memcpy(&declared_crc, frame.data() + frame.size() - 4, 4);
  if (Crc32(frame.data(), frame.size() - 4) != declared_crc) {
    return Status::SerializationError("envelope: checksum mismatch");
  }
  Envelope env;
  env.protocol_id = static_cast<ProtocolId>(protocol_id);
  env.step = step;
  env.sender = sender;
  env.seq = seq;
  env.payload.assign(frame.begin() + 25, frame.end() - 4);
  return env;
}

Result<uint64_t> PeekEnvelopeSeq(const std::vector<uint8_t>& frame) {
  if (frame.size() < kEnvelopeOverheadBytes) {
    return Status::SerializationError("envelope: frame shorter than header");
  }
  uint32_t magic;
  std::memcpy(&magic, frame.data(), 4);
  if (magic != kEnvelopeMagic) {
    return Status::SerializationError("envelope: bad magic");
  }
  uint64_t seq;
  std::memcpy(&seq, frame.data() + 13, 8);
  return seq;
}

}  // namespace psi
