// Typed message framing for the multiparty transport.
//
// Every framed message carries a fixed-size header plus a CRC-32 trailer so
// a receiver can establish, *before* handing bytes to a protocol decoder,
// that (a) the frame is intact (checksum), (b) it belongs to the protocol
// and step the receiver is executing (typed framing), (c) it came from the
// claimed sender, and (d) it is the next message in the channel's sequence
// (duplicate / reorder / loss detection).
//
// Wire layout (little-endian, kEnvelopeOverheadBytes = 29 bytes total):
//
//   offset size field
//        0    4 magic        0x50534631 ("PSF1")
//        4    1 version      kEnvelopeVersion
//        5    2 protocol_id  ProtocolId of the sending driver
//        7    2 step         driver-defined step tag
//        9    4 sender       PartyId of the originator
//       13    8 seq          per-(from,to)-channel sequence number
//       21    4 payload_len  byte length of the payload
//       25    n payload
//     25+n    4 crc32        CRC-32 over bytes [0, 25+n)
//
// The overhead is deliberately fixed-width (no varints) so the Table 1/2
// communication-cost accounting stays a closed form: wire bytes =
// payload bytes + 29 * messages.

#ifndef PSI_NET_ENVELOPE_H_
#define PSI_NET_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace psi {

/// \brief Dense party identifier assigned by Network::RegisterParty; the
/// envelope's sender field carries one.
using PartyId = uint32_t;

/// \brief Identifies which protocol driver produced a framed message.
enum class ProtocolId : uint16_t {
  kRaw = 0,                 ///< Unset: the default of an empty Envelope.
  kSecureSum = 1,           ///< Protocols 1-2 (mpc/secure_sum).
  kSecureDivision = 3,      ///< Protocol 3 (mpc/secure_division).
  kLinkInfluence = 4,       ///< Protocol 4 (mpc/link_influence_protocol).
  kClassAggregation = 5,    ///< Protocol 5 (mpc/class_aggregation).
  kPropagationGraph = 6,    ///< Protocol 6 (mpc/propagation_protocol).
  kHomomorphicSum = 7,      ///< Paillier extension (mpc/homomorphic_sum).
  kJointRandom = 8,         ///< Joint randomness rounds (mpc/joint_random).
  kSession = 9,             ///< Session resume handshake (mpc/session).
  kExec = 10,               ///< Remote stage execution (mpc/remote_exec).
  kObliviousTransfer = 11,  ///< 1-out-of-N OT (crypto/oblivious_transfer).
};

/// \brief Human-readable name of a protocol id ("SecureSum").
const char* ProtocolIdToString(ProtocolId id);

inline constexpr uint32_t kEnvelopeMagic = 0x50534631;  // "PSF1".
inline constexpr uint8_t kEnvelopeVersion = 1;

/// \brief Fixed framing overhead added to every enveloped message.
inline constexpr uint64_t kEnvelopeOverheadBytes = 29;

/// \brief A decoded frame: typed header plus the application payload.
struct Envelope {
  ProtocolId protocol_id = ProtocolId::kRaw;
  uint16_t step = 0;
  uint32_t sender = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

/// \brief Frames `payload` into the wire format described above.
std::vector<uint8_t> SealEnvelope(ProtocolId protocol_id, uint16_t step,
                                  uint32_t sender, uint64_t seq,
                                  const std::vector<uint8_t>& payload);

/// \brief Parses and validates a frame. Returns SerializationError on any
/// malformed input: short buffer, bad magic/version, length mismatch,
/// trailing bytes, or checksum failure. Never reads out of bounds.
[[nodiscard]] Result<Envelope> OpenEnvelope(const std::vector<uint8_t>& frame);

/// \brief Cheap peek at the sequence number of a sealed frame (no checksum
/// verification); used by fault layers to index retransmission stores.
/// Returns SerializationError if the buffer is too short or mistagged.
[[nodiscard]] Result<uint64_t> PeekEnvelopeSeq(const std::vector<uint8_t>& frame);

}  // namespace psi

#endif  // PSI_NET_ENVELOPE_H_
