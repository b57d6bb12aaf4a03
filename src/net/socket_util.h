// Shared plumbing for the socket transport: the client-side SocketNetwork
// (net/socket_transport.h) and the psid daemon (net/daemon.h) speak one
// length-prefixed message format over TCP, and both sides need the same
// non-blocking socket helpers and a monotonic clock. Everything here is
// transport-level: protocol payloads stay sealed in their CRC32 envelopes
// (net/envelope.h) and ride opaquely inside kData messages.
//
// Wire layout of one transport message (little-endian):
//
//   offset  size  field
//        0     4  magic "PSTR" (0x52545350)
//        4     1  kind (TransportMsgKind)
//        5     1  flags (kind-specific; kData: bit 0 = deliver-at-front)
//        6     2  reserved (zero)
//        8     4  body length in bytes
//       12     n  body
//
// Bodies are built with common/serialize.h. kData bodies carry a routing
// prefix [u32 from][u32 to] followed by the raw envelope frame.

#ifndef PSI_NET_SOCKET_UTIL_H_
#define PSI_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace psi {

/// \brief Transport message types (the `kind` header byte).
enum class TransportMsgKind : uint8_t {
  kChallenge = 1,    ///< daemon -> client: 16-byte auth nonce.
  kHello = 2,        ///< client -> daemon: auth digest + session + parties.
  kHelloAck = 3,     ///< daemon -> client: accept/reject verdict.
  kData = 4,         ///< either way: one routed envelope frame.
  kHeartbeat = 5,    ///< client -> daemon: liveness probe.
  kHeartbeatAck = 6, ///< daemon -> client: liveness answer.
  kGoodbye = 7,      ///< either way: orderly shutdown of the connection.
  kExec = 8,         ///< client -> daemon: run one stage program (body is a
                     ///< ProtocolId::kExec envelope; consumed by the daemon,
                     ///< never routed, never protocol-metered).
  kExecResult = 9,   ///< daemon -> client: the stage program's result
                     ///< envelope (empty body = no execution engine).
};

const char* TransportMsgKindToString(TransportMsgKind kind);

inline constexpr uint32_t kTransportMagic = 0x52545350u;  // "PSTR".
inline constexpr size_t kTransportHeaderBytes = 12;
/// Upper bound on one message body; a violation means a framing bug or a
/// hostile peer, and the connection is torn down rather than trusted.
inline constexpr uint32_t kMaxTransportBodyBytes = 1u << 24;
/// kData flag bit: deliver this frame at the front of the channel queue
/// (the fault injector's reorder action crossing the wire).
inline constexpr uint8_t kTransportFlagFront = 0x01;
/// kHello flag bit: this is a reconnect of a previously-admitted session,
/// not a fresh one (the daemon keeps the session's routing state).
inline constexpr uint8_t kTransportFlagResume = 0x01;
/// Size of the kChallenge nonce.
inline constexpr size_t kAuthNonceBytes = 16;

/// \brief One parsed transport message.
struct TransportMsg {
  TransportMsgKind kind = TransportMsgKind::kData;
  uint8_t flags = 0;
  std::vector<uint8_t> body;
};

/// \brief Serializes a message (header + body) ready for the wire.
std::vector<uint8_t> PackTransportMsg(TransportMsgKind kind, uint8_t flags,
                                      const std::vector<uint8_t>& body);

/// \brief Incremental parser for a TCP byte stream of transport messages.
/// Feed it whatever recv() produced; it re-frames across arbitrary
/// fragmentation. A malformed header (bad magic, oversized body) is a
/// permanent error: the stream has lost framing and the connection must be
/// dropped.
class TransportParser {
 public:
  void Append(const uint8_t* data, size_t len);

  /// \brief Extracts the next complete message into `out`. Returns true
  /// when one was produced, false when more bytes are needed.
  [[nodiscard]] Result<bool> Next(TransportMsg* out);

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  void Compact();

  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

/// \brief Milliseconds from a monotonic clock (never wall time).
uint64_t MonotonicMs();

/// \brief Sleeps the calling thread for `ms` milliseconds.
void SleepMs(uint64_t ms);

/// \brief Sleeps one step of seeded exponential backoff and returns the
/// milliseconds slept: d = min(base_ms << step, max_ms) (the shift capped at
/// 20) plus jitter drawn uniformly from [0, d) by one `rng` draw ([0, 1)
/// when d is 0).
uint64_t SleepBackoffMs(uint64_t base_ms, uint64_t max_ms, uint32_t step,
                        Rng* rng);

/// \brief Puts `fd` in non-blocking mode.
[[nodiscard]] Status SetNonBlocking(int fd);

/// \brief Disables Nagle batching on a TCP socket (latency over throughput:
/// protocol rounds are request/response shaped).
[[nodiscard]] Status SetNoDelay(int fd);

/// \brief Non-blocking write of as much of `queue` as the kernel accepts,
/// front to back. Fully-written buffers are popped; a partial write trims
/// the front buffer in place. Returns an error only for a dead socket
/// (EPIPE and friends), not for a full buffer.
[[nodiscard]] Status FlushSendQueue(int fd,
                                    std::deque<std::vector<uint8_t>>* queue);

/// \brief Non-blocking read of everything currently available on `fd` into
/// `parser`. Sets `*closed` when the peer performed an orderly shutdown
/// and adds the byte count to `*bytes_read` (when non-null). Returns an
/// error for a reset/broken connection.
[[nodiscard]] Status ReadAvailable(int fd, TransportParser* parser,
                                   bool* closed,
                                   size_t* bytes_read = nullptr);

}  // namespace psi

#endif  // PSI_NET_SOCKET_UTIL_H_
