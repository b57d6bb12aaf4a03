// Per-layer attribution measured from outside the library.
//
// Nothing here reaches into src/: every number comes from timing calls into
// a layer's public functions, or from overriding the virtual hooks the
// Network classes already expose (Transmit, Recv, WaitForPending and, on
// the socket backend, RemoteCall). A null tracer turns every override into
// a plain forward, which is how the end-to-end run executes.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mpc/link_influence_protocol.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// \brief Median of `v` (mean of the middle two for an even count; 0 if
/// empty).
double Median(std::vector<double> v);

/// \brief Per-session accumulators of the network-facing layers (one fresh
/// tracer per traced session).
struct Tracer {
  int64_t transmit_ns = 0;
  int64_t recv_ns = 0;
  int64_t wait_ns = 0;       ///< WaitForPending: blocked on the transport.
  int64_t exec_call_ns = 0;  ///< RemoteCall: one remote stage round trip.
  uint64_t frames = 0;       ///< Transmit calls (metered sends).
  uint64_t frame_bytes = 0;
  uint64_t exec_calls = 0;
  /// (label, start) of every BeginRound, in order.
  std::vector<std::pair<std::string, Clock::time_point>> rounds;
  /// When set, Transmit keeps a copy of every sealed frame.
  bool capture = false;
  std::vector<std::vector<uint8_t>> captured;
};

/// \brief `Base` with its transport hooks timed into the tracer that
/// `*slot` points at (no-op forwarding while it is null). The round
/// observer is installed by the owner via SetRoundObserver.
template <class Base>
class Traced : public Base {
 public:
  template <class... Args>
  explicit Traced(Tracer* const* slot, Args&&... args)
      : Base(std::forward<Args>(args)...), slot_(slot) {}

  [[nodiscard]] psi::Result<std::vector<uint8_t>> Recv(
      psi::PartyId to, psi::PartyId from) override {
    Tracer* t = *slot_;
    if (t == nullptr) return Base::Recv(to, from);
    const auto start = Clock::now();
    auto got = Base::Recv(to, from);
    t->recv_ns += NanosSince(start);
    return got;
  }

 protected:
  [[nodiscard]] psi::Status Transmit(psi::PartyId from, psi::PartyId to,
                                     std::vector<uint8_t> frame) override {
    Tracer* t = *slot_;
    if (t == nullptr) return Base::Transmit(from, to, std::move(frame));
    ++t->frames;
    t->frame_bytes += frame.size();
    if (t->capture) t->captured.push_back(frame);
    const auto start = Clock::now();
    psi::Status sent = Base::Transmit(from, to, std::move(frame));
    t->transmit_ns += NanosSince(start);
    return sent;
  }

  [[nodiscard]] psi::Status WaitForPending(psi::PartyId to, psi::PartyId from,
                                           uint64_t budget_ms) override {
    Tracer* t = *slot_;
    if (t == nullptr) return Base::WaitForPending(to, from, budget_ms);
    const auto start = Clock::now();
    psi::Status waited = Base::WaitForPending(to, from, budget_ms);
    t->wait_ns += NanosSince(start);
    return waited;
  }

  Tracer* const* slot_;
};

/// \brief The socket backend, with remote stage calls timed as well.
class TracedSocketNetwork : public Traced<psi::SocketNetwork> {
 public:
  using Traced<psi::SocketNetwork>::Traced;

  [[nodiscard]] psi::Result<std::vector<uint8_t>> RemoteCall(
      psi::PartyId party, const std::vector<uint8_t>& request_frame,
      uint64_t deadline_ms, uint64_t expected_seq) override {
    Tracer* t = *slot_;
    if (t == nullptr) {
      return SocketNetwork::RemoteCall(party, request_frame, deadline_ms,
                                       expected_seq);
    }
    ++t->exec_calls;
    const auto start = Clock::now();
    auto got = SocketNetwork::RemoteCall(party, request_frame, deadline_ms,
                                         expected_seq);
    t->exec_call_ns += NanosSince(start);
    return got;
  }
};

/// \brief Result of replaying one session's captured frames through a
/// layer: per-session time in each direction, and whether every frame
/// round-tripped to identical bytes.
struct ReplayTiming {
  double decode_us = 0.0;  ///< Median over repetitions, per session.
  double encode_us = 0.0;
  uint64_t frames = 0;     ///< Frames the layer covered.
  bool exact = true;       ///< Every re-encode equalled the original.
};

/// \brief OpenEnvelope then SealEnvelope on every captured frame.
ReplayTiming ReplayEnvelopes(const std::vector<std::vector<uint8_t>>& frames,
                             int repetitions);

/// \brief The mpc/wire codec each (protocol, step) uses, applied to the
/// payloads of the captured frames: Unpack* then Pack*. Frames whose
/// payload has no public codec (bit vectors, RSA keys, ciphertext
/// bundles, handshake counters) are skipped.
ReplayTiming ReplayWireCodecs(const std::vector<std::vector<uint8_t>>& frames,
                              psi::PartyId p1, psi::PartyId p2,
                              int repetitions);

/// \brief ComputeProviderCounterVector over every provider's log for one
/// Omega_E': milliseconds per session, median over repetitions.
double TimeProviderCounters(const std::vector<psi::ActionLog>& provider_logs,
                            size_t num_users,
                            const std::vector<psi::Arc>& omega,
                            const psi::Protocol4Config& config,
                            int repetitions);

/// \brief The crypto/rsa public calls at `bits`: key generation in ms,
/// encryption and decryption in microseconds per operation (medians).
struct RsaTiming {
  double keygen_ms = 0.0;
  double encrypt_us = 0.0;
  double decrypt_us = 0.0;
  bool roundtrip_ok = true;
};
RsaTiming TimeRsa(uint64_t seed, size_t bits, int keygens, int ops);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
