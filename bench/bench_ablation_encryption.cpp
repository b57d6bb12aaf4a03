// Ablation A4 — Protocol 6 encryption modes.
//
// The paper accounts one z-bit ciphertext per encrypted integer (z = 1024
// for RSA; Table 2). A production system would hybrid-encrypt each Delta
// vector instead (one RSA encapsulation + a stream cipher), shrinking both
// bandwidth and CPU time dramatically. This bench measures both modes plus
// the Paillier-based aggregation extension against Benaloh Protocol 1.

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "mpc/homomorphic_sum.h"
#include "mpc/propagation_protocol.h"
#include "mpc/secure_sum.h"

namespace psi {
namespace bench {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void EncryptionModes() {
  std::printf(
      "\n[A4] Protocol 6: per-integer RSA vs hybrid KEM (m=2, A=30, z=512)\n");
  std::printf("%14s %14s %12s %12s\n", "mode", "bytes", "wall (s)",
              "vs hybrid");
  uint64_t hybrid_bytes = 0;
  double hybrid_time = 0;
  for (auto mode : {Protocol6Config::EncryptionMode::kHybrid,
                    Protocol6Config::EncryptionMode::kPerInteger}) {
    auto world = MakeWorld(2, 50, 200, 30, /*seed=*/BenchSeed(11));
  World& w = *world;
    Protocol6Config cfg;
    cfg.rsa_bits = 512;
    cfg.encryption = mode;
    PropagationGraphProtocol proto(&w.net, w.host, w.providers, cfg);
    auto start = std::chrono::steady_clock::now();
    PSI_CHECK_OK(proto.Run(*w.graph, 30, w.provider_logs, w.host_rng.get(),
                           w.RngPtrs())
                     .status());
    double secs = Seconds(start);
    uint64_t bytes = w.net.Report().num_bytes;
    bool is_hybrid = mode == Protocol6Config::EncryptionMode::kHybrid;
    if (is_hybrid) {
      hybrid_bytes = bytes;
      hybrid_time = secs;
    }
    std::printf("%14s %14" PRIu64 " %12.3f %9.1fx/%.0fx\n",
                is_hybrid ? "hybrid" : "per-integer", bytes, secs,
                static_cast<double>(bytes) /
                    static_cast<double>(hybrid_bytes ? hybrid_bytes : bytes),
                hybrid_time > 0 ? secs / hybrid_time : 1.0);
  }
  std::printf(
      "-> Table 2's per-integer accounting is the upper envelope; hybrid\n"
      "   encryption removes the q-fold ciphertext blow-up entirely.\n");
}

void AggregationAlternatives() {
  std::printf(
      "\n[A4b] Share aggregation: Benaloh Protocol 1 vs Paillier extension\n"
      "(m providers, 64 counters)\n");
  std::printf("%4s | %10s %12s %10s | %10s %12s %10s\n", "m", "P1 msgs",
              "P1 bytes", "P1 (s)", "Hom msgs", "Hom bytes", "Hom (s)");
  for (size_t m : {3u, 5u, 8u}) {
    // Benaloh.
    Network net1;
    PartyId host = net1.RegisterParty("H");
    std::vector<PartyId> players;
    std::vector<std::unique_ptr<Rng>> rng_store;
    std::vector<Rng*> rngs;
    for (size_t k = 0; k < m; ++k) {
      players.push_back(net1.RegisterParty("P" + std::to_string(k)));
      rng_store.push_back(std::make_unique<Rng>(100 + k));
      rngs.push_back(rng_store.back().get());
    }
    std::vector<std::vector<uint64_t>> inputs(m,
                                              std::vector<uint64_t>(64, 3));
    SecureSumConfig cfg;
    cfg.input_bound_a = BigUInt(64 * 10);
    cfg.modulus_s = BigUInt::PowerOfTwo(512);  // Match Paillier modulus size.
    SecureSumProtocol benaloh(&net1, players, host, cfg);
    auto t1 = std::chrono::steady_clock::now();
    PSI_CHECK_OK(benaloh.RunProtocol1(inputs, rngs, "b.").status());
    double s1 = Seconds(t1);
    auto r1 = net1.Report();

    // Paillier (shares mod N, 512-bit N).
    Network net2;
    std::vector<PartyId> players2;
    for (size_t k = 0; k < m; ++k) {
      players2.push_back(net2.RegisterParty("P" + std::to_string(k)));
    }
    HomomorphicSumProtocol hom(&net2, players2, HomomorphicSumConfig{});
    auto t2 = std::chrono::steady_clock::now();
    PSI_CHECK_OK(hom.Run(inputs, rngs, "h.").status());
    double s2 = Seconds(t2);
    auto r2 = net2.Report();

    std::printf("%4zu | %10" PRIu64 " %12" PRIu64 " %10.4f | %10" PRIu64
                " %12" PRIu64 " %10.4f\n",
                m, r1.num_messages, r1.num_bytes, s1, r2.num_messages,
                r2.num_bytes, s2);
  }
  std::printf(
      "-> the homomorphic variant sends O(m) messages instead of O(m^2) but\n"
      "   pays Paillier exponentiations: bandwidth-bound deployments prefer\n"
      "   it, CPU-bound ones prefer Benaloh.\n");
}

}  // namespace
}  // namespace bench
}  // namespace psi

int main() {
  psi::bench::PrintHeader(
      "Ablation A4 — encryption/aggregation alternatives (Sec 7.1.2 + ext.)");
  psi::bench::EncryptionModes();
  psi::bench::AggregationAlternatives();
  return 0;
}
