// Ablation A3 — the secret permutation in batched Protocol 2.
//
// Section 5.1: when P1/P2 run Protocol 2 for many counters in parallel, the
// third party may learn a bound on a few of them (Theorem 4.1). By permuting
// the transmitted counter order with a secret permutation, a leaked bound
// cannot be attributed to any specific counter. This bench quantifies
// attributability: with a deliberately small S (frequent leaks), how many of
// the slots on which P3 learned something can it map back to the right
// counter?

#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "mpc/secure_sum.h"
#include "privacy/leakage.h"

namespace psi {
namespace bench {
namespace {

void Run() {
  const size_t kCounters = 512;
  const uint64_t kSVal = 64;  // Tiny S: leaks are common, by design.
  const uint64_t kBound = 10;

  for (bool use_permutation : {false, true}) {
    Network net;
    PartyId host = net.RegisterParty("H");
    std::vector<PartyId> providers{net.RegisterParty("P1"),
                                   net.RegisterParty("P2")};
    Rng r1(1), r2(2), secret(3), inputs_rng(4);
    std::vector<Rng*> rngs{&r1, &r2};

    SecureSumConfig cfg;
    cfg.input_bound_a = BigUInt(kBound);
    cfg.modulus_s = BigUInt(kSVal);
    cfg.use_secret_permutation = use_permutation;

    std::vector<std::vector<uint64_t>> inputs(
        2, std::vector<uint64_t>(kCounters));
    for (size_t c = 0; c < kCounters; ++c) {
      inputs[0][c] = inputs_rng.UniformU64(5);
      inputs[1][c] = inputs_rng.UniformU64(5);
    }
    SecureSumProtocol proto(&net, providers, host, cfg);
    auto shares = proto.RunProtocol2(inputs, rngs, &secret, "a3.")
                      .ValueOrDie();
    (void)shares;

    // P3's view: slot t carried (s1, s2 + r). Count slots with a leak, and
    // how scrambled the transmitted counter order is: when the permutation
    // is off, slot t *is* counter t (P3 can attribute every leaked bound);
    // when on, the slot only matches its counter by coincidence of share
    // values (Z_S collisions), never by position.
    const auto& v = proto.views();
    size_t leaks = 0;
    for (size_t t = 0; t < kCounters; ++t) {
      BigUInt y = v.third_party_s1.Value(t) + v.third_party_masked_s2.Value(t);
      BigUInt z = (y >= BigUInt(kSVal)) ? y - BigUInt(kSVal) : y;
      LeakKind kind = ClassifyP3Observation(z, BigUInt(kBound), BigUInt(kSVal));
      if (kind != LeakKind::kNothing) ++leaks;
    }
    size_t positionally_aligned = 0;
    for (size_t t = 0; t < kCounters; ++t) {
      // Compare the transmitted slot content against the counter that the
      // protocol specification places there without a permutation.
      if (v.third_party_s1.Value(t) == v.player_share_vectors[0].Value(t)) {
        ++positionally_aligned;
      }
    }
    std::printf(
        "permutation %-3s : %4zu / %zu slots leaked a bound; transmitted\n"
        "                  order positionally aligned with counter order for\n"
        "                  %zu / %zu slots (%.1f%%)\n",
        use_permutation ? "ON" : "OFF", leaks, kCounters,
        positionally_aligned, kCounters,
        100.0 * static_cast<double>(positionally_aligned) /
            static_cast<double>(kCounters));
  }
  std::printf(
      "\n-> with the permutation OFF, slot order equals counter order, so\n"
      "   every leaked bound points at its counter; ON, alignment drops to\n"
      "   the Z_S collision baseline and a leaked bound cannot be attributed\n"
      "   — which is why Section 5.1 calls the residual leakage 'useless'.\n");
}

}  // namespace
}  // namespace bench
}  // namespace psi

int main() {
  psi::bench::PrintHeader(
      "Ablation A3 — secret permutation in batched Protocol 2 (Section 5.1)");
  psi::bench::Run();
  return 0;
}
