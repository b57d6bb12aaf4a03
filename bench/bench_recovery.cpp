// Recovery bench: what checkpointed sessions buy under a crash-restart.
//
// Runs Protocol 4 three ways on the same world and prints one JSON document
// (google-benchmark layout, so `tools/check_bench.py recovery` can index the
// rows by name):
//
//   recovery/no_fault      — session layer on a clean network: the control.
//                            One attempt, zero handshake traffic.
//   recovery/stage_resume  — a provider crashes mid-run and restarts; the
//                            orchestrator resumes from the last checkpoint.
//                            Checkpointed crypto work is never redone
//                            (crypto_ops_recomputed == 0) and the completed
//                            stages' ops show up as crypto_ops_saved.
//   recovery/full_restart  — identical crash schedule with
//                            resume_from_checkpoint off: the "no recovery
//                            layer" baseline that redoes every completed
//                            stage (crypto_ops_recomputed > 0).
//
// Every counter except real_time_ns is a deterministic meter (session stats
// and wire traffic), so the committed BENCH_recovery.json baseline gates
// regressions machine-independently. Both faulted runs must reproduce the
// fault-free influence estimates bit for bit; result_matches_fault_free
// records that.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_main.h"
#include "bench_util.h"
#include "influence/link_influence.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/session.h"
#include "net/fault.h"

namespace psi {
namespace bench {
namespace {

constexpr size_t kProviders = 3;
constexpr size_t kUsers = 16;
constexpr size_t kArcs = 50;
constexpr size_t kActions = 20;

struct RunOutcome {
  Result<LinkInfluence> result = Status::Internal("not run");
  SessionStats stats;
  TrafficReport traffic;
  double real_time_ns = 0.0;
};

// One full session run on `net` with fixed RNG seeds, so every scenario
// derives the same randomness and a recovered run can match the control
// bitwise.
RunOutcome RunP4Session(const World& w, Network* net,
                        const RetryPolicy& retry) {
  PartyId host = net->RegisterParty("H");
  std::vector<PartyId> providers;
  for (size_t k = 0; k < kProviders; ++k) {
    providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
  }
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.paillier_bits = 384;
  // The packed-Paillier aggregation is the crypto-heavy path where the
  // saved/recomputed ledger is non-trivial (the secure-sum path meters its
  // ops in the stage the crash interrupts, so nothing is ever "saved").
  cfg.aggregation = P4Aggregation::kPaillierPacked;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < kProviders; ++k) {
    rngs.push_back(std::make_unique<Rng>(1000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(501), pair_secret(502);
  LinkInfluenceProtocol proto(net, host, providers, cfg);
  RunOutcome out;
  auto start = std::chrono::steady_clock::now();
  out.result = proto.RunSession(*w.graph, kActions, w.provider_logs,
                                &host_rng, rng_ptrs, &pair_secret, retry,
                                &out.stats);
  auto stop = std::chrono::steady_clock::now();
  out.real_time_ns =
      std::chrono::duration<double, std::nano>(stop - start).count();
  out.traffic = net->Report();
  return out;
}

bool SameInfluence(const Result<LinkInfluence>& got,
                   const LinkInfluence& want) {
  if (!got.ok()) return false;
  const LinkInfluence& g = got.ValueOrDie();
  if (g.p.size() != want.p.size()) return false;
  for (size_t i = 0; i < g.p.size(); ++i) {
    if (g.p[i] != want.p[i]) return false;
  }
  return true;
}

void AddScenario(JsonReport* report, const char* name, const RunOutcome& r,
                 bool matches) {
  const SessionStats& s = r.stats;
  JsonFields& row = report->AddRow(name, r.real_time_ns);
  row.Count("ok", r.result.ok() ? 1 : 0);
  row.Count("result_matches_fault_free", matches ? 1 : 0);
  row.Count("attempts", s.attempts);
  row.Count("resumes", s.resumes);
  row.Count("stages_run", s.stages_run);
  row.Count("stages_resumed", s.stages_resumed);
  row.Count("checkpoints_written", s.checkpoints_written);
  row.Count("checkpoint_bytes", s.checkpoint_bytes);
  row.Count("backoff_rounds", s.backoff_rounds);
  row.Count("handshake_messages", s.handshake_messages);
  row.Count("handshake_bytes", s.handshake_bytes);
  row.Count("crypto_ops_total", s.crypto_ops_total);
  row.Count("crypto_ops_saved", s.crypto_ops_saved);
  row.Count("crypto_ops_recomputed", s.crypto_ops_recomputed);
  row.Count("wire_messages", r.traffic.num_messages);
  row.Count("wire_bytes", r.traffic.num_bytes);
  row.Count("wire_payload_bytes", r.traffic.num_payload_bytes);
}

FaultPlan CrashOnlyPlan(PartyId party, uint64_t after_round,
                        uint64_t restart_round) {
  FaultPlan plan;
  plan.crash = CrashSpec{party, after_round, restart_round};
  return plan;
}

int Run() {
  const uint64_t seed = BenchSeed(77);
  auto world = MakeWorld(kProviders, kUsers, kArcs, kActions, seed);
  const World& w = *world;

  RetryPolicy no_fault_policy;  // Defaults: resume on, 3 attempts.
  FaultyNetwork clean(FaultPlan::None());
  RunOutcome control = RunP4Session(w, &clean, no_fault_policy);
  if (!control.result.ok()) {
    std::fprintf(stderr, "FAIL: fault-free control run: %s\n",
                 control.result.status().message().c_str());
    return 1;
  }
  const LinkInfluence& truth = control.result.ValueOrDie();

  // Probe the crash window: the first provider restart that actually forces
  // a resume handshake. Round numbering may shift as protocols evolve, so
  // the bench searches instead of hard-coding a round index.
  RetryPolicy resume_policy;
  resume_policy.max_attempts = 4;
  RunOutcome resume;
  uint64_t crash_after = 0;
  bool found = false;
  for (uint64_t after = 1; after <= 10 && !found; ++after) {
    FaultyNetwork net(CrashOnlyPlan(/*party=*/1, after, after + 3));
    RunOutcome attempt = RunP4Session(w, &net, resume_policy);
    std::fprintf(stderr,
                 "probe after=%" PRIu64 ": ok=%d resumes=%u saved=%" PRIu64
                 " msg=%s\n",
                 after, attempt.result.ok() ? 1 : 0, attempt.stats.resumes,
                 attempt.stats.crypto_ops_saved,
                 attempt.result.ok()
                     ? ""
                     : attempt.result.status().message().c_str());
    if (attempt.result.ok() && attempt.stats.resumes > 0 &&
        attempt.stats.crypto_ops_saved > 0) {
      resume = std::move(attempt);
      crash_after = after;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr,
                 "FAIL: no crash window in rounds 1..10 forced a recovered "
                 "run; the probe needs widening\n");
    return 1;
  }

  RetryPolicy restart_policy = resume_policy;
  restart_policy.resume_from_checkpoint = false;
  FaultyNetwork net(CrashOnlyPlan(/*party=*/1, crash_after, crash_after + 3));
  RunOutcome full = RunP4Session(w, &net, restart_policy);

  JsonReport report("bench_recovery");
  JsonFields& context = report.context();
  context.Text("protocol", "link_influence (Protocol 4)");
  context.Count("providers", kProviders);
  context.Count("users", kUsers);
  context.Count("arcs", kArcs);
  context.Count("actions", kActions);
  context.Count("paillier_bits", 384);
  context.Count("seed", seed);
  context.Count("crash_party", 1);
  context.Count("crash_after_round", crash_after);
  context.Count("crash_restart_round", crash_after + 3);
  AddScenario(&report, "recovery/no_fault", control, /*matches=*/true);
  AddScenario(&report, "recovery/stage_resume", resume,
              SameInfluence(resume.result, truth));
  AddScenario(&report, "recovery/full_restart", full, SameInfluence(full.result, truth));
  report.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace psi

int main() { return psi::bench::Run(); }
