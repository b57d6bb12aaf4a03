// psi_perfbench: the repository benchmark.
//
//   psi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spawned-at <ns>] [--setup-only]
//
// One process runs one workload as a closed loop with a single client: one
// protocol session in flight at a time, session i drawing every party RNG
// from (seed, i). Every session is checked against the plaintext baseline
// and the cost model. Informational lines start with "# "; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, from a run in which every other session is traced.
// setup_s is this process's cold set-up, from --spawned-at (CLOCK_MONOTONIC
// nanoseconds read by the parent just before it spawned this process) or
// else from main() to the first timed session. --setup-only stops there.
// perfbench/README.md documents every workload and metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "bigint/limb_kernel.h"
#include "common/thread_pool.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

// At least ten sessions beyond the tail; peak RSS is read after this many
// timed sessions, so it does not grow with how many fit in the window (the
// socket backend keeps every sent frame for retransmission).
constexpr uint64_t kMinTimedSessions = 40;
constexpr size_t kTailBlock = 100;  // Sessions per session_ms.tail block.
constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 40;
constexpr size_t kRoundMetrics = 13;   // p4_resume's NR; P4 has 8, P6 4.
constexpr int kReplayRepetitions = 21;
constexpr size_t kMeteringCompareSessions = 3;
// pool.*: traced p6_paper re-runs this many sessions with the pool at this
// many threads (the gated window runs one; README.md, "Steadiness").
constexpr size_t kPoolProbeThreads = 3;
constexpr uint64_t kPoolProbeSessions = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int64_t spawned_at_ns = -1;  ///< CLOCK_MONOTONIC; -1 = time from main().
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
      if (args->trace != 0 && args->trace != 1) return false;
    } else if (flag == "--spawned-at") {
      args->spawned_at_ns = std::strtoll(value, &end, 10);
      if (*end != '\0' || args->spawned_at_ns < 0) return false;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CLOCK_MONOTONIC in nanoseconds: the clock Python's
/// time.clock_gettime_ns(time.CLOCK_MONOTONIC) reads in the parent.
int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

rusage Usage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u;
}

/// Per-round durations of one traced session: [0] is the time before the
/// first round, [k] round k. Rounds end where the next begins; the last
/// ends when RunSession returned.
std::vector<double> RoundSpans(const Tracer& t, Clock::time_point start,
                               Clock::time_point end) {
  std::vector<double> spans;
  Clock::time_point prev = start;
  for (const auto& round : t.rounds) {
    spans.push_back(Ms(round.second - prev));
    prev = round.second;
  }
  spans.push_back(Ms(end - prev));
  return spans;
}

/// session.resume_ms: from the start of the round that failed (the one
/// before the first backoff/resume round) to the end of the handshake.
double ResumeSpanMs(const Tracer& t, Clock::time_point end) {
  size_t first = t.rounds.size(), handshake = t.rounds.size();
  for (size_t k = 0; k < t.rounds.size(); ++k) {
    const std::string& label = t.rounds[k].first;
    const bool backoff = label.find(".backoff (") != std::string::npos;
    const bool resume = label.find(".resume (") != std::string::npos;
    if ((backoff || resume) && first == t.rounds.size()) first = k;
    if (resume) handshake = k;
  }
  if (first == 0 || handshake == t.rounds.size()) return 0.0;
  const Clock::time_point stop =
      handshake + 1 < t.rounds.size() ? t.rounds[handshake + 1].second : end;
  return Ms(stop - t.rounds[first - 1].second);
}

struct Sample {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  bool traced = false;
  psi::TrafficReport traffic;
  psi::SessionStats stats;
  double minflt = 0.0;
  double ctx_invol = 0.0;
  // Traced sessions only.
  std::vector<double> spans;
  double resume_ms = 0.0;
  Tracer trace;  // Scalars only; captured frames are moved out.
  psi::TransportStats transport;  // Delta over the session.
};

psi::TransportStats Delta(const psi::TransportStats& a,
                          const psi::TransportStats& b) {
  psi::TransportStats d;
  d.reconnects = b.reconnects - a.reconnects;
  d.heartbeats_sent = b.heartbeats_sent - a.heartbeats_sent;
  d.wire_bytes_tx = b.wire_bytes_tx - a.wire_bytes_tx;
  d.wire_bytes_rx = b.wire_bytes_rx - a.wire_bytes_rx;
  d.exec_calls = b.exec_calls - a.exec_calls;
  d.exec_bytes_tx = b.exec_bytes_tx - a.exec_bytes_tx;
  d.exec_bytes_rx = b.exec_bytes_rx - a.exec_bytes_rx;
  return d;
}

bool SameReport(const psi::TrafficReport& a, const psi::TrafficReport& b) {
  if (a.num_rounds != b.num_rounds || a.num_messages != b.num_messages ||
      a.num_bytes != b.num_bytes ||
      a.num_payload_bytes != b.num_payload_bytes ||
      a.rounds.size() != b.rounds.size()) {
    return false;
  }
  for (size_t k = 0; k < a.rounds.size(); ++k) {
    const psi::RoundStats& x = a.rounds[k];
    const psi::RoundStats& y = b.rounds[k];
    if (x.label != y.label || x.num_messages != y.num_messages ||
        x.num_bytes != y.num_bytes ||
        x.num_payload_bytes != y.num_payload_bytes) {
      return false;
    }
  }
  return true;
}

/// Metrics in output order: (name, value, unit).
class Metrics {
 public:
  void Add(std::string name, double value, const char* unit) {
    entries_.emplace_back(std::move(name), value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, value, unit] : entries_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", name.c_str(),
                    std::isfinite(value) ? value : 0.0, unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::tuple<std::string, double, const char*>> entries_;
};

template <class F>
double MeanOf(const std::vector<const Sample*>& samples, F field) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const Sample* s : samples) sum += static_cast<double>(field(*s));
  return sum / static_cast<double>(samples.size());
}

template <class F>
double MedianOf(const std::vector<const Sample*>& samples, F field) {
  std::vector<double> v;
  for (const Sample* s : samples) v.push_back(static_cast<double>(field(*s)));
  return Median(v);
}

/// Everything the timed window leaves behind for the metrics and checks.
struct Window {
  std::vector<Sample> samples;
  std::vector<const Sample*> traced, untraced;
  std::vector<std::vector<uint8_t>> captured;  ///< First traced session.
  std::vector<std::string> round_labels;
  SessionOutcome last;  ///< Last successful session.
  uint64_t failed = 0;
  std::string first_failure;
  double seconds = 0.0;
  double rss_first_mb = 0.0;  ///< Peak RSS after the first session.
  double rss_peak_mb = 0.0;   ///< ... after kMinTimedSessions sessions.
  double rss_last_mb = 0.0;   ///< ... at the end of the window.
};

Window RunWindow(const WorkloadSpec& spec, const World& world, Deployment* deployment,
                 const Args& args) {
  Window w;
  const psi::TransportStats* transport = deployment->transport_stats();
  const auto window_start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    if (i >= kMinTimedSessions && Ms(Clock::now() - window_start) >= args.seconds * 1e3) {
      break;
    }
    Sample s;
    s.traced = args.trace == 1 && i % 2 == 0;
    Tracer tracer;
    tracer.capture = s.traced && w.captured.empty();
    const psi::TransportStats transport_before =
        transport != nullptr ? *transport : psi::TransportStats{};
    const rusage usage_before = Usage();
    const double cpu_before = CpuMs();
    const auto start = Clock::now();
    SessionOutcome out = deployment->Run(i, s.traced ? &tracer : nullptr);
    const auto returned = Clock::now();
    const std::string failure = CheckSession(spec, world, out);
    s.wall_ms = Ms(Clock::now() - start);
    s.cpu_ms = CpuMs() - cpu_before;
    const rusage usage_after = Usage();
    s.minflt = static_cast<double>(usage_after.ru_minflt - usage_before.ru_minflt);
    s.ctx_invol = static_cast<double>(usage_after.ru_nivcsw - usage_before.ru_nivcsw);
    const double rss_mb = static_cast<double>(usage_after.ru_maxrss) / 1024.0;
    if (i == 0) w.rss_first_mb = rss_mb;
    if (i + 1 == kMinTimedSessions) w.rss_peak_mb = rss_mb;
    if (!failure.empty() && w.failed++ == 0) {
      w.first_failure = "session " + std::to_string(i) + ": " + failure;
    }
    if (s.traced) {
      s.spans = RoundSpans(tracer, start, returned);
      s.resume_ms = ResumeSpanMs(tracer, returned);
      if (w.round_labels.empty()) {
        for (const auto& round : tracer.rounds) w.round_labels.push_back(round.first);
      }
      if (tracer.capture) w.captured = std::move(tracer.captured);
      tracer.captured.clear();
      tracer.rounds.clear();
      s.trace = tracer;
      if (transport != nullptr) s.transport = Delta(transport_before, *transport);
    }
    s.traffic = std::move(out.traffic);
    s.stats = out.stats;
    w.samples.push_back(std::move(s));
    if (out.status.ok()) w.last = std::move(out);
  }
  w.seconds = Ms(Clock::now() - window_start) / 1e3;
  w.rss_last_mb = static_cast<double>(Usage().ru_maxrss) / 1024.0;
  for (const Sample& s : w.samples) (s.traced ? w.traced : w.untraced).push_back(&s);
  return w;
}

/// Prints "# check <name>: ok|FAILED" and folds the verdict into `correct`.
class Checks {
 public:
  void Add(const char* name, bool ok, const std::string& detail) {
    std::printf("# check %s: %s%s%s\n", name, ok ? "ok" : "FAILED",
                detail.empty() ? "" : " - ", detail.c_str());
    all_ok_ = all_ok_ && ok;
  }
  bool all_ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

/// session_ms.tail: the run is cut into blocks of consecutive sessions, at
/// least kTailBlock each; in every block the tail is the highest percentile
/// with ten sessions beyond it (the 11th slowest), and the run reports the
/// median over blocks. One 11th-slowest over a whole run of ~1000 sessions
/// is set by whichever sub-second stall the shared machine had, and its
/// run-to-run spread was 0.15-0.43; the block median follows the tail the
/// sessions keep showing.
double BlockTailMs(const std::vector<Sample>& samples, size_t* blocks) {
  const size_t n = samples.size();
  *blocks = std::max<size_t>(1, n / kTailBlock);
  std::vector<double> tails;
  for (size_t b = 0; b < *blocks; ++b) {
    std::vector<double> wall;
    for (size_t i = b * n / *blocks; i < (b + 1) * n / *blocks; ++i) {
      wall.push_back(samples[i].wall_ms);
    }
    std::sort(wall.begin(), wall.end());
    tails.push_back(wall[wall.size() - 11]);
  }
  return Median(tails);
}

void AddEndToEnd(const Window& w, double setup_s, Metrics* metrics) {
  std::vector<double> wall;
  for (const Sample& s : w.samples) wall.push_back(s.wall_ms);
  const size_t n = wall.size();
  size_t blocks = 0;
  const double tail_ms = BlockTailMs(w.samples, &blocks);
  std::printf("# session_ms.tail: median over %zu blocks of %zu-%zu sessions of each "
              "block's 11th slowest (p%.1f or above); %zu sessions\n",
              blocks, n / blocks, (n + blocks - 1) / blocks,
              100.0 * (1.0 - 10.0 / static_cast<double>(n / blocks)), n);
  std::vector<const Sample*> all;
  for (const Sample& s : w.samples) all.push_back(&s);
  metrics->Add("session_ms.p50", Median(wall), "ms");
  metrics->Add("session_ms.tail", tail_ms, "ms");
  metrics->Add("cpu_ms.p50", MedianOf(all, [](auto& s) { return s.cpu_ms; }), "ms");
  metrics->Add("wire_bytes",
               MeanOf(all, [](auto& s) { return s.traffic.num_bytes; }), "B");
  metrics->Add("wire_messages",
               MeanOf(all, [](auto& s) { return s.traffic.num_messages; }),
               "count");
  metrics->Add("rounds",
               MeanOf(all, [](auto& s) { return s.traffic.num_rounds; }), "count");
  metrics->Add("peak_rss_mb", w.rss_peak_mb, "MB");
  metrics->Add("setup_s", setup_s, "s");
}

/// Sessions 0..kPoolProbeSessions-1 again with the pool at
/// kPoolProbeThreads threads: CPU time ÷ wall time and wall time of each.
struct PoolProbe {
  double parallelism = 0.0;  ///< Median.
  double session_ms = 0.0;   ///< Median.
  uint64_t failed = 0;
};

PoolProbe ProbePool(const WorkloadSpec& spec, const World& world, Deployment* deployment) {
  psi::ThreadPool& pool = psi::ThreadPool::Global();
  const size_t threads = pool.num_threads();
  pool.SetNumThreads(kPoolProbeThreads);
  std::vector<double> parallelism, wall;
  PoolProbe probe;
  for (uint64_t i = 0; i < kPoolProbeSessions; ++i) {
    const double cpu_before = CpuMs();
    const auto start = Clock::now();
    const SessionOutcome out = deployment->Run(i, nullptr);
    const double wall_ms = Ms(Clock::now() - start);
    parallelism.push_back((CpuMs() - cpu_before) / wall_ms);
    wall.push_back(wall_ms);
    if (!CheckSession(spec, world, out).empty()) ++probe.failed;
  }
  pool.SetNumThreads(threads);
  probe.parallelism = Median(parallelism);
  probe.session_ms = Median(wall);
  return probe;
}

void AddPerLayer(const WorkloadSpec& spec, const World& world, Deployment* deployment,
                 const Window& w, uint64_t seed, Checks* checks, Metrics* metrics) {
  const std::vector<const Sample*>& traced = w.traced;
  const bool remote = spec.transport == Transport::kSocketRemote;
  double worst_gap = 0.0;
  uint64_t count_mismatches = 0;
  for (const Sample* s : traced) {
    double sum = 0.0;
    for (double span : s->spans) sum += span;
    worst_gap = std::max(worst_gap, std::fabs(s->wall_ms - sum) / s->wall_ms);
    if (s->trace.frames != s->traffic.num_messages ||
        s->trace.frame_bytes != s->traffic.num_bytes ||
        (remote && s->trace.exec_calls != s->transport.exec_calls)) {
      ++count_mismatches;
    }
  }
  char gap[96];
  std::snprintf(gap, sizeof(gap), "worst gap %.3f%% over %zu sessions", 100.0 * worst_gap,
                traced.size());
  checks->Add("round_spans_reconcile_within_5pct", worst_gap <= 0.05, gap);
  checks->Add("layer_counts_equal_traffic_report", count_mismatches == 0,
              std::to_string(count_mismatches) + " mismatching sessions");
  checks->Add("rounds_fit_metrics", w.round_labels.size() <= kRoundMetrics,
              std::to_string(w.round_labels.size()) + " rounds");
  for (size_t k = 0; k < w.round_labels.size(); ++k) {
    std::printf("# round.%zu: %s\n", k + 1, w.round_labels[k].c_str());
  }

  auto median = [&traced](auto field) { return MedianOf(traced, field); };
  auto mean = [&traced](auto field) { return MeanOf(traced, field); };
  metrics->Add("round.pre_ms", median([](auto& s) { return s.spans.front(); }), "ms");
  for (size_t k = 1; k <= kRoundMetrics; ++k) {
    metrics->Add("round." + std::to_string(k) + "_ms", median([k](auto& s) {
                   return k < s.spans.size() ? s.spans[k] : 0.0;
                 }),
                 "ms");
  }
  metrics->Add("net.transmit_us",
               median([](auto& s) { return s.trace.transmit_ns / 1e3; }),
               "us");
  metrics->Add("net.recv_us",
               median([](auto& s) { return s.trace.recv_ns / 1e3; }), "us");
  metrics->Add("net.frames", mean([](auto& s) { return s.trace.frames; }), "count");
  metrics->Add("net.frame_bytes", mean([](auto& s) { return s.trace.frame_bytes; }), "B");

  const ReplayTiming envelopes = ReplayEnvelopes(w.captured, kReplayRepetitions);
  checks->Add("envelope_replay_exact", envelopes.exact,
              std::to_string(envelopes.frames) + " frames");
  metrics->Add("net.envelope_open_us", envelopes.decode_us, "us");
  metrics->Add("net.envelope_seal_us", envelopes.encode_us, "us");
  const ReplayTiming codecs =
      ReplayWireCodecs(w.captured, deployment->provider(0), deployment->provider(1),
                       kReplayRepetitions);
  checks->Add("wire_codec_replay_exact", codecs.exact,
              std::to_string(codecs.frames) + " of " + std::to_string(w.captured.size()) +
                  " frames have a wire codec");
  metrics->Add("wire.decode_us", codecs.decode_us, "us");
  metrics->Add("wire.encode_us", codecs.encode_us, "us");

  double counters_ms = 0.0;
  if (spec.protocol == Protocol::kP4) {
    counters_ms = TimeProviderCounters(world.provider_logs, spec.users, w.last.omega,
                                       P4Config(), 5);
    checks->Add("provider_counters_ok", counters_ms >= 0.0, "");
  }
  metrics->Add("actionlog.counters_ms", counters_ms, "ms");

  RsaTiming rsa;
  if (spec.protocol == Protocol::kP6) {
    rsa = TimeRsa(seed, kRsaBits, 5, 200);
    checks->Add("rsa_roundtrip", rsa.roundtrip_ok, "");
  }
  metrics->Add("crypto.rsa_keygen_ms", rsa.keygen_ms, "ms");
  metrics->Add("crypto.rsa_encrypt_us", rsa.encrypt_us, "us");
  metrics->Add("crypto.rsa_decrypt_us", rsa.decrypt_us, "us");
  metrics->Add("crypto.ciphertexts", static_cast<double>(w.last.ciphertexts), "count");

  // P6 is where the pool works; the P4 workloads report their own sessions.
  PoolProbe pool{median([](auto& s) { return s.cpu_ms / s.wall_ms; }), 0.0, 0};
  size_t pool_threads = psi::ThreadPool::Global().num_threads();
  if (spec.protocol == Protocol::kP6) {
    pool = ProbePool(spec, world, deployment);
    pool_threads = kPoolProbeThreads;
    checks->Add("pool_sessions_correct", pool.failed == 0,
                std::to_string(pool.failed) + " of " + std::to_string(kPoolProbeSessions) +
                    " sessions at " + std::to_string(kPoolProbeThreads) + " threads failed");
  }
  metrics->Add("pool.threads", static_cast<double>(pool_threads), "count");
  metrics->Add("pool.parallelism", pool.parallelism, "ratio");
  metrics->Add("pool.session_ms", pool.session_ms, "ms");

  metrics->Add("session.checkpoint_bytes",
               mean([](auto& s) { return s.stats.checkpoint_bytes; }), "B");
  metrics->Add("session.checkpoints_written",
               mean([](auto& s) { return s.stats.checkpoints_written; }), "count");
  metrics->Add("session.stages_run", mean([](auto& s) { return s.stats.stages_run; }),
               "count");
  metrics->Add("session.stages_resumed",
               mean([](auto& s) { return s.stats.stages_resumed; }), "count");
  metrics->Add("session.handshake_messages",
               mean([](auto& s) { return s.stats.handshake_messages; }), "count");
  metrics->Add("session.handshake_bytes",
               mean([](auto& s) { return s.stats.handshake_bytes; }), "B");
  metrics->Add("session.backoff_rounds",
               mean([](auto& s) { return s.stats.backoff_rounds; }), "count");
  metrics->Add("session.crypto_ops",
               mean([](auto& s) { return s.stats.crypto_ops_total; }),
               "count");
  metrics->Add("session.crypto_ops_recomputed",
               mean([](auto& s) { return s.stats.crypto_ops_recomputed; }), "count");
  metrics->Add("session.resume_ms", median([](auto& s) { return s.resume_ms; }), "ms");

  metrics->Add("transport.wait_ms", median([](auto& s) { return s.trace.wait_ns / 1e6; }),
               "ms");
  metrics->Add("transport.exec_call_ms",
               median([](auto& s) { return s.trace.exec_call_ns / 1e6; }), "ms");
  metrics->Add("transport.exec_calls",
               mean([](auto& s) { return s.transport.exec_calls; }),
               "count");
  metrics->Add("transport.exec_bytes", mean([](auto& s) {
                 return s.transport.exec_bytes_tx + s.transport.exec_bytes_rx;
               }),
               "B");
  metrics->Add("transport.wire_bytes", mean([](auto& s) {
                 return s.transport.wire_bytes_tx + s.transport.wire_bytes_rx;
               }),
               "B");
  metrics->Add("transport.heartbeats",
               mean([](auto& s) { return s.transport.heartbeats_sent; }), "count");
  metrics->Add("transport.reconnects",
               mean([](auto& s) { return s.transport.reconnects; }),
               "count");

  std::vector<const Sample*> all;
  for (const Sample& s : w.samples) all.push_back(&s);
  metrics->Add("proc.minflt", MeanOf(all, [](auto& s) { return s.minflt; }), "count");
  metrics->Add("proc.ctx_invol",
               MeanOf(all, [](auto& s) { return s.ctx_invol; }), "count");
  metrics->Add("proc.rss_growth_mb", w.rss_last_mb - w.rss_first_mb, "MB");

  const double traced_p50 = median([](auto& s) { return s.wall_ms; });
  const double untraced_p50 = MedianOf(w.untraced, [](auto& s) { return s.wall_ms; });
  metrics->Add("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0), "pct");
}

int Run(const Args& args, int64_t main_ns) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string build_type = PSI_PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "refusing to measure a non-Release build (build type '%s')\n",
                 build_type.c_str());
    return 3;
  }
  const char* threads_env = std::getenv("PSI_THREADS");
  std::printf("# build_type: %s\n", build_type.c_str());
  std::printf("# limb_kernel: %s\n",
              psi::limb_kernel::VariantName(psi::limb_kernel::ActiveVariant()));
  std::printf("# cpu_model: %s\n", CpuModel().c_str());
  std::printf("# nproc: %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# PSI_THREADS: %s (pool threads %zu)\n",
              threads_env != nullptr ? threads_env : "unset",
              psi::ThreadPool::Global().num_threads());
  std::printf("# workload: %s m=%zu n=%zu |E|=%zu |A|=%zu seed=%" PRIu64 " trace=%d\n",
              spec->name, spec->providers, spec->users, spec->arcs, spec->actions,
              args.seed, args.trace);

  // Set-up, cold: world, plaintext baseline, transport, warm-up sessions.
  const World world = MakeWorld(*spec, args.seed);
  Deployment deployment(*spec, world, args.seed);
  const psi::Status started = deployment.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", started.message().c_str());
    return 1;
  }
  uint64_t warmup_failures = 0;
  std::string first_warmup_failure;
  for (int i = 0; i < spec->warmup_sessions; ++i) {
    const SessionOutcome out =
        deployment.Run(kWarmupIndexBase + static_cast<uint64_t>(i), nullptr);
    const std::string failure = CheckSession(*spec, world, out);
    if (!failure.empty() && warmup_failures++ == 0) first_warmup_failure = failure;
  }
  const int64_t setup_from_ns = args.spawned_at_ns >= 0 ? args.spawned_at_ns : main_ns;
  const double setup_s = static_cast<double>(MonotonicNs() - setup_from_ns) / 1e9;
  std::printf("# setup_s: %.6f from %s, %" PRIu64 " warm-up failures (first: %s)\n",
              setup_s, args.spawned_at_ns >= 0 ? "spawn" : "main()", warmup_failures,
              first_warmup_failure.c_str());
  std::fflush(stdout);
  if (args.setup_only) return warmup_failures == 0 ? 0 : 1;

  const Window w = RunWindow(*spec, world, &deployment, args);
  std::printf("# timed: %zu sessions in %.3f s, %" PRIu64 " failed (first: %s)\n",
              w.samples.size(), w.seconds, w.failed, w.first_failure.c_str());

  Checks checks;
  // The oracle itself must reject a perturbed output.
  SessionOutcome perturbed = w.last;
  if (spec->protocol == Protocol::kP4 && !perturbed.p4.p.empty()) {
    perturbed.p4.p[0] = std::nextafter(perturbed.p4.p[0], 2.0);
  } else if (!perturbed.p6.empty()) {
    perturbed.p6[0][3] += 1;
  } else {
    perturbed.p6.push_back({0, 0, 1, 1});
  }
  const std::string verdict = CheckSession(*spec, world, perturbed);
  checks.Add("oracle_rejects_perturbed_output", !verdict.empty(), verdict);

  // Cost-model pins beside the measured values (the oracle enforces them).
  const Sample& first = w.samples.front();
  if (spec->transport == Transport::kFaultyResume) {
    std::printf("# cost_model: resume handshake NM model=%" PRIu64 " measured=%" PRIu64
                "; session NR=%" PRIu64 " NM=%" PRIu64 "\n",
                ResumeHandshakeModel(*spec), first.stats.handshake_messages,
                first.traffic.num_rounds, first.traffic.num_messages);
  } else {
    const ModelCounts model = CleanModel(*spec, world, w.last);
    std::printf("# cost_model: NR model=%" PRIu64 " measured=%" PRIu64
                "; NM model=%" PRIu64 " measured=%" PRIu64 "\n",
                model.nr, first.traffic.num_rounds, model.nm, first.traffic.num_messages);
  }

  // The socket workload's protocol metering equals the simulator's bitwise.
  if (spec->transport == Transport::kSocketRemote) {
    bool same = true;
    for (size_t i = 0; i < kMeteringCompareSessions; ++i) {
      const SessionOutcome sim = deployment.RunOnSimulator(i);
      same = same && sim.status.ok() && SameReport(sim.traffic, w.samples[i].traffic);
    }
    checks.Add("socket_metering_equals_simulator", same,
               "first " + std::to_string(kMeteringCompareSessions) + " sessions");
  }

  Metrics metrics;
  if (args.trace == 0) {
    AddEndToEnd(w, setup_s, &metrics);
  } else {
    AddPerLayer(*spec, world, &deployment, w, args.seed, &checks, &metrics);
  }
  const bool correct = w.failed == 0 && warmup_failures == 0 && checks.all_ok();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", w.samples.size(), w.failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t main_ns = perfbench::MonotonicNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: psi_perfbench --workload "
                 "<p4_paper|p6_paper|p4_resume|p4_remote> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spawned-at <ns>] [--setup-only]\n");
    return 2;
  }
  return perfbench::Run(args, main_ns);
}
