// Shared report plumbing for the benches whose JSON tools/check_bench.py
// gates.
//
// The stock BENCHMARK_MAIN() is not enough for the gate: the
// library-provided "library_build_type" context key describes how
// *libbenchmark* was built, not this binary — a Release psi build linked
// against a distro debug libbenchmark reports "debug". PSI_BENCHMARK_MAIN()
// stamps the context with the truth about this binary (psi_build_type) plus
// which limb-kernel variant the one-time CPU dispatch selected
// (psi_limb_kernel), and the gate refuses anything not stamped "release".
//
// JsonReport writes the same document for the benches that time whole
// sessions rather than google-benchmark loops: the same stamps, a "context"
// object and a "benchmarks" list of flat rows.

#ifndef PSI_BENCH_BENCH_MAIN_H_
#define PSI_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bigint/limb_kernel.h"

namespace psi {
namespace bench {

#ifdef NDEBUG
inline constexpr const char kPsiBuildType[] = "release";
#else
inline constexpr const char kPsiBuildType[] = "debug";
#endif

inline const char* LimbKernelName() {
  return limb_kernel::VariantName(limb_kernel::ActiveVariant());
}

/// One flat JSON object; fields print in the order they were added. Keys
/// and text values are plain ASCII and are written unescaped.
class JsonFields {
 public:
  void Count(const char* key, uint64_t value) { Add(key, std::to_string(value)); }
  /// A wall-clock time, rounded to whole nanoseconds.
  void Nanos(const char* key, double ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", ns);
    Add(key, buf);
  }
  void Text(const char* key, const std::string& value) { Add(key, "\"" + value + "\""); }

  void Print(const char* indent) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::printf("%s\"%s\": %s%s\n", indent, fields_[i].first.c_str(),
                  fields_[i].second.c_str(), i + 1 < fields_.size() ? "," : "");
    }
  }

 private:
  void Add(const char* key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// google-benchmark's JSON layout for a bench that times whole sessions.
class JsonReport {
 public:
  explicit JsonReport(const char* bench) {
    context_.Text("psi_build_type", kPsiBuildType);
    context_.Text("psi_limb_kernel", LimbKernelName());
    context_.Text("bench", bench);
  }

  JsonFields& context() { return context_; }

  /// Appends a counters row; the reference stays valid for the report's life.
  JsonFields& AddRow(const char* name, double real_time_ns) {
    JsonFields& row = rows_.emplace_back();
    row.Text("name", name);
    row.Text("run_type", "counters");
    row.Nanos("real_time_ns", real_time_ns);
    return row;
  }

  /// Writes the document to stdout.
  void Print() const {
    std::printf("{\n  \"context\": {\n");
    context_.Print("    ");
    std::printf("  },\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::printf("    {\n");
      rows_[i].Print("      ");
      std::printf("    }%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }

 private:
  JsonFields context_;
  std::deque<JsonFields> rows_;
};

}  // namespace bench
}  // namespace psi

#define PSI_BENCHMARK_MAIN()                                                      \
  int main(int argc, char** argv) {                                               \
    benchmark::AddCustomContext("psi_build_type", psi::bench::kPsiBuildType);     \
    benchmark::AddCustomContext("psi_limb_kernel", psi::bench::LimbKernelName()); \
    benchmark::Initialize(&argc, argv);                                           \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;             \
    benchmark::RunSpecifiedBenchmarks();                                          \
    benchmark::Shutdown();                                                        \
    return 0;                                                                     \
  }                                                                               \
  static_assert(true, "require a trailing semicolon")

#endif  // PSI_BENCH_BENCH_MAIN_H_
