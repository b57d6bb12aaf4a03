// Intra-party parallelism for the crypto hot paths.
//
// The protocols' wall-clock time is dominated by modular exponentiations
// that are pure functions of already-drawn values (Tables 1-2 cost
// analysis), so they fan out across cores while every RNG draw stays in
// serial program order. The contract that makes this safe to thread through
// the deterministic test suite:
//
//   * ParallelFor(n, fn) invokes fn(i) exactly once for every i in [0, n).
//     Each index owns its output slot, so results are bit-identical for any
//     worker count — including the serial degrade at num_threads() == 1.
//   * Chunking is static (no work stealing): worker t handles the t-th
//     contiguous slice of [0, n). Scheduling never feeds back into results.
//   * ParallelForChunked splits [0, n) into a chunk count that depends only
//     on n — never on the thread count — so floating-point reductions that
//     accumulate per chunk and combine partials in chunk order are also
//     bit-identical under PSI_THREADS=1 vs PSI_THREADS=8.
//   * The first exception thrown by any fn is rethrown in the calling
//     thread after all workers finish; remaining indices still run.
//   * Calls from several outside threads at once are safe: each call owns
//     its job record, and a call that finds the pool busy waits for the
//     running job to finish before it starts (no interleaving, no work
//     stealing).
//
// The pool size comes from the PSI_THREADS environment variable when set
// (clamped to [1, 64]), else std::thread::hardware_concurrency(). Nested
// ParallelFor calls from inside a worker degrade to serial instead of
// deadlocking on the shared pool.

#ifndef PSI_COMMON_THREAD_POOL_H_
#define PSI_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace psi {

/// \brief Fixed-size fork-join worker pool with deterministic static
/// chunking. One process-wide instance (Global()) backs the free-function
/// ParallelFor helpers.
class ThreadPool {
 public:
  /// \brief Builds a pool with `num_threads` workers total (the calling
  /// thread counts as worker 0, so num_threads == 1 spawns nothing).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief The process-wide pool, sized from PSI_THREADS (else hardware
  /// concurrency) on first use.
  static ThreadPool& Global();

  size_t num_threads() const { return num_threads_; }

  /// \brief Resizes the pool (test hook; joins the current workers). Not
  /// safe to call concurrently with ParallelFor.
  void SetNumThreads(size_t num_threads);

  /// \brief Invokes fn(i) for every i in [0, n); see the header comment for
  /// the determinism contract. Blocks until all indices have run.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// \brief Splits [0, n) into NumChunks(n) contiguous slices and invokes
  /// fn(chunk_index, begin, end) once per slice. Chunk boundaries depend
  /// only on n, so order-sensitive reductions stay thread-count-invariant.
  void ParallelForChunked(
      size_t n,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

  /// \brief Number of slices ParallelForChunked uses for a loop of size n
  /// (a pure function of n; at most kMaxChunks).
  static size_t NumChunks(size_t n);

  /// \brief Chunk-count ceiling for ParallelForChunked (and the reduction
  /// partial-buffer size callers should allocate).
  static constexpr size_t kMaxChunks = 64;

 private:
  /// One ParallelFor call, owned by the calling thread's frame.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    size_t num_workers = 0;  // Slices this job was split into.
    size_t pending = 0;      // Pool workers still running a slice (mu_).
    std::exception_ptr first_error;  // First exception of any slice (mu_).
  };

  void StartWorkers(size_t num_threads);
  void StopWorkers();
  /// `seen_epoch` is the job epoch current when the worker was started;
  /// epochs survive SetNumThreads resizes, so starting from 0 would replay
  /// a stale job.
  void WorkerLoop(size_t worker_index, uint64_t seen_epoch);
  /// Runs worker `w`'s static slice of `job`.
  void RunSlice(Job* job, size_t w);

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  std::condition_variable pool_idle_;
  Job* job_ = nullptr;       // The running job; null while the pool is idle.
  uint64_t job_epoch_ = 0;   // Bumped per ParallelFor; wakes the workers.
  bool shutdown_ = false;
};

/// \brief ParallelFor on the global pool.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// \brief ParallelFor over a Status-returning body. Every index runs; on
/// failure the error of the lowest failing index is returned, so the
/// surfaced Status does not depend on worker scheduling.
[[nodiscard]] Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn);

/// \brief ParallelForChunked on the global pool.
void ParallelForChunked(
    size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

}  // namespace psi

#endif  // PSI_COMMON_THREAD_POOL_H_
