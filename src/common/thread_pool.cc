#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace psi {

namespace {

// True while the current thread is executing a pool job: nested ParallelFor
// calls run serially instead of deadlocking on the shared workers.
thread_local bool t_inside_pool_job = false;

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("PSI_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return std::min<unsigned long>(v, 64);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  StartWorkers(std::max<size_t>(num_threads, 1));
}

ThreadPool::~ThreadPool() { StopWorkers(); }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

void ThreadPool::StartWorkers(size_t num_threads) {
  num_threads_ = num_threads;
  shutdown_ = false;
  // New workers must treat the CURRENT epoch as already seen: after a
  // SetNumThreads resize the counter carries over from the previous pool
  // generation, and a worker starting at epoch 0 would wake for a job that
  // no longer exists. Captured here, on the starting thread, so a job
  // published right after StartWorkers returns can never be missed.
  uint64_t epoch = job_epoch_;
  workers_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w, epoch] { WorkerLoop(w, epoch); });
  }
}

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::SetNumThreads(size_t num_threads) {
  StopWorkers();
  StartWorkers(std::max<size_t>(num_threads, 1));
}

void ThreadPool::RunSlice(Job* job, size_t w) {
  // Static chunking: worker w always owns the w-th contiguous slice.
  size_t begin = w * job->n / job->num_workers;
  size_t end = (w + 1) * job->n / job->num_workers;
  t_inside_pool_job = true;
  try {
    for (size_t i = begin; i < end; ++i) (*job->fn)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job->first_error) job->first_error = std::current_exception();
  }
  t_inside_pool_job = false;
}

void ThreadPool::WorkerLoop(size_t worker_index, uint64_t seen_epoch) {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock, [&] {
        return shutdown_ || job_epoch_ != seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    // The caller keeps `job` alive until every worker has counted itself
    // out of `pending` below.
    RunSlice(job, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--job->pending == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1 || t_inside_pool_job) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  job.num_workers = num_threads_;
  job.pending = num_threads_ - 1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Another outside caller's job is running: wait for the pool.
    pool_idle_.wait(lock, [&] { return job_ == nullptr; });
    job_ = &job;
    ++job_epoch_;
  }
  job_ready_.notify_all();
  RunSlice(&job, 0);  // The calling thread is worker 0.
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_done_.wait(lock, [&] { return job.pending == 0; });
    job_ = nullptr;
  }
  pool_idle_.notify_one();
  if (job.first_error) std::rethrow_exception(job.first_error);
}

size_t ThreadPool::NumChunks(size_t n) { return std::min(n, kMaxChunks); }

void ThreadPool::ParallelForChunked(
    size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  size_t chunks = NumChunks(n);
  if (chunks == 0) return;
  ParallelFor(chunks, [&](size_t c) {
    fn(c, c * n / chunks, (c + 1) * n / chunks);
  });
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ThreadPool::Global().ParallelFor(n, fn);
}

Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn) {
  // OK statuses never allocate, so the per-index slot vector is cheap.
  std::vector<Status> statuses(n);
  ThreadPool::Global().ParallelFor(n,
                                   [&](size_t i) { statuses[i] = fn(i); });
  for (auto& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

void ParallelForChunked(
    size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  ThreadPool::Global().ParallelForChunked(n, fn);
}

}  // namespace psi
