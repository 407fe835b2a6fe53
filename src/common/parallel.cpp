#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/annotations.h"
#include "telemetry/metrics.h"
#include "telemetry/timer.h"

namespace uniserver::par {

namespace {

struct PoolMetrics {
  telemetry::Counter& tasks = telemetry::counter(
      "exec.pool.tasks", "items",
      "Work items executed by the parallel campaign engine");
  telemetry::Counter& regions = telemetry::counter(
      "exec.pool.regions", "calls",
      "Parallel regions (parallel_for_each calls) entered");
  telemetry::Gauge& busy = telemetry::gauge(
      "exec.pool.busy_workers", "workers",
      "Executors currently inside a parallel region");
  telemetry::Histogram& queue_wait = telemetry::histogram(
      "exec.pool.queue_wait_us", 0.0, 10000.0, 100, "us",
      "Queue latency: submit-to-start wait of a pool task");
};

PoolMetrics& metrics() {
  static PoolMetrics m;
  return m;
}

// Set for the lifetime of a pool worker thread: a parallel region
// entered from one (a nested campaign) runs inline on that worker
// instead of waiting on the queue it is part of.
thread_local bool tls_in_worker = false;

class ThreadPool {
 public:
  explicit ThreadPool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({std::move(task), telemetry::WallClock::now()});
    }
    cv_.notify_one();
  }

 private:
  struct Task {
    std::function<void()> fn;
    telemetry::WallClock::TimePoint enqueued;
  };

  void worker_loop() {
    tls_in_worker = true;
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_, nothing left to drain
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      metrics().queue_wait.record(
          telemetry::WallClock::us_since(task.enqueued));
      task.fn();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_ US_GUARDED_BY(mutex_);
  bool stopping_ US_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_ US_NOT_GUARDED(
      "written by the constructor and joined by the destructor only");
};

std::atomic<unsigned> g_default_jobs{0};  // 0 = hardware_jobs()

// Parallel regions currently executing (nested inline regions count
// too). set_default_jobs() refuses to resize while this is non-zero —
// the documented hazard in parallel.h is now enforced, not advisory.
std::atomic<int> g_active_regions{0};

/// RAII marker for one parallel_for_each call, serial fast path
/// included so the jobs-count guard behaves identically at --jobs 1.
struct ActiveRegion {
  ActiveRegion() { g_active_regions.fetch_add(1, std::memory_order_acq_rel); }
  ~ActiveRegion() { g_active_regions.fetch_sub(1, std::memory_order_acq_rel); }
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

/// The shared pool, (re)built to `workers` threads on demand. Only
/// the coordinator of a top-level region calls this (nested regions
/// run inline), so resizing never races a live region.
ThreadPool& shared_pool(unsigned workers) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->workers() != workers) {
    g_pool.reset();  // join old workers before spawning replacements
    g_pool = std::make_unique<ThreadPool>(workers);
  }
  return *g_pool;
}

/// State shared between the executors of one parallel_for_each call.
struct Region {
  std::size_t n US_NOT_GUARDED("immutable once executors launch"){0};
  std::size_t grain US_NOT_GUARDED("immutable once executors launch"){1};
  const std::function<void(std::size_t)>* body US_NOT_GUARDED(
      "immutable once executors launch"){nullptr};
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t outstanding US_GUARDED_BY(mutex){0};  // tasks not yet finished
  std::exception_ptr error US_GUARDED_BY(mutex);

  /// Claims chunks of `grain` indices until the range is drained or a
  /// sibling failed.
  void run_executor() {
    metrics().busy.add(1.0);
    for (;;) {
      const std::size_t start =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (start >= n || failed.load(std::memory_order_relaxed)) break;
      const std::size_t stop = std::min(n, start + grain);
      for (std::size_t i = start; i < stop; ++i) {
        try {
          (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
    metrics().busy.add(-1.0);
  }
};

}  // namespace

unsigned hardware_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned default_jobs() {
  const unsigned jobs = g_default_jobs.load(std::memory_order_relaxed);
  return jobs == 0 ? hardware_jobs() : jobs;
}

std::optional<unsigned> parse_jobs(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  unsigned jobs = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return std::nullopt;
    jobs = jobs * 10 + static_cast<unsigned>(*c - '0');
    if (jobs > kMaxJobs) return std::nullopt;
  }
  return jobs;
}

void set_default_jobs(unsigned jobs) {
  if (jobs > kMaxJobs) {
    throw std::invalid_argument(
        "par::set_default_jobs: more than par::kMaxJobs workers");
  }
  if (g_active_regions.load(std::memory_order_acquire) != 0) {
    throw std::logic_error(
        "par::set_default_jobs: a parallel region is active; resize the "
        "pool only between campaigns (src/common/parallel.h)");
  }
  g_default_jobs.store(jobs, std::memory_order_relaxed);
}

std::vector<Rng> fork_streams(Rng& rng, std::size_t n) {
  std::vector<Rng> streams;
  streams.reserve(n);
  for (std::size_t i = 0; i < n; ++i) streams.push_back(rng.fork(i));
  return streams;
}

void parallel_for_each(std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  metrics().regions.add();
  metrics().tasks.add(n);
  const ActiveRegion active;

  const unsigned jobs = default_jobs();
  const auto executors =
      static_cast<unsigned>(std::min<std::size_t>(jobs, n));
  if (executors <= 1 || tls_in_worker) {
    // Serial fast path — and the inline path for nested regions.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto region = std::make_shared<Region>();
  region->n = n;
  region->grain = std::max<std::size_t>(1, n / (executors * 8u));
  region->body = &body;

  // The coordinator is one executor; the pool provides the rest.
  region->outstanding = executors - 1;
  ThreadPool& pool = shared_pool(jobs > 1 ? jobs - 1 : 1);
  for (unsigned w = 0; w + 1 < executors; ++w) {
    pool.submit([region] {
      region->run_executor();
      std::lock_guard<std::mutex> lock(region->mutex);
      --region->outstanding;
      region->done.notify_all();
    });
  }
  region->run_executor();

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&region] { return region->outstanding == 0; });
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace uniserver::par
