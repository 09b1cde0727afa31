#ifndef AIDA_UTIL_WORKER_POOL_H_
#define AIDA_UTIL_WORKER_POOL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace aida::util {

/// A fixed set of long-lived threads: thread i runs loop(i) once, and the
/// destructor joins them all. Nothing dispatches work to the threads —
/// each loop pulls its own (serve::NedService's workers pop its bounded
/// request queue) and returns when its source closes. Fork-join work
/// belongs to task::Scheduler, the one task runtime.
class WorkerPool {
 public:
  WorkerPool(size_t num_threads, const std::function<void(size_t)>& loop) {
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) threads_.emplace_back(loop, i);
  }

  /// Blocks until every loop has returned. The owner must first make the
  /// loops return (NedService closes its queue).
  ~WorkerPool() {
    for (std::thread& thread : threads_) thread.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  std::vector<std::thread> threads_;
};

}  // namespace aida::util

#endif  // AIDA_UTIL_WORKER_POOL_H_
