#ifndef CLOUDSURV_COMMON_PARALLEL_H_
#define CLOUDSURV_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cloudsurv {

/// Runs `work` on `threads` threads (inline when fewer than two) and
/// joins them.
template <typename Work>
void RunOnWorkers(unsigned threads, const Work& work) {
  if (threads <= 1) {
    work();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(work);
  for (auto& th : pool) th.join();
}

/// Runs task(i) -> Status for every i in [0, count) from one atomic
/// queue on up to `threads` workers. After a failure no worker takes a
/// new task, but every task taken runs to the end. Indices are taken in
/// ascending order, so a task that never ran lies above a failed task
/// that did; the failure of the lowest failing index is therefore always
/// the one returned, whatever the schedule.
template <typename Task>
Status RunTasks(size_t count, unsigned threads, const Task& task) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  size_t first_failed = count;
  Status first_error;
  auto worker = [&]() {
    while (!failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= count) return;
      Status s = task(i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        failed.store(true);
        if (i < first_failed) {
          first_failed = i;
          first_error = std::move(s);
        }
        return;
      }
    }
  };
  RunOnWorkers(static_cast<unsigned>(std::min<size_t>(threads, count)),
               worker);
  return first_error;
}

}  // namespace cloudsurv

#endif  // CLOUDSURV_COMMON_PARALLEL_H_
