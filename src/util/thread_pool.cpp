#include "util/thread_pool.h"

#include <utility>

#include "util/contracts.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

#if defined(__linux__)
#include <pthread.h>
#elif defined(__APPLE__)
#include <pthread.h>
#endif

namespace sldm {

void set_current_thread_name(const std::string& name) {
#if defined(__linux__)
  // The kernel limit is 16 bytes including the terminator.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#elif defined(__APPLE__)
  pthread_setname_np(name.substr(0, 15).c_str());
#endif
  Tracer::instance().set_thread_name(name);
}

ThreadPool::ThreadPool(int size) : size_(size) {
  SLDM_EXPECTS(size >= 1);
  workers_.reserve(static_cast<std::size_t>(size - 1));
  for (int i = 1; i < size; ++i) {
    workers_.emplace_back([this, i] {
      set_current_thread_name("sldm-w" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_one(std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!first_error_) {
      first_error_ = std::current_exception();
    } else {
      ++suppressed_errors_;
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  // Failpoint "pool.submit" (error only): the task is refused *before*
  // it is enqueued or counted, modeling resource exhaustion at
  // dispatch.  Callers own the recovery -- the serve loops answer the
  // request inline.
  failpoint("pool.submit");
  if (size_ == 1) {
    // Inline path: execution order is submission order; the only shared
    // state touched is the error slot.
    ++in_flight_;
    run_one(task);
    --in_flight_;
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
  // A task submitted from inside a task must also wake a coordinator
  // blocked in wait() so it can help drain the queue.
  all_done_.notify_all();
}

void ThreadPool::wait() {
  if (size_ > 1) {
    // Drain the queue from the coordinating thread too, so a pool of
    // size k applies k-way parallelism, not k-1.
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (!queue_.empty()) {
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        run_one(task);
        lock.lock();
        if (--in_flight_ == 0) all_done_.notify_all();
        continue;
      }
      if (in_flight_ == 0) break;
      all_done_.wait(lock, [this] {
        return in_flight_ == 0 || !queue_.empty();
      });
    }
  }
  std::exception_ptr err;
  std::size_t suppressed = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    err = std::exchange(first_error_, nullptr);
    suppressed = std::exchange(suppressed_errors_, std::size_t{0});
  }
  if (!err) return;
  if (suppressed > 0) {
    bump_process_counter("thread_pool.suppressed_exceptions",
                         static_cast<std::uint64_t>(suppressed));
    // Only sldm::Error carries a mutable message; other exception types
    // (contract aborts never reach here; std exceptions are rare) are
    // rethrown unchanged -- the metric still records the loss.
    try {
      std::rethrow_exception(err);
    } catch (const Error& e) {
      throw Error(format("%s [and %zu more task failure%s suppressed]",
                         e.what(), suppressed,
                         suppressed == 1 ? "" : "s"));
    } catch (...) {
      throw;
    }
  }
  std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [this] {
      return shutting_down_ || !queue_.empty();
    });
    if (queue_.empty()) {
      if (shutting_down_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    run_one(task);
    lock.lock();
    if (--in_flight_ == 0) all_done_.notify_all();
  }
}

}  // namespace sldm
