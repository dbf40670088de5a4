// A small fixed-size worker pool: serve's request workers
// (serve/server.cpp) are its one user.
//
// Design constraints:
//  * determinism is the caller's problem -- the pool only promises that
//    every submitted task runs exactly once and that wait() establishes a
//    happens-before edge from all task bodies to the caller;
//  * exceptions thrown by a task are captured and rethrown from wait():
//    the first one wins, and when later tasks also fail their count is
//    recorded (process metric "thread_pool.suppressed_exceptions") and
//    appended to the rethrown sldm::Error's message ("... [and N more
//    task failure(s) suppressed]"), so contract violations and
//    sldm::Error diagnostics surface on the coordinating thread without
//    silently hiding a multi-task failure;
//  * a pool of size 1 runs tasks inline on the calling thread at submit
//    time: no worker is spawned, no synchronization happens, and the
//    execution order is exactly the submission order.  Size 1 is
//    therefore bit-identical (and cost-identical) to not having a pool.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sldm {

/// Names the calling thread for debuggers, sanitizer reports, and trace
/// output (pthread_setname_np where available, silently a no-op
/// elsewhere; also registers the name with the span tracer).  Kernel
/// thread names are truncated to 15 characters.
void set_current_thread_name(const std::string& name);

class ThreadPool {
 public:
  /// Spawns `size - 1` workers (the calling thread participates: it
  /// runs every task inline when size == 1, and drains the queue in
  /// wait() otherwise).  Workers are named "sldm-w<i>" (see
  /// set_current_thread_name) so profiler and tsan output is
  /// attributable.  Precondition: size >= 1.
  explicit ThreadPool(int size);

  /// Joins all workers.  Pending tasks are finished first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.  With a pool of size 1 the task runs inline
  /// before submit() returns (exceptions still surface from wait()).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first captured task exception, if any.  When more than one task
  /// failed in the batch, the extras are counted in the process metrics
  /// registry ("thread_pool.suppressed_exceptions") and, if the first
  /// exception is an sldm::Error, an "[and N more task failure(s)
  /// suppressed]" note is appended to its message.  The pool is
  /// reusable after wait() returns.
  void wait();

 private:
  void worker_loop();
  void run_one(std::function<void()>& task);

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  std::exception_ptr first_error_;
  std::size_t suppressed_errors_ = 0;  ///< failures after the first
  bool shutting_down_ = false;
};

}  // namespace sldm
