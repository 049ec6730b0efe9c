#ifndef APMBENCH_COMMON_FANOUT_H_
#define APMBENCH_COMMON_FANOUT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace apmbench {

/// A fixed thread pool for scatter-gather fan-out: lsm::DB uses it to
/// merge the key-range pieces of one leveled compaction job in parallel
/// (Options::subcompactions).
///
/// RunAll(tasks) runs every task and blocks until all complete, returning
/// the first non-OK Status in task order (other tasks still run to
/// completion, so no piece outlives the call).
/// The *calling thread participates*: it claims tasks from the same batch
/// it submitted, so RunAll can never deadlock — even with a pool of
/// size 0, or with every pool thread busy inside another caller's batch,
/// the caller alone drains its own work. Tasks must not call RunAll on
/// the same executor recursively from a pool thread.
///
/// Thread-safety: RunAll may be called from any number of threads
/// concurrently; batches share the pool fairly (workers claim one task at
/// a time from the oldest unfinished batch).
class FanoutExecutor {
 public:
  using Task = std::function<Status()>;

  /// Spawns exactly `threads` pool threads (clamped to >= 0) in addition
  /// to the participating callers; 0 is valid and makes RunAll purely
  /// caller-driven.
  explicit FanoutExecutor(int threads);
  ~FanoutExecutor();

  FanoutExecutor(const FanoutExecutor&) = delete;
  FanoutExecutor& operator=(const FanoutExecutor&) = delete;

  Status RunAll(std::vector<Task> tasks);

 private:
  struct Batch {
    std::vector<Task> tasks;
    std::atomic<size_t> next{0};  // next unclaimed task index
    std::vector<Status> statuses;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t completed = 0;  // guarded by mu
  };

  /// Claims and runs one task of `batch`; returns false when every task
  /// is already claimed.
  static bool RunOne(Batch* batch);

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;  // unfinished batches
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace apmbench

#endif  // APMBENCH_COMMON_FANOUT_H_
