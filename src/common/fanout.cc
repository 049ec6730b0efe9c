#include "common/fanout.h"

namespace apmbench {

FanoutExecutor::FanoutExecutor(int threads) {
  if (threads < 0) threads = 0;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; i++) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

FanoutExecutor::~FanoutExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool FanoutExecutor::RunOne(Batch* batch) {
  const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
  if (i >= batch->tasks.size()) return false;
  Status status = batch->tasks[i]();
  bool all_done = false;
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->statuses[i] = std::move(status);
    batch->completed++;
    all_done = batch->completed == batch->tasks.size();
  }
  if (all_done) batch->done_cv.notify_all();
  return true;
}

void FanoutExecutor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&]() { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      batch = queue_.front();
    }
    // Help with the oldest batch until its tasks are all claimed, then
    // retire it from the queue (the claimers finish it; RunAll's caller
    // is the one waiting on completion).
    while (RunOne(batch.get())) {
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!queue_.empty() && queue_.front() == batch) queue_.pop_front();
  }
}

Status FanoutExecutor::RunAll(std::vector<Task> tasks) {
  if (tasks.empty()) return Status::OK();
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  batch->statuses.resize(batch->tasks.size());
  if (batch->tasks.size() > 1 && !workers_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(batch);
    work_cv_.notify_all();
  }
  // The caller drains its own batch alongside the pool — no deadlock even
  // if every pool thread is stuck in someone else's tasks.
  while (RunOne(batch.get())) {
  }
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done_cv.wait(
        lock, [&]() { return batch->completed == batch->tasks.size(); });
  }
  Status first;
  for (const Status& status : batch->statuses) {
    if (first.ok() && !status.ok()) first = status;
  }
  return first;
}

}  // namespace apmbench
