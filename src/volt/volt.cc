#include "volt/volt.h"

#include <algorithm>
#include <atomic>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/merge_runs.h"
#include "common/hash.h"

namespace apmbench::volt {

VoltEngine::Site::Site() {
  Task* stub = new Task();
  head_.store(stub, std::memory_order_relaxed);
  tail_ = stub;
  thread_ = std::thread(&Site::Loop, this);
}

VoltEngine::Site::~Site() {
  stop_.store(true, std::memory_order_release);
  signal_.fetch_add(1, std::memory_order_release);
  signal_.notify_one();
  if (thread_.joinable()) thread_.join();
  // The loop drained the queue before exiting; free the last dummy node.
  delete tail_;
}

void VoltEngine::Site::Push(Task* task) {
  // Vyukov MPSC push: claim the head slot, then link the previous node to
  // us. Between the exchange and the store the chain has a gap the
  // consumer reads as "empty"; the signal bump below closes the race.
  Task* prev = head_.exchange(task, std::memory_order_acq_rel);
  prev->next.store(task, std::memory_order_release);
}

bool VoltEngine::Site::Pop(std::function<void()>* work) {
  Task* tail = tail_;
  Task* next = tail->next.load(std::memory_order_acquire);
  if (next == nullptr) return false;
  *work = std::move(next->work);
  // `next` becomes the new dummy node; the old one is fully ours.
  tail_ = next;
  delete tail;
  return true;
}

void VoltEngine::Site::Submit(std::function<void()> work) {
  Task* task = new Task();
  task->work = std::move(work);
  Push(task);
  signal_.fetch_add(1, std::memory_order_release);
  signal_.notify_one();
}

void VoltEngine::Site::Execute(const std::function<void()>& work) {
  std::atomic<bool> done{false};
  Submit([&work, &done]() {
    work();
    done.store(true, std::memory_order_release);
    done.notify_one();
  });
  done.wait(false, std::memory_order_acquire);
}

void VoltEngine::Site::Loop() {
  std::function<void()> work;
  for (;;) {
    // Read the eventcount before scanning the queue: a producer bumps it
    // only after its node is linked, so either we see the node now or the
    // count moves past `seq` and wait() returns immediately.
    const uint64_t seq = signal_.load(std::memory_order_acquire);
    bool ran = false;
    while (Pop(&work)) {
      work();
      work = nullptr;
      ran = true;
    }
    if (ran) continue;
    if (stop_.load(std::memory_order_acquire)) return;
    signal_.wait(seq, std::memory_order_acquire);
  }
}

namespace {
constexpr uint8_t kCmdPut = 1;
constexpr uint8_t kCmdDelete = 2;
}  // namespace

VoltEngine::VoltEngine(const Options& options) : options_(options) {
  int n = std::max(1, options.sites_per_host);
  sites_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    sites_.push_back(std::make_unique<Site>());
  }
}

Status VoltEngine::Recover() {
  if (options_.command_log_path.empty()) return Status::OK();
  Env* env = Env::Default();
  if (env->FileExists(options_.command_log_path)) {
    std::string contents;
    APM_RETURN_IF_ERROR(
        env->ReadFileToString(options_.command_log_path, &contents));
    recovering_ = true;
    size_t offset = 0;
    while (offset + 8 <= contents.size()) {
      uint32_t masked = DecodeFixed32(contents.data() + offset);
      uint32_t length = DecodeFixed32(contents.data() + offset + 4);
      if (offset + 8 + length > contents.size()) break;  // torn tail
      const char* data = contents.data() + offset + 8;
      if (UnmaskCrc(masked) != Crc32c(data, length)) break;
      Slice in(data, length);
      if (in.empty()) break;
      uint8_t op = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      Slice key, value;
      if (!GetLengthPrefixedSlice(&in, &key) ||
          !GetLengthPrefixedSlice(&in, &value)) {
        break;
      }
      if (op == kCmdPut) {
        Put(key, value);
      } else if (op == kCmdDelete) {
        Delete(key);
      }
      offset += 8 + length;
    }
    recovering_ = false;
  }
  std::unique_ptr<WritableFile> log;
  APM_RETURN_IF_ERROR(
      env->NewAppendableFile(options_.command_log_path, &log));
  command_log_ = std::make_unique<GroupCommitLog>(std::move(log));
  return Status::OK();
}

Status VoltEngine::LogCommand(uint8_t op, const Slice& key,
                              const Slice& value) {
  if (recovering_ || command_log_ == nullptr) return Status::OK();
  std::string payload;
  payload.push_back(static_cast<char>(op));
  PutLengthPrefixedSlice(&payload, key);
  PutLengthPrefixedSlice(&payload, value);
  std::string framed;
  PutFixed32(&framed, MaskCrc(Crc32c(payload.data(), payload.size())));
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  framed.append(payload);
  // Concurrent transactions' records share one write (and one fsync in
  // synchronous mode) via group commit; VoltDB's command log batches the
  // same way.
  return command_log_->Append(framed, options_.sync_command_log);
}

VoltEngine::~VoltEngine() = default;

int VoltEngine::PartitionOf(const Slice& key) const {
  uint32_t hash = MurmurHash3_32(key.data(), key.size(), 0x5f3759df);
  return static_cast<int>(hash % sites_.size());
}

Status VoltEngine::Put(const Slice& key, const Slice& value) {
  APM_RETURN_IF_ERROR(LogCommand(kCmdPut, key, value));
  Site* site = sites_[static_cast<size_t>(PartitionOf(key))].get();
  std::string k = key.ToString();
  std::string v = value.ToString();
  site->Execute([&]() { site->rows[k] = v; });
  single_partition_txns_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status VoltEngine::Get(const Slice& key, std::string* value) {
  Site* site = sites_[static_cast<size_t>(PartitionOf(key))].get();
  std::string k = key.ToString();
  bool found = false;
  site->Execute([&]() {
    auto it = site->rows.find(k);
    if (it != site->rows.end()) {
      *value = it->second;
      found = true;
    }
  });
  single_partition_txns_.fetch_add(1, std::memory_order_relaxed);
  return found ? Status::OK() : Status::NotFound();
}

Status VoltEngine::Delete(const Slice& key) {
  APM_RETURN_IF_ERROR(LogCommand(kCmdDelete, key, Slice()));
  Site* site = sites_[static_cast<size_t>(PartitionOf(key))].get();
  std::string k = key.ToString();
  bool erased = false;
  site->Execute([&]() { erased = site->rows.erase(k) > 0; });
  single_partition_txns_.fetch_add(1, std::memory_order_relaxed);
  return erased ? Status::OK() : Status::NotFound();
}

Status VoltEngine::Scan(const Slice& start, int count,
                        std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // Multi-partition transaction: every site runs the range fragment and
  // the coordinator merges. All sites are fenced for the duration, which
  // is exactly what makes multi-partition work expensive in this model.
  std::string start_key = start.ToString();
  std::vector<std::vector<std::pair<std::string, std::string>>> partials(
      sites_.size());
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = sites_.size();
  for (size_t i = 0; i < sites_.size(); i++) {
    Site* site = sites_[i].get();
    auto* partial = &partials[i];
    site->Submit([&, site, partial]() {
      auto it = site->rows.lower_bound(start_key);
      for (int taken = 0; it != site->rows.end() && taken < count;
           ++it, ++taken) {
        partial->emplace_back(it->first, it->second);
      }
      std::lock_guard<std::mutex> lock(done_mu);
      remaining--;
      done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  // K-way merge of the per-partition sorted fragments, stopping at
  // `count` instead of sorting every candidate.
  MergeSortedRuns(
      &partials, static_cast<size_t>(count), /*dedup=*/false,
      [](const auto& kv) -> const std::string& { return kv.first; }, out);
  multi_partition_txns_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

VoltEngine::Stats VoltEngine::GetStats() {
  Stats stats;
  stats.single_partition_txns =
      single_partition_txns_.load(std::memory_order_relaxed);
  stats.multi_partition_txns =
      multi_partition_txns_.load(std::memory_order_relaxed);
  for (auto& site : sites_) {
    size_t n = 0;
    site->Execute([&]() { n = site->rows.size(); });
    stats.rows_per_partition.push_back(n);
  }
  return stats;
}

}  // namespace apmbench::volt
