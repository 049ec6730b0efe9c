// Concurrency tests for the four engines and the shared group-commit
// machinery: model-checked N-writers + M-readers/scanners workloads per
// engine, plus deterministic group-commit batching tests (queued writers
// must share one WAL/log sync). Run under TSan/ASan via
// -DAPMBENCH_SANITIZE=thread|address (see docs/concurrency.md).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/env.h"
#include "common/fanout.h"
#include "common/fault_env.h"
#include "common/group_commit.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "hashkv/hashkv.h"
#include "lsm/db.h"
#include "stores/factory.h"
#include "stores/store_options.h"
#include "tests/test_util.h"
#include "volt/volt.h"

namespace apmbench {
namespace {

// --- Gated-sync fixtures -------------------------------------------------
//
// A WritableFile / Env pair whose Sync blocks while a gate is closed.
// Holding one writer's fsync open while more writers enqueue makes
// group-commit batching deterministic even on a single-core host.

class SyncGate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  /// Blocks the caller while the gate is closed.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    blocked_++;
    cv_.wait(lock, [&] { return !closed_; });
    blocked_--;
  }

  int blocked() {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int blocked_ = 0;
};

/// In-memory WritableFile that counts syncs and blocks them on `gate`.
class GatedMemFile final : public WritableFile {
 public:
  explicit GatedMemFile(SyncGate* gate) : gate_(gate) {}

  Status Append(const Slice& data) override {
    if (fail_appends_.load()) return Status::IOError("injected append fault");
    std::lock_guard<std::mutex> lock(mu_);
    contents_ += data.ToString();
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    gate_->Pass();
    syncs_.fetch_add(1);
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_.size();
  }

  std::string contents() const {
    std::lock_guard<std::mutex> lock(mu_);
    return contents_;
  }
  uint64_t syncs() const { return syncs_.load(); }
  void set_fail_appends(bool fail) { fail_appends_.store(fail); }

 private:
  SyncGate* gate_;
  mutable std::mutex mu_;
  std::string contents_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<bool> fail_appends_{false};
};

/// Env wrapper that routes WritableFile syncs through a gate. Composes
/// with FaultInjectionEnv (which is final) rather than inheriting from
/// it, so tests can stack gating on top of the fault env's op counters.
class GatedSyncEnv final : public Env {
 public:
  explicit GatedSyncEnv(Env* base) : base_(base) {}

  SyncGate* gate() { return &gate_; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    APM_RETURN_IF_ERROR(base_->NewWritableFile(path, file));
    *file = std::make_unique<GatedFile>(&gate_, std::move(*file));
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override {
    APM_RETURN_IF_ERROR(base_->NewAppendableFile(path, file));
    *file = std::make_unique<GatedFile>(&gate_, std::move(*file));
    return Status::OK();
  }
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(path, file);
  }
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* file) override {
    return base_->NewRandomRWFile(path, file);
  }
  Status ReadFileToString(const std::string& path,
                          std::string* data) override {
    return base_->ReadFileToString(path, data);
  }
  Status WriteStringToFile(const std::string& path,
                           const Slice& data) override {
    return base_->WriteStringToFile(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* names) override {
    return base_->GetChildren(dir, names);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status RemoveDirRecursively(const std::string& dir) override {
    return base_->RemoveDirRecursively(dir);
  }
  Status GetDirectorySize(const std::string& dir, uint64_t* bytes) override {
    return base_->GetDirectorySize(dir, bytes);
  }

 private:
  class GatedFile final : public WritableFile {
   public:
    GatedFile(SyncGate* gate, std::unique_ptr<WritableFile> base)
        : gate_(gate), base_(std::move(base)) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      gate_->Pass();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }
    uint64_t Size() const override { return base_->Size(); }

   private:
    SyncGate* gate_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* base_;
  SyncGate gate_;
};

/// Polls `cond` (with a yield) until it holds or ~5s pass.
void WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 50000 && !cond(); i++) {
    std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(cond());
}

// --- GroupCommitLog ------------------------------------------------------

TEST(GroupCommitLogTest, AppendsRecordsInOrder) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  ASSERT_TRUE(log.Append("aaa", false).ok());
  ASSERT_TRUE(log.Append("bb", true).ok());
  EXPECT_EQ(file->contents(), "aaabb");
  EXPECT_EQ(log.Size(), 5u);
  GroupCommitLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.synced_groups, 1u);
  EXPECT_TRUE(log.Close().ok());
}

// The core group-commit guarantee: writers that enqueue while the leader
// is stuck in an fsync are all written — and synced — by the next
// leader's single I/O round.
TEST(GroupCommitLogTest, QueuedAppendsShareOneSync) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  gate.Close();
  std::thread leader([&] { ASSERT_TRUE(log.Append("a", true).ok()); });
  // The leader has appended and is blocked in Sync.
  WaitFor([&] { return gate.blocked() == 1; });

  // Followers start one at a time, so their enqueue order (and with it
  // the file contents) is fixed. appends counts enqueues; the log's mutex
  // is free while the leader syncs.
  std::thread follower_b([&] { ASSERT_TRUE(log.Append("b", true).ok()); });
  WaitFor([&] { return log.GetStats().appends == 2; });
  std::thread follower_c([&] { ASSERT_TRUE(log.Append("c", true).ok()); });
  WaitFor([&] { return log.GetStats().appends == 3; });

  gate.Open();
  leader.join();
  follower_b.join();
  follower_c.join();

  GroupCommitLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.groups, 2u);         // leader's round + one shared round
  EXPECT_EQ(stats.synced_groups, 2u);  // three sync appends, two fsyncs
  EXPECT_EQ(file->syncs(), 2u);
  EXPECT_EQ(file->contents(), "abc");
  EXPECT_TRUE(log.Close().ok());
}

TEST(GroupCommitLogTest, AppendFailureIsSticky) {
  SyncGate gate;
  auto owned = std::make_unique<GatedMemFile>(&gate);
  GatedMemFile* file = owned.get();
  GroupCommitLog log(std::move(owned));

  file->set_fail_appends(true);
  EXPECT_FALSE(log.Append("a", false).ok());
  file->set_fail_appends(false);
  // A failed group poisons the log: later appends must not silently
  // succeed past a hole in the record stream.
  EXPECT_FALSE(log.Append("b", false).ok());
  EXPECT_EQ(file->contents(), "");
}

// --- LSM writer queue ----------------------------------------------------

// Writers queued behind a leader blocked in the WAL fsync must be merged
// into one group: one WAL append, one fsync, counted by both the DB's
// writer-queue stats and the fault env's sync counter.
TEST(LsmConcurrencyTest, QueuedWritersShareOneWalSync) {
  testutil::ScopedTempDir dir("conc-lsm-gc");
  FaultInjectionEnv fault(Env::Default());
  GatedSyncEnv env(&fault);

  lsm::Options options;
  options.dir = dir.path();
  options.env = &env;
  options.sync_writes = true;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  const uint64_t syncs_before = fault.OpCount(FaultOp::kSync);
  env.gate()->Close();
  std::thread leader([&] { ASSERT_TRUE(db->Put("k1", "v1").ok()); });
  WaitFor([&] { return env.gate()->blocked() == 1; });

  std::thread follower_b([&] { ASSERT_TRUE(db->Put("k2", "v2").ok()); });
  std::thread follower_c([&] { ASSERT_TRUE(db->Put("k3", "v3").ok()); });
  // pending_writers includes the in-flight leader; wait for both
  // followers to be queued behind it.
  WaitFor([&] { return db->GetStats().pending_writers >= 3; });

  env.gate()->Open();
  leader.join();
  follower_b.join();
  follower_c.join();

  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.grouped_writes, 3u);
  EXPECT_EQ(stats.write_groups, 2u);
  EXPECT_EQ(fault.OpCount(FaultOp::kSync) - syncs_before, 2u);

  for (const char* key : {"k1", "k2", "k3"}) {
    std::string value;
    EXPECT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
  }
}

// Deterministic check of the parallel group apply: with a sharded
// memtable, followers that queue behind a leader blocked in the WAL
// fsync form a multi-writer group, and that group's memtable apply runs
// through the shard-claim protocol (counted by parallel_apply_groups).
TEST(LsmConcurrencyTest, QueuedWritersApplyShardsInParallel) {
  testutil::ScopedTempDir dir("conc-lsm-shards");
  GatedSyncEnv env(Env::Default());

  lsm::Options options;
  options.dir = dir.path();
  options.env = &env;
  options.sync_writes = true;
  options.memtable_shards = 8;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  env.gate()->Close();
  std::thread leader([&] { ASSERT_TRUE(db->Put("k1", "v1").ok()); });
  WaitFor([&] { return env.gate()->blocked() == 1; });

  // Two followers queue multi-key batches whose rows hash to different
  // shards; the next leader merges them into one group and every group
  // member helps apply it shard-by-shard.
  auto batch_writer = [&](int id) {
    lsm::WriteBatch batch;
    for (int i = 0; i < 8; i++) {
      batch.Put("w" + std::to_string(id) + ".row" + std::to_string(i),
                "v" + std::to_string(id));
    }
    ASSERT_TRUE(db->Write(batch).ok());
  };
  std::thread follower_b([&] { batch_writer(2); });
  std::thread follower_c([&] { batch_writer(3); });
  WaitFor([&] { return db->GetStats().pending_writers >= 3; });

  env.gate()->Open();
  leader.join();
  follower_b.join();
  follower_c.join();

  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.write_groups, 2u);  // leader's solo round + shared round
  // The solo round is serial (one writer); the shared round has two
  // writers and eight shards, so it must take the parallel path.
  EXPECT_EQ(stats.parallel_apply_groups, 1u);

  std::string value;
  ASSERT_TRUE(db->Get(lsm::ReadOptions(), "k1", &value).ok());
  for (int id : {2, 3}) {
    for (int i = 0; i < 8; i++) {
      std::string key = "w" + std::to_string(id) + ".row" + std::to_string(i);
      ASSERT_TRUE(db->Get(lsm::ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ(value, "v" + std::to_string(id));
    }
  }
}

// --- Cross-engine model checks -------------------------------------------
//
// Each engine runs kWriters writer threads over disjoint key ranges while
// readers and scanners run concurrently. Values are a pure function of
// the key, so every read or scan result is checkable mid-flight: a key is
// either absent or carries exactly its expected value, and scans must
// return sorted, well-formed records. After the writers join, the full
// key set is verified against the model.

constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kScanners = 1;
constexpr int kKeysPerWriter = 300;

std::string ModelKey(int writer, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%02d.%06d", writer, i);
  return buf;
}

std::string ModelValue(const std::string& key) { return "v:" + key; }

struct EngineOps {
  std::function<Status(const std::string&, const std::string&)> put;
  std::function<Status(const std::string&, std::string*)> get;
  std::function<Status(const std::string&, int,
                       std::vector<std::pair<std::string, std::string>>*)>
      scan;
};

void RunModelCheck(const EngineOps& ops) {
  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; i++) {
        std::string key = ModelKey(w, i);
        Status s = ops.put(key, ModelValue(key));
        if (!s.ok()) {
          ADD_FAILURE() << "put " << key << ": " << s.ToString();
          failed.store(true);
          break;
        }
      }
      writers_left.fetch_sub(1);
    });
  }

  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(100 + r);
      while (writers_left.load() > 0 && !failed.load()) {
        std::string key =
            ModelKey(static_cast<int>(rng.Uniform(kWriters)),
                     static_cast<int>(rng.Uniform(kKeysPerWriter)));
        std::string value;
        Status s = ops.get(key, &value);
        if (s.ok() && value != ModelValue(key)) {
          ADD_FAILURE() << "get " << key << " returned '" << value << "'";
          failed.store(true);
        } else if (!s.ok() && !s.IsNotFound()) {
          ADD_FAILURE() << "get " << key << ": " << s.ToString();
          failed.store(true);
        }
      }
    });
  }

  for (int sc = 0; sc < kScanners; sc++) {
    threads.emplace_back([&, sc] {
      Random rng(200 + sc);
      while (writers_left.load() > 0 && !failed.load()) {
        std::string start =
            ModelKey(static_cast<int>(rng.Uniform(kWriters)),
                     static_cast<int>(rng.Uniform(kKeysPerWriter)));
        std::vector<std::pair<std::string, std::string>> out;
        Status s = ops.scan(start, 20, &out);
        if (!s.ok()) {
          if (s.IsNotSupported()) return;
          ADD_FAILURE() << "scan " << start << ": " << s.ToString();
          failed.store(true);
          break;
        }
        for (size_t i = 0; i < out.size(); i++) {
          if (i > 0 && out[i - 1].first >= out[i].first) {
            ADD_FAILURE() << "scan out of order at " << out[i].first;
            failed.store(true);
          }
          if (out[i].second != ModelValue(out[i].first)) {
            ADD_FAILURE() << "scan saw torn value for " << out[i].first;
            failed.store(true);
          }
        }
      }
    });
  }

  for (auto& thread : threads) thread.join();

  // Final state must match the model exactly.
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      std::string key = ModelKey(w, i);
      std::string value;
      Status s = ops.get(key, &value);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      ASSERT_EQ(value, ModelValue(key));
    }
  }
}

TEST(LsmConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-lsm");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 16 * 1024;  // force flushes mid-run
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return db->Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return db->Get(lsm::ReadOptions(), k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return db->Scan(lsm::ReadOptions(), start, count, out);
  };
  RunModelCheck(ops);

  lsm::DB::Stats stats = db->GetStats();
  EXPECT_EQ(stats.grouped_writes, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.write_groups, 1u);
}

// Sharded-memtable atomicity model check: each writer repeatedly commits
// an 8-row batch whose rows hash to different shards, all rows carrying
// the batch's version number. Because a group's sequence is published
// only after every shard finishes applying, no reader — point Get or
// snapshot scan — may ever observe rows from the same batch at different
// versions, even while the parallel shard-claim apply and memtable
// rotation race underneath.
TEST(LsmConcurrencyTest, ShardedBatchAtomicityUnderSnapshots) {
  testutil::ScopedTempDir dir("conc-lsm-atomic");
  lsm::Options options;
  options.dir = dir.path();
  options.memtable_bytes = 32 * 1024;  // rotate memtables mid-run
  options.memtable_shards = 8;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, &db).ok());

  constexpr int kBatchWriters = 4;
  constexpr int kRowsPerBatch = 8;
  constexpr int kVersions = 150;
  auto row_key = [](int writer, int row) {
    return "batch" + std::to_string(writer) + ".row" + std::to_string(row);
  };

  std::atomic<int> writers_left{kBatchWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kBatchWriters; w++) {
    threads.emplace_back([&, w] {
      for (int v = 1; v <= kVersions && !failed.load(); v++) {
        lsm::WriteBatch batch;
        for (int r = 0; r < kRowsPerBatch; r++) {
          batch.Put(row_key(w, r), std::to_string(v));
        }
        Status s = db->Write(batch);
        if (!s.ok()) {
          ADD_FAILURE() << "write: " << s.ToString();
          failed.store(true);
        }
      }
      writers_left.fetch_sub(1);
    });
  }

  // Snapshot scanners: one frozen view must show every row of a writer's
  // batch at one single version.
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint32_t>(7 + t));
      while (writers_left.load() > 0 && !failed.load()) {
        const int w = static_cast<int>(rng.Uniform(kBatchWriters));
        const std::string prefix = "batch" + std::to_string(w) + ".";
        auto iter = db->NewSnapshotIterator(lsm::ReadOptions());
        iter->Seek(prefix);
        std::string version;
        int rows = 0;
        while (iter->Valid() && iter->key().StartsWith(prefix)) {
          if (rows == 0) {
            version = iter->value().ToString();
          } else if (iter->value().ToString() != version) {
            ADD_FAILURE() << "torn batch for writer " << w << ": row "
                          << iter->key().ToString() << " at version "
                          << iter->value().ToString() << " vs " << version;
            failed.store(true);
            break;
          }
          rows++;
          iter->Next();
        }
        if (rows != 0 && rows != kRowsPerBatch && !failed.load()) {
          ADD_FAILURE() << "snapshot saw " << rows << " of " << kRowsPerBatch
                        << " rows for writer " << w;
          failed.store(true);
        }
      }
    });
  }

  // Point readers race the apply path on individual rows.
  threads.emplace_back([&] {
    Random rng(99);
    while (writers_left.load() > 0 && !failed.load()) {
      const int w = static_cast<int>(rng.Uniform(kBatchWriters));
      const int r = static_cast<int>(rng.Uniform(kRowsPerBatch));
      std::string value;
      Status s = db->Get(lsm::ReadOptions(), row_key(w, r), &value);
      if (!s.ok() && !s.IsNotFound()) {
        ADD_FAILURE() << "get: " << s.ToString();
        failed.store(true);
      }
    }
  });

  for (auto& thread : threads) thread.join();

  for (int w = 0; w < kBatchWriters; w++) {
    for (int r = 0; r < kRowsPerBatch; r++) {
      std::string value;
      ASSERT_TRUE(db->Get(lsm::ReadOptions(), row_key(w, r), &value).ok());
      EXPECT_EQ(value, std::to_string(kVersions));
    }
  }
}

TEST(BtreeConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-btree");
  btree::Options options;
  options.path = dir.path() + "/tree.db";
  options.binlog_path = dir.path() + "/binlog";
  options.buffer_pool_bytes = 256 * 1024;  // force pool eviction mid-run
  std::unique_ptr<btree::BTree> tree;
  ASSERT_TRUE(btree::BTree::Open(options, &tree).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return tree->Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return tree->Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return tree->Scan(start, count, out);
  };
  RunModelCheck(ops);

  btree::BTree::Stats stats = tree->GetStats();
  EXPECT_EQ(stats.binlog_appends, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.binlog_groups, 1u);
  EXPECT_LE(stats.binlog_groups, stats.binlog_appends);
}

TEST(HashKvConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-hashkv");
  hashkv::Options options;
  options.aof_path = dir.path() + "/kv.aof";
  options.initial_buckets = 4;  // force incremental rehash mid-run
  std::unique_ptr<hashkv::HashKV> kv;
  ASSERT_TRUE(hashkv::HashKV::Open(options, &kv).ok());

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return kv->Set(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return kv->Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return kv->Scan(start, count, out);
  };
  RunModelCheck(ops);

  hashkv::HashKV::Stats stats = kv->GetStats();
  EXPECT_EQ(stats.aof_appends, uint64_t{kWriters} * kKeysPerWriter);
  EXPECT_GE(stats.aof_groups, 1u);
  EXPECT_LE(stats.aof_groups, stats.aof_appends);
}

TEST(VoltConcurrencyTest, WritersReadersScannersModelCheck) {
  testutil::ScopedTempDir dir("conc-volt");
  volt::Options options;
  options.sites_per_host = 4;
  options.command_log_path = dir.path() + "/command.log";
  volt::VoltEngine engine(options);

  EngineOps ops;
  ops.put = [&](const std::string& k, const std::string& v) {
    return engine.Put(k, v);
  };
  ops.get = [&](const std::string& k, std::string* v) {
    return engine.Get(k, v);
  };
  ops.scan = [&](const std::string& start, int count, auto* out) {
    return engine.Scan(start, count, out);
  };
  RunModelCheck(ops);
}

// --- Fan-out executor ----------------------------------------------------

TEST(FanoutExecutorTest, RunsEveryTaskEvenWithNoWorkers) {
  FanoutExecutor fanout(0);  // caller-only execution
  std::atomic<int> ran{0};
  std::vector<FanoutExecutor::Task> tasks;
  for (int i = 0; i < 8; i++) {
    tasks.push_back([&ran]() {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(fanout.RunAll(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 8);
}

TEST(FanoutExecutorTest, ReturnsFirstFailureInTaskOrder) {
  FanoutExecutor fanout(3);
  std::vector<FanoutExecutor::Task> tasks;
  tasks.push_back([]() { return Status::OK(); });
  tasks.push_back([]() { return Status::Corruption("task 1 failed"); });
  tasks.push_back([]() { return Status::IOError("task 2 failed"); });
  Status s = fanout.RunAll(std::move(tasks));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(FanoutExecutorTest, ConcurrentBatchesFromManyCallers) {
  FanoutExecutor fanout(2);
  constexpr int kCallers = 6;
  constexpr int kRounds = 50;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; c++) {
    callers.emplace_back([&]() {
      for (int r = 0; r < kRounds; r++) {
        std::vector<FanoutExecutor::Task> tasks;
        for (int i = 0; i < 4; i++) {
          tasks.push_back([&total]() {
            total.fetch_add(1);
            return Status::OK();
          });
        }
        ASSERT_TRUE(fanout.RunAll(std::move(tasks)).ok());
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kRounds * 4);
}

// --- Concurrent cross-shard scans ---------------------------------------
//
// Every store whose ScanKeyed spans multiple nodes runs the same check:
// over a static preloaded key set, concurrent scanners from many threads
// must each see the exact globally-ordered window. Redis (client
// sharding) and Cassandra (random partitioning) fan out and k-way merge,
// hammering the fan-out executor in parallel; HBase walks its ordered
// regions one at a time, switching servers at each region end.
class StoreFanoutScanTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreFanoutScanTest, ConcurrentScansSeeOrderedWindows) {
  testutil::ScopedTempDir dir("fanout-" + GetParam());
  stores::StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 4;
  options.memtable_bytes = 64 * 1024;
  options.buffer_pool_bytes = 1 * 1024 * 1024;
  std::unique_ptr<ycsb::DB> db;
  ASSERT_TRUE(stores::CreateStore(GetParam(), options, &db).ok());

  constexpr int kKeys = 300;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i * 7);
    keys.push_back(buf);
    ycsb::Record record;
    record.emplace_back("field0", "value-" + std::to_string(i));
    ASSERT_TRUE(db->Insert("usertable", keys.back(), record).ok());
  }

  constexpr int kScanners = 4;
  constexpr int kScansPerThread = 40;
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; t++) {
    scanners.emplace_back([&, t]() {
      Random rng(static_cast<uint32_t>(100 + t));
      for (int i = 0; i < kScansPerThread; i++) {
        size_t from = rng.Uniform(kKeys);
        int count = 1 + static_cast<int>(rng.Uniform(40));
        std::vector<ycsb::KeyedRecord> got;
        Status s = db->ScanKeyed("usertable", keys[from], count, &got);
        ASSERT_TRUE(s.ok()) << s.ToString();
        size_t expect =
            std::min(static_cast<size_t>(count), keys.size() - from);
        ASSERT_EQ(got.size(), expect) << "start=" << keys[from];
        for (size_t j = 0; j < got.size(); j++) {
          EXPECT_EQ(got[j].key, keys[from + j]);
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
}

INSTANTIATE_TEST_SUITE_P(Stores, StoreFanoutScanTest,
                         ::testing::Values("redis", "cassandra", "hbase"));

}  // namespace
}  // namespace apmbench
