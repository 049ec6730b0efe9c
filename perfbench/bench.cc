// End-to-end benchmark: three closed-loop workloads (ingest, query,
// serve) over the embedded stores and the loopback serving path, with a
// correctness gate and an optional traced run that replays the workload's
// operation stream down a ladder of layers (engine, store, codec, remote).
//
//   apm_perfbench --workload ingest|query|serve --seed N --seconds S
//                 --trace 0|1 --dir DATA_DIR [--git-sha SHA]
//                 [--scale F] [--inject drop|corrupt]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the line before it is the run's provenance. A correctness
// violation prints the reason to stderr and exits 1 with no result line.
// perfbench/README.md documents the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/properties.h"
#include "common/random.h"
#include "common/status.h"
#include "hashkv/hashkv.h"
#include "lsm/db.h"
#include "net/protocol.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "stores/cassandra_store.h"
#include "stores/factory.h"
#include "stores/hbase_store.h"
#include "stores/redis_store.h"
#include "ycsb/db.h"
#include "ycsb/workload.h"

namespace apmbench::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

enum Op : uint8_t { kInsert = 0, kRead = 1, kScan = 2 };
constexpr int kNumOps = 3;
const char* const kOpNames[kNumOps] = {"insert", "read", "scan"};

// The paper's record shape (Table 1 presets set it; the gate checks it).
constexpr int kFieldCount = 5;
constexpr size_t kFieldLength = 10;
constexpr int kScanLength = 50;
constexpr uint64_t kRawRecordBytes = 25 + kFieldCount * kFieldLength;

// ---------------------------------------------------------------------
// Workload definitions. Why each exists is recorded in BENCHMARK.json and
// perfbench/README.md.

struct Spec {
  std::string name;
  std::string store;
  std::string mix;  // Table-1 preset
  int threads = 4;
  // > 0: clients reach the store through net::RemoteStore over loopback
  // with this many connections; 0: clients call the embedded store.
  int connections = 0;
  int server_event_threads = 1;
  int server_worker_threads = 1;
  uint64_t preload = 0;
  stores::StoreOptions options;
  // The two operations whose latency is reported end to end (op1_*,
  // op2_*); see README.md for why ingest's op2 is its 1% reads.
  Op op1 = kInsert;
  Op op2 = kRead;
};

bool MakeSpec(const std::string& name, double scale, Spec* spec) {
  spec->name = name;
  auto scaled = [scale](uint64_t n) {
    return std::max<uint64_t>(1000, static_cast<uint64_t>(n * scale));
  };
  stores::StoreOptions& o = spec->options;
  if (name == "ingest") {
    // Small memtables so the timed window completes many flushes and
    // several size-tiered compactions.
    spec->store = "cassandra";
    spec->mix = "W";
    spec->threads = 4;
    spec->preload = scaled(100000);
    o.num_nodes = 1;
    o.memtable_bytes = 2 << 20;
    o.block_cache_bytes = 8 << 20;
    spec->op1 = kInsert;
    spec->op2 = kRead;
  } else if (name == "query") {
    // 2 region servers x 8 regions; the block cache (4 MiB per node) is
    // checked after set-up to be at most a quarter of the loaded bytes.
    spec->store = "hbase";
    spec->mix = "RS";
    spec->threads = 4;
    spec->preload = scaled(200000);
    o.num_nodes = 2;
    o.regions_per_server = 8;
    o.memtable_bytes = 2 << 20;
    o.block_cache_bytes = 4 << 20;
    spec->op1 = kRead;
    spec->op2 = kScan;
  } else if (name == "serve") {
    // 2 client threads on 2 connections, 1 event loop and 1 worker: the
    // runnable threads stay within 4 cores.
    spec->store = "redis";
    spec->mix = "RW";
    spec->threads = 2;
    spec->connections = 2;
    spec->preload = scaled(50000);
    o.num_nodes = 1;
    o.redis_aof = true;
    spec->op1 = kRead;
    spec->op2 = kInsert;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Inputs. Every key and record comes from ycsb::CoreWorkload; records are
// derived from (seed, keynum) so the gate can recompute what a key holds.

uint64_t RecordSeed(uint64_t seed, uint64_t keynum) {
  return FnvHash64(keynum) ^ (seed * 0x9e3779b97f4a7c15ULL);
}

ycsb::Record RecordFor(const ycsb::CoreWorkload& wl, uint64_t seed,
                       uint64_t keynum) {
  Random rng(RecordSeed(seed, keynum));
  return wl.BuildRecord(&rng);
}

// The committed key set: the preloaded keynums [0, preload) plus, per
// writer thread t, keynums preload + t + writers * i for i < done[t].
// Reads draw only from committed keys, so a read never races the insert
// of its own key and no operation legitimately misses.
class KeySpace {
 public:
  KeySpace(uint64_t preload, int writers)
      : preload_(preload), writers_(writers), done_(writers) {}

  uint64_t preload() const { return preload_; }

  uint64_t InsertKeyNum(int thread, uint64_t i) const {
    return preload_ + static_cast<uint64_t>(thread) +
           static_cast<uint64_t>(writers_) * i;
  }
  // Called by thread `thread` only, after its insert returned.
  void Commit(int thread) {
    done_[static_cast<size_t>(thread)].v.fetch_add(1,
                                                   std::memory_order_release);
  }
  uint64_t RunInserted() const {
    uint64_t n = 0;
    for (const Slot& s : done_) n += s.v.load(std::memory_order_acquire);
    return n;
  }
  uint64_t Total() const { return preload_ + RunInserted(); }

  // Uniform over the committed set.
  uint64_t Draw(Random* rng) const {
    uint64_t counts[64];
    uint64_t total = preload_;
    for (size_t t = 0; t < done_.size(); t++) {
      counts[t] = done_[t].v.load(std::memory_order_acquire);
      total += counts[t];
    }
    uint64_t u = rng->Uniform(total);
    if (u < preload_) return u;
    return MapRun(u - preload_, counts);
  }
  // Uniform over the keys inserted during the run (requires some).
  uint64_t DrawRun(Random* rng) const {
    uint64_t counts[64];
    uint64_t total = 0;
    for (size_t t = 0; t < done_.size(); t++) {
      counts[t] = done_[t].v.load(std::memory_order_acquire);
      total += counts[t];
    }
    return MapRun(rng->Uniform(total), counts);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };

  uint64_t MapRun(uint64_t u, const uint64_t* counts) const {
    for (size_t t = 0; t < done_.size(); t++) {
      if (u < counts[t]) return InsertKeyNum(static_cast<int>(t), u);
      u -= counts[t];
    }
    return 0;  // unreachable: u < sum(counts)
  }

  const uint64_t preload_;
  const int writers_;
  std::vector<Slot> done_;
};

// ---------------------------------------------------------------------
// Correctness checks shared by the timed loop, the read-back and the
// ladder. Each returns an empty string when the result is valid.

std::string CheckShape(const ycsb::Record& record) {
  if (record.size() != static_cast<size_t>(kFieldCount)) {
    return "record has " + std::to_string(record.size()) + " fields";
  }
  for (const auto& field : record) {
    if (field.second.size() != kFieldLength) {
      return "field " + field.first + " has " +
             std::to_string(field.second.size()) + " bytes";
    }
  }
  return "";
}

std::string CheckRecord(const ycsb::Record& got, const ycsb::Record& want) {
  std::string shape = CheckShape(got);
  if (!shape.empty()) return shape;
  if (got != want) return "record content differs from what was inserted";
  return "";
}

std::string CheckScan(const std::string& start,
                      const std::vector<ycsb::KeyedRecord>& rows) {
  if (rows.size() > static_cast<size_t>(kScanLength)) {
    return "scan returned " + std::to_string(rows.size()) + " rows";
  }
  for (size_t i = 0; i < rows.size(); i++) {
    if (rows[i].key < start) return "scan row below its start key";
    if (i > 0 && !(rows[i - 1].key < rows[i].key)) {
      return "scan rows not strictly ascending";
    }
    std::string shape = CheckShape(rows[i].record);
    if (!shape.empty()) return "scan row: " + shape;
  }
  return "";
}

// First violation wins; later ones are dropped.
class Violations {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.empty()) first_ = what;
  }
  std::string first() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::mutex mu_;
  std::string first_;
};

// A ycsb::DB that loses or damages every 97th insert. Used only by the
// benchmark's self-test (--inject) to prove the gate trips.
class FaultyDB final : public ycsb::DB {
 public:
  FaultyDB(ycsb::DB* base, bool corrupt) : base_(base), corrupt_(corrupt) {}

  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override {
    return base_->Read(table, key, record);
  }
  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count, std::vector<ycsb::KeyedRecord>* records) override {
    return base_->ScanKeyed(table, start_key, count, records);
  }
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    if (inserts_.fetch_add(1, std::memory_order_relaxed) % 97 != 13) {
      return base_->Insert(table, key, record);
    }
    if (!corrupt_) return Status::OK();
    ycsb::Record damaged = record;
    damaged[0].second[0] = static_cast<char>(damaged[0].second[0] ^ 1);
    return base_->Insert(table, key, damaged);
  }
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override {
    return base_->Update(table, key, record);
  }
  Status Delete(const std::string& table, const Slice& key) override {
    return base_->Delete(table, key);
  }
  Status DiskUsage(uint64_t* bytes) override {
    return base_->DiskUsage(bytes);
  }

 private:
  ycsb::DB* const base_;
  const bool corrupt_;
  std::atomic<uint64_t> inserts_{0};
};

// ---------------------------------------------------------------------
// Counter snapshots (NodeStats, Server::GetStats, getrusage).

struct LsmTotals {
  uint64_t flushes = 0, compactions = 0, compaction_bytes_written = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t write_groups = 0, grouped_writes = 0, parallel_apply_groups = 0;
  uint64_t stall_writes = 0;
  uint64_t running = 0, claimed = 0;
  uint64_t live_table_bytes = 0;
  int l0_files_max = 0;  // max over nodes of this snapshot
};

LsmTotals SnapshotLsm(ycsb::DB* store, int nodes) {
  LsmTotals t;
  std::vector<lsm::DB::Stats> all;
  if (auto* c = dynamic_cast<stores::CassandraStore*>(store)) {
    for (int i = 0; i < nodes; i++) all.push_back(c->NodeStats(i));
  } else if (auto* h = dynamic_cast<stores::HBaseStore*>(store)) {
    for (int i = 0; i < nodes; i++) all.push_back(h->NodeStats(i));
  }
  for (const lsm::DB::Stats& s : all) {
    t.flushes += s.num_flushes;
    t.compactions += s.num_compactions;
    t.compaction_bytes_written += s.compaction_bytes_written;
    t.cache_hits += s.cache_hits;
    t.cache_misses += s.cache_misses;
    t.cache_evictions += s.cache_evictions;
    t.write_groups += s.write_groups;
    t.grouped_writes += s.grouped_writes;
    t.parallel_apply_groups += s.parallel_apply_groups;
    t.stall_writes += s.stall_slowdown_writes + s.stall_stop_writes;
    t.running += s.running_compactions;
    t.claimed += s.claimed_files;
    for (uint64_t b : s.bytes_per_level) t.live_table_bytes += b;
    if (!s.files_per_level.empty()) {
      t.l0_files_max = std::max(t.l0_files_max, s.files_per_level[0]);
    }
  }
  return t;
}

struct KvTotals {
  uint64_t aof_appends = 0, aof_groups = 0;
};

KvTotals SnapshotKv(ycsb::DB* store, int nodes) {
  KvTotals t;
  if (auto* r = dynamic_cast<stores::RedisStore*>(store)) {
    for (int i = 0; i < nodes; i++) {
      hashkv::HashKV::Stats s = r->NodeStats(i);
      t.aof_appends += s.aof_appends;
      t.aof_groups += s.aof_groups;
    }
  }
  return t;
}

struct ProcTotals {
  uint64_t cpu_us = 0, vcsw = 0, ivcsw = 0;
};

ProcTotals SnapshotProc() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  ProcTotals t;
  t.cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1000000ULL +
             static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  t.vcsw = static_cast<uint64_t>(ru.ru_nvcsw);
  t.ivcsw = static_cast<uint64_t>(ru.ru_nivcsw);
  return t;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Order statistics.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------
// A deployment: the embedded store (optionally behind FaultyDB) and, for
// the serve workload, the loopback server and remote client in front.

struct Deployment {
  std::string dir;
  std::unique_ptr<ycsb::DB> store;
  std::unique_ptr<FaultyDB> faulty;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::RemoteStore> remote;

  ycsb::DB* embedded() const {
    return faulty ? static_cast<ycsb::DB*>(faulty.get()) : store.get();
  }
  // What the workload's clients call.
  ycsb::DB* access() const {
    return remote ? static_cast<ycsb::DB*>(remote.get()) : embedded();
  }

  void Teardown() {
    remote.reset();
    if (server) server->Stop();
    server.reset();
    faulty.reset();
    store.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string git_sha = "unknown";
  double scale = 1.0;
  std::string inject;  // "", "drop", "corrupt"
};

Status Preload(const Spec& spec, const ycsb::CoreWorkload& wl, uint64_t seed,
               ycsb::DB* db) {
  const int loaders = 4;
  std::vector<std::thread> threads;
  std::vector<Status> status(loaders);
  for (int t = 0; t < loaders; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t k = static_cast<uint64_t>(t); k < spec.preload;
           k += loaders) {
        Status s = db->Insert(wl.table(), Slice(wl.BuildKeyName(k)),
                              RecordFor(wl, seed, k));
        if (!s.ok()) {
          status[static_cast<size_t>(t)] = s;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : status) APM_RETURN_IF_ERROR(s);
  return Status::OK();
}

// Waits until background work has settled: no flush, compaction or
// compaction output for ten consecutive 50 ms polls. A shorter quiet
// period can fall between a flush and the compaction it triggers.
void Quiesce(const Spec& spec, ycsb::DB* store) {
  if (spec.store == "redis") return;
  auto key = [&](const LsmTotals& t) {
    return std::vector<uint64_t>{t.flushes, t.compactions,
                                 t.compaction_bytes_written, t.running,
                                 t.claimed,
                                 static_cast<uint64_t>(t.l0_files_max)};
  };
  const uint64_t deadline = NowNs() + 60ULL * 1000000000ULL;
  std::vector<uint64_t> last = key(SnapshotLsm(store, spec.options.num_nodes));
  int stable = 0;
  while (stable < 10 && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    LsmTotals now = SnapshotLsm(store, spec.options.num_nodes);
    std::vector<uint64_t> k = key(now);
    bool idle = now.running == 0 && now.claimed == 0 && k == last;
    stable = idle ? stable + 1 : 0;
    last = k;
  }
}

Status Setup(const Spec& spec, const Config& cfg, const ycsb::CoreWorkload& wl,
             Deployment* d) {
  d->dir = cfg.dir + "/store";
  std::error_code ec;
  std::filesystem::remove_all(d->dir, ec);
  stores::StoreOptions options = spec.options;
  options.base_dir = d->dir;
  APM_RETURN_IF_ERROR(stores::CreateStore(spec.store, options, &d->store));
  APM_RETURN_IF_ERROR(d->store->Init());
  if (!cfg.inject.empty()) {
    d->faulty = std::make_unique<FaultyDB>(d->store.get(),
                                           cfg.inject == "corrupt");
  }
  APM_RETURN_IF_ERROR(Preload(spec, wl, cfg.seed, d->embedded()));
  Quiesce(spec, d->store.get());
  if (spec.connections > 0) {
    net::ServerOptions so;
    so.event_threads = spec.server_event_threads;
    so.worker_threads = spec.server_worker_threads;
    d->server = std::make_unique<net::Server>(so, d->embedded());
    APM_RETURN_IF_ERROR(d->server->Start());
    net::ClientOptions co;
    co.port = d->server->port();
    co.connections = spec.connections;
    APM_RETURN_IF_ERROR(net::RemoteStore::Open(co, &d->remote));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// The timed closed loop.

// 8 bytes, so the buffers the benchmark itself fills stay a small, steady
// part of rss_mb. Latencies above ~4.3 s are clamped.
struct Sample {
  uint32_t ns;
  uint16_t slice;
  uint8_t op;
};

struct ThreadResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Traced slices only: time spent drawing the op and building its inputs.
  uint64_t gen_ns = 0;
  uint64_t gen_ops = 0;
};

struct WindowResult {
  std::vector<double> slice_seconds;
  // Whether the hypervisor stole at most kMaxStealShare of the VM's CPU
  // time during the slice. Metrics use clean slices only, unless none is.
  std::vector<bool> slice_clean;
  int clean_slices = 0;
  double steal_share = 0;  // over the whole window
  bool Counted(uint32_t slice) const {
    return clean_slices == 0 || slice_clean[slice];
  }
  std::vector<ThreadResult> threads;
  uint64_t attempted = 0, failed = 0;
  LsmTotals lsm_delta;
  int l0_files_max = 0;
  KvTotals kv_delta;
  net::Server::Stats server_before, server_after;
  ProcTotals proc_delta;
  uint64_t ops_in_window = 0;
  uint64_t inserts_in_window = 0;
};

// Host CPU time taken by other virtual machines, from /proc/stat.
struct StealSample {
  uint64_t steal = 0, total = 0;
};

StealSample ReadSteal() {
  StealSample out;
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {0};
  if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
             &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += x;
    out.steal = v[7];
  }
  fclose(f);
  return out;
}

// A slice during which other tenants took more than this share of the
// machine measures them, not the program; the window is extended (up to
// twice its length) until it holds the wanted number of clean slices.
constexpr double kMaxStealShare = 0.05;

bool SliceTraced(const Config& cfg, uint32_t slice) {
  return cfg.trace && slice % 2 == 1;
}

void RunWindow(const Spec& spec, const Config& cfg, ycsb::CoreWorkload* wl,
               Deployment* d, KeySpace* keys, Violations* violations,
               WindowResult* out) {
  const int slices = 20;  // clean slices wanted
  const double slice_s = cfg.seconds / slices;
  const double warmup_s = std::min(1.0, cfg.seconds / 10);
  std::atomic<int64_t> slice{-1};  // -1: warm-up, not recorded
  std::atomic<bool> stop{false};
  ycsb::DB* db = d->access();
  const std::string table = wl->table();

  out->threads.resize(static_cast<size_t>(spec.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.threads; t++) {
    threads.emplace_back([&, t] {
      ThreadResult& r = out->threads[static_cast<size_t>(t)];
      r.samples.reserve(1 << 20);
      Random rng(cfg.seed * 1000003ULL + static_cast<uint64_t>(t) + 1);
      uint64_t next_insert = 0;
      ycsb::Record record;
      std::vector<ycsb::KeyedRecord> rows;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t s = slice.load(std::memory_order_relaxed);
        const bool traced = s >= 0 && SliceTraced(cfg, static_cast<uint32_t>(s));
        const uint64_t t0 = traced ? NowNs() : 0;
        ycsb::OpType type = wl->NextOperation(&rng);
        Op op = type == ycsb::OpType::kInsert ? kInsert
                : type == ycsb::OpType::kScan ? kScan
                                              : kRead;
        uint64_t keynum = op == kInsert ? keys->InsertKeyNum(t, next_insert++)
                                        : keys->Draw(&rng);
        const std::string key = wl->BuildKeyName(keynum);
        if (op == kInsert) record = RecordFor(*wl, cfg.seed, keynum);
        const int scan_len = op == kScan ? wl->NextScanLength(&rng) : 0;
        const uint64_t t1 = NowNs();
        Status st;
        if (op == kInsert) {
          st = db->Insert(table, Slice(key), record);
        } else if (op == kRead) {
          st = db->Read(table, Slice(key), &record);
        } else {
          st = db->ScanKeyed(table, Slice(key), scan_len, &rows);
        }
        const uint64_t t2 = NowNs();
        r.attempted++;
        if (op == kInsert) keys->Commit(t);
        if (!st.ok()) {
          r.failed++;
          violations->Add(std::string(kOpNames[op]) + " failed: " +
                          st.ToString());
        } else if (op == kRead) {
          std::string bad =
              CheckRecord(record, RecordFor(*wl, cfg.seed, keynum));
          if (!bad.empty()) violations->Add("read " + key + ": " + bad);
        } else if (op == kScan) {
          std::string bad = CheckScan(key, rows);
          if (!bad.empty()) violations->Add("scan from " + key + ": " + bad);
        }
        if (s >= 0) {
          r.samples.push_back(Sample{
              static_cast<uint32_t>(std::min<uint64_t>(t2 - t1, UINT32_MAX)),
              static_cast<uint16_t>(s), static_cast<uint8_t>(op)});
          if (traced) {
            r.gen_ns += t1 - t0;
            r.gen_ops++;
          }
        }
      }
    });
  }

  auto sleep_until = [&](uint64_t deadline_ns) {
    // Sample L0 while waiting: the peak is what admission control sees.
    for (;;) {
      uint64_t now = NowNs();
      if (now >= deadline_ns) return;
      uint64_t step = std::min<uint64_t>(deadline_ns - now, 50000000ULL);
      std::this_thread::sleep_for(std::chrono::nanoseconds(step));
      if (slice.load() >= 0) {
        out->l0_files_max = std::max(
            out->l0_files_max,
            SnapshotLsm(d->store.get(), spec.options.num_nodes).l0_files_max);
      }
    }
  };

  sleep_until(NowNs() + static_cast<uint64_t>(warmup_s * 1e9));
  const LsmTotals lsm0 = SnapshotLsm(d->store.get(), spec.options.num_nodes);
  const KvTotals kv0 = SnapshotKv(d->store.get(), spec.options.num_nodes);
  if (d->server) out->server_before = d->server->GetStats();
  const ProcTotals proc0 = SnapshotProc();
  uint64_t begin = NowNs();
  const uint64_t cap = begin + static_cast<uint64_t>(2 * cfg.seconds * 1e9);
  const StealSample steal0 = ReadSteal();
  StealSample last = steal0;
  for (int s = 0; out->clean_slices < slices && (s < slices || NowNs() < cap);
       s++) {
    slice.store(s);
    uint64_t end = begin + static_cast<uint64_t>(slice_s * 1e9);
    sleep_until(end);
    out->slice_seconds.push_back(Seconds(NowNs() - begin));
    begin = NowNs();
    StealSample now = ReadSteal();
    bool clean = Ratio(static_cast<double>(now.steal - last.steal),
                       static_cast<double>(now.total - last.total)) <=
                 kMaxStealShare;
    out->slice_clean.push_back(clean);
    out->clean_slices += clean ? 1 : 0;
    last = now;
  }
  out->steal_share = Ratio(static_cast<double>(last.steal - steal0.steal),
                           static_cast<double>(last.total - steal0.total));
  stop.store(true);
  for (auto& th : threads) th.join();
  const ProcTotals proc1 = SnapshotProc();
  const LsmTotals lsm1 = SnapshotLsm(d->store.get(), spec.options.num_nodes);
  const KvTotals kv1 = SnapshotKv(d->store.get(), spec.options.num_nodes);
  if (d->server) out->server_after = d->server->GetStats();

  out->proc_delta = {proc1.cpu_us - proc0.cpu_us, proc1.vcsw - proc0.vcsw,
                     proc1.ivcsw - proc0.ivcsw};
  LsmTotals& ld = out->lsm_delta;
  ld.flushes = lsm1.flushes - lsm0.flushes;
  ld.compactions = lsm1.compactions - lsm0.compactions;
  ld.compaction_bytes_written =
      lsm1.compaction_bytes_written - lsm0.compaction_bytes_written;
  ld.cache_hits = lsm1.cache_hits - lsm0.cache_hits;
  ld.cache_misses = lsm1.cache_misses - lsm0.cache_misses;
  ld.cache_evictions = lsm1.cache_evictions - lsm0.cache_evictions;
  ld.write_groups = lsm1.write_groups - lsm0.write_groups;
  ld.grouped_writes = lsm1.grouped_writes - lsm0.grouped_writes;
  ld.parallel_apply_groups =
      lsm1.parallel_apply_groups - lsm0.parallel_apply_groups;
  ld.stall_writes = lsm1.stall_writes - lsm0.stall_writes;
  out->kv_delta = {kv1.aof_appends - kv0.aof_appends,
                   kv1.aof_groups - kv0.aof_groups};
  for (const ThreadResult& r : out->threads) {
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->ops_in_window += r.samples.size();
    for (const Sample& s : r.samples) {
      if (s.op == kInsert) out->inserts_in_window++;
    }
  }
}

// Median over counted slices of a per-slice statistic; `want` selects
// among them.
double SliceMedian(const WindowResult& w,
                   const std::function<bool(uint32_t)>& want,
                   const std::function<double(uint32_t, std::vector<double>&)>&
                       stat,
                   int op) {
  std::vector<std::vector<double>> per_slice(w.slice_seconds.size());
  for (const ThreadResult& r : w.threads) {
    for (const Sample& s : r.samples) {
      if (op >= 0 && s.op != op) continue;
      per_slice[s.slice].push_back(static_cast<double>(s.ns) / 1000.0);
    }
  }
  std::vector<double> values;
  for (uint32_t i = 0; i < per_slice.size(); i++) {
    if (!w.Counted(i) || !want(i)) continue;
    values.push_back(stat(i, per_slice[i]));
  }
  return Median(values);
}

// A quantile over every sample of one op in the counted slices: p99 needs
// the whole window to keep at least ten samples beyond it (ingest's reads
// are 1% of its mix).
double WindowQuantile(const WindowResult& w, int op, double q) {
  std::vector<double> v;
  for (const ThreadResult& r : w.threads) {
    for (const Sample& s : r.samples) {
      if (s.op == op && w.Counted(s.slice)) {
        v.push_back(static_cast<double>(s.ns) / 1000.0);
      }
    }
  }
  return Quantile(std::move(v), q);
}

// ---------------------------------------------------------------------
// Read-back gate: a seeded sample of keys from set-up and from the run
// must all be found with exactly the record that was inserted.

struct ReadbackResult {
  uint64_t attempted = 0, failed = 0;
};

void Readback(const Config& cfg, const ycsb::CoreWorkload& wl,
              const KeySpace& keys, ycsb::DB* db, uint64_t samples,
              Violations* violations, ReadbackResult* out) {
  Random rng(cfg.seed ^ 0x5eed0fbac4ULL);
  const bool have_run_keys = keys.RunInserted() > 0;
  ycsb::Record record;
  for (uint64_t i = 0; i < samples; i++) {
    uint64_t keynum = (i % 2 == 1 && have_run_keys)
                          ? keys.DrawRun(&rng)
                          : rng.Uniform(keys.preload());
    const std::string key = wl.BuildKeyName(keynum);
    Status st = db->Read(wl.table(), Slice(key), &record);
    out->attempted++;
    if (!st.ok()) {
      out->failed++;
      violations->Add("read-back of " + key + " (keynum " +
                      std::to_string(keynum) + "): " + st.ToString());
      continue;
    }
    std::string bad = CheckRecord(record, RecordFor(wl, cfg.seed, keynum));
    if (!bad.empty()) violations->Add("read-back of " + key + ": " + bad);
  }
}

// ---------------------------------------------------------------------
// The layer ladder (traced run only): the same seeded operation stream,
// replayed by one client thread at four rungs — the engine alone, the
// store, the store behind the in-process wire codec, and the store behind
// net::Server + net::RemoteStore over loopback. A layer's self time is the
// difference between adjacent rungs at p50.

struct LadderOp {
  Op op;
  uint64_t keynum;  // insert: index into the rung's private key range
};

struct RungResult {
  std::vector<double> us[kNumOps];
  double P50(Op op) const { return Median(us[op]); }
};

std::vector<LadderOp> MakeLadderOps(const Config& cfg, const KeySpace& keys,
                                    int per_op) {
  // Round-robin over the three op types so every rung measures each one;
  // read and scan keys are drawn from the preloaded set with the seed.
  Random rng(cfg.seed ^ 0x1add3aULL);
  std::vector<LadderOp> ops;
  for (int i = 0; i < per_op; i++) {
    ops.push_back({kInsert, static_cast<uint64_t>(i)});
    ops.push_back({kRead, rng.Uniform(keys.preload())});
    ops.push_back({kScan, rng.Uniform(keys.preload())});
  }
  return ops;
}

// Inserts at rung r use keynums far above anything the run can reach.
uint64_t LadderInsertKeyNum(int rung, uint64_t i) {
  return (1ULL << 40) + (static_cast<uint64_t>(rung) << 32) + i;
}

using RungCall = std::function<Status(const LadderOp&, uint64_t keynum)>;

void RunRung(const std::vector<LadderOp>& ops, int rung, const RungCall& call,
             RungResult* out, uint64_t* attempted, uint64_t* failed,
             Violations* violations, const char* rung_name) {
  for (const LadderOp& lop : ops) {
    uint64_t keynum =
        lop.op == kInsert ? LadderInsertKeyNum(rung, lop.keynum) : lop.keynum;
    uint64_t t0 = NowNs();
    Status st = call(lop, keynum);
    uint64_t t1 = NowNs();
    (*attempted)++;
    if (!st.ok()) {
      (*failed)++;
      violations->Add(std::string(rung_name) + " rung " + kOpNames[lop.op] +
                      ": " + st.ToString());
    }
    out->us[lop.op].push_back(static_cast<double>(t1 - t0) / 1000.0);
  }
}

struct LadderResult {
  RungResult engine, store, remote;
  double codec_us = 0;
  double regions_per_scan = 0;
  net::Server::Stats server_delta;  // own server only
  uint64_t attempted = 0, failed = 0;
};

lsm::Options EngineLsmOptions(const Spec& spec, const std::string& dir) {
  const stores::StoreOptions& o = spec.options;
  lsm::Options e;
  e.dir = dir;
  e.memtable_bytes = o.memtable_bytes;
  e.block_cache_bytes = o.block_cache_bytes;
  e.block_cache_shard_bits = o.block_cache_shard_bits;
  e.bloom_bits_per_key = o.bloom_bits_per_key;
  e.memtable_shards = o.lsm_memtable_shards;
  e.compaction_threads = o.lsm_compaction_threads;
  e.level0_slowdown_trigger = o.lsm_level0_slowdown_trigger;
  e.level0_stop_trigger = o.lsm_level0_stop_trigger;
  e.compaction_style = spec.store == "hbase" ? lsm::CompactionStyle::kLeveled
                                             : lsm::CompactionStyle::kSizeTiered;
  return e;
}

Status ExecuteOnStore(ycsb::DB* db, const net::Request& req,
                      net::Response* resp) {
  *resp = net::Response();
  switch (req.op) {
    case net::Opcode::kRead:
      resp->status = db->Read(req.table, Slice(req.key), &resp->record);
      break;
    case net::Opcode::kScan:
      resp->status =
          db->ScanKeyed(req.table, Slice(req.key), req.count, &resp->records);
      break;
    case net::Opcode::kInsert:
      resp->status = db->Insert(req.table, Slice(req.key), req.record);
      break;
    default:
      return Status::InvalidArgument("unexpected opcode");
  }
  return Status::OK();
}

Status RoundTripFrame(const std::string& bytes, net::Frame* frame) {
  net::FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  if (decoder.Next(frame) != net::FrameDecoder::Result::kFrame) {
    return Status::Corruption("codec rung: frame did not decode");
  }
  return Status::OK();
}

Status RunLadder(const Spec& spec, const Config& cfg,
                 const ycsb::CoreWorkload& wl, const KeySpace& keys,
                 Deployment* d, Violations* violations, LadderResult* out) {
  const int per_op = cfg.scale < 1.0 ? 200 : 2000;
  const std::vector<LadderOp> ops = MakeLadderOps(cfg, keys, per_op);
  const std::string table = wl.table();
  ycsb::Record record;
  std::vector<ycsb::KeyedRecord> rows;
  std::vector<std::pair<std::string, std::string>> kvs;
  std::string value;

  auto check_result = [&](const LadderOp& lop, uint64_t keynum,
                          const std::string& key) -> Status {
    std::string bad;
    if (lop.op == kRead) {
      bad = CheckRecord(record, RecordFor(wl, cfg.seed, keynum));
    } else if (lop.op == kScan) {
      bad = CheckScan(key, rows);
    }
    if (!bad.empty()) return Status::Corruption(bad);
    return Status::OK();
  };

  // Rung 1: the engine alone, preloaded with the same base set.
  {
    const std::string dir = cfg.dir + "/engine";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (spec.store == "redis") {
      hashkv::Options ko;
      ko.aof_path = dir + "/appendonly.aof";
      std::unique_ptr<hashkv::HashKV> kv;
      APM_RETURN_IF_ERROR(hashkv::HashKV::Open(ko, &kv));
      for (uint64_t k = 0; k < keys.preload(); k++) {
        ycsb::EncodeRecord(RecordFor(wl, cfg.seed, k), &value);
        APM_RETURN_IF_ERROR(kv->Set(Slice(wl.BuildKeyName(k)), Slice(value)));
      }
      RunRung(
          ops, 0,
          [&](const LadderOp& lop, uint64_t keynum) -> Status {
            const std::string key = wl.BuildKeyName(keynum);
            if (lop.op == kInsert) {
              ycsb::EncodeRecord(RecordFor(wl, cfg.seed, keynum), &value);
              return kv->Set(Slice(key), Slice(value));
            }
            if (lop.op == kRead) return kv->Get(Slice(key), &value);
            return kv->Scan(Slice(key), kScanLength, &kvs);
          },
          &out->engine, &out->attempted, &out->failed, violations, "engine");
    } else {
      std::unique_ptr<lsm::DB> db;
      APM_RETURN_IF_ERROR(lsm::DB::Open(EngineLsmOptions(spec, dir), &db));
      for (uint64_t k = 0; k < keys.preload(); k++) {
        ycsb::EncodeRecord(RecordFor(wl, cfg.seed, k), &value);
        APM_RETURN_IF_ERROR(db->Put(Slice(wl.BuildKeyName(k)), Slice(value)));
      }
      lsm::ReadOptions ro;
      RunRung(
          ops, 0,
          [&](const LadderOp& lop, uint64_t keynum) -> Status {
            const std::string key = wl.BuildKeyName(keynum);
            if (lop.op == kInsert) {
              ycsb::EncodeRecord(RecordFor(wl, cfg.seed, keynum), &value);
              return db->Put(Slice(key), Slice(value));
            }
            if (lop.op == kRead) return db->Get(ro, Slice(key), &value);
            return db->Scan(ro, Slice(key), kScanLength, &kvs);
          },
          &out->engine, &out->attempted, &out->failed, violations, "engine");
      APM_RETURN_IF_ERROR(db->Close());
    }
    std::filesystem::remove_all(dir, ec);
  }

  // Rung 2: the store through its ycsb::DB calls.
  ycsb::DB* store = d->embedded();
  auto* hbase = dynamic_cast<stores::HBaseStore*>(d->store.get());
  uint64_t scans = 0, regions = 0;
  RunRung(
      ops, 1,
      [&](const LadderOp& lop, uint64_t keynum) -> Status {
        const std::string key = wl.BuildKeyName(keynum);
        Status st;
        if (lop.op == kInsert) {
          st = store->Insert(table, Slice(key), RecordFor(wl, cfg.seed, keynum));
        } else if (lop.op == kRead) {
          st = store->Read(table, Slice(key), &record);
        } else {
          st = store->ScanKeyed(table, Slice(key), kScanLength, &rows);
          if (st.ok() && hbase != nullptr && !rows.empty()) {
            const cluster::RegionMap& map = hbase->regions();
            scans++;
            regions += static_cast<uint64_t>(
                map.RegionOf(Slice(rows.back().key)) -
                map.RegionOf(Slice(key)) + 1);
          }
        }
        if (!st.ok()) return st;
        return check_result(lop, keynum, key);
      },
      &out->store, &out->attempted, &out->failed, violations, "store");
  out->regions_per_scan = Ratio(static_cast<double>(regions),
                                static_cast<double>(scans));

  // Rung 3: the store behind the in-process codec. Only the encode and
  // decode calls are timed into codec_us.
  {
    RungResult codec_rung;
    double codec_ns = 0;
    uint64_t codec_ops = 0;
    uint64_t request_id = 0;
    RunRung(
        ops, 2,
        [&](const LadderOp& lop, uint64_t keynum) -> Status {
          net::Request req;
          req.table = table;
          req.key = wl.BuildKeyName(keynum);
          if (lop.op == kInsert) {
            req.op = net::Opcode::kInsert;
            req.record = RecordFor(wl, cfg.seed, keynum);
          } else if (lop.op == kRead) {
            req.op = net::Opcode::kRead;
          } else {
            req.op = net::Opcode::kScan;
            req.count = kScanLength;
          }
          uint64_t t0 = NowNs();
          std::string wire;
          net::EncodeRequest(req, ++request_id, &wire);
          net::Frame frame;
          APM_RETURN_IF_ERROR(RoundTripFrame(wire, &frame));
          net::Request decoded;
          if (!net::DecodeRequest(frame, &decoded)) {
            return Status::Corruption("codec rung: request did not decode");
          }
          uint64_t t1 = NowNs();
          net::Response resp;
          APM_RETURN_IF_ERROR(ExecuteOnStore(store, decoded, &resp));
          uint64_t t2 = NowNs();
          std::string reply;
          net::EncodeResponse(decoded.op, request_id, resp, &reply);
          APM_RETURN_IF_ERROR(RoundTripFrame(reply, &frame));
          net::Response got;
          if (!net::DecodeResponse(frame, &got)) {
            return Status::Corruption("codec rung: response did not decode");
          }
          uint64_t t3 = NowNs();
          codec_ns += static_cast<double>((t1 - t0) + (t3 - t2));
          codec_ops++;
          APM_RETURN_IF_ERROR(got.status);
          record = got.record;
          rows = got.records;
          return check_result(lop, keynum, req.key);
        },
        &codec_rung, &out->attempted, &out->failed, violations, "codec");
    out->codec_us = Ratio(codec_ns / 1000.0, static_cast<double>(codec_ops));
  }

  // Rung 4: net::Server + net::RemoteStore over loopback, one connection.
  {
    std::unique_ptr<net::Server> own_server;
    net::Server* server = d->server.get();
    if (server == nullptr) {
      net::ServerOptions so;
      so.event_threads = spec.server_event_threads;
      so.worker_threads = spec.server_worker_threads;
      own_server = std::make_unique<net::Server>(so, store);
      APM_RETURN_IF_ERROR(own_server->Start());
      server = own_server.get();
    }
    net::ClientOptions co;
    co.port = server->port();
    co.connections = 1;
    std::unique_ptr<net::RemoteStore> remote;
    APM_RETURN_IF_ERROR(net::RemoteStore::Open(co, &remote));
    net::Server::Stats before = server->GetStats();
    RunRung(
        ops, 3,
        [&](const LadderOp& lop, uint64_t keynum) -> Status {
          const std::string key = wl.BuildKeyName(keynum);
          Status st;
          if (lop.op == kInsert) {
            st = remote->Insert(table, Slice(key),
                                RecordFor(wl, cfg.seed, keynum));
          } else if (lop.op == kRead) {
            st = remote->Read(table, Slice(key), &record);
          } else {
            st = remote->ScanKeyed(table, Slice(key), kScanLength, &rows);
          }
          if (!st.ok()) return st;
          return check_result(lop, keynum, key);
        },
        &out->remote, &out->attempted, &out->failed, violations, "remote");
    net::Server::Stats after = server->GetStats();
    remote.reset();
    if (own_server) {
      own_server->Stop();
      out->server_delta.requests = after.requests - before.requests;
      out->server_delta.batches = after.batches - before.batches;
      out->server_delta.bytes_in = after.bytes_in - before.bytes_in;
      out->server_delta.bytes_out = after.bytes_out - before.bytes_out;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

void PrintProvenance(const Spec& spec, const Config& cfg, int setups,
                     const WindowResult& window) {
  std::string j = "{\"provenance\": {";
  auto kv = [&](const std::string& k, const std::string& v, bool last = false) {
    j += JsonString(k) + ": " + v + (last ? "" : ", ");
  };
  kv("workload", JsonString(spec.name));
  kv("seed", std::to_string(cfg.seed));
  kv("seconds", JsonNumber(cfg.seconds));
  kv("trace", cfg.trace ? "1" : "0");
  kv("host_cores", std::to_string(std::thread::hardware_concurrency()));
  kv("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  kv("git_sha", JsonString(cfg.git_sha));
  kv("store", JsonString(spec.store));
  kv("mix", JsonString(spec.mix));
  kv("nodes", std::to_string(spec.options.num_nodes));
  kv("client_threads", std::to_string(spec.threads));
  kv("connections", std::to_string(spec.connections));
  kv("server_event_threads",
     std::to_string(spec.connections > 0 ? spec.server_event_threads : 0));
  kv("server_worker_threads",
     std::to_string(spec.connections > 0 ? spec.server_worker_threads : 0));
  kv("preload_records", std::to_string(spec.preload));
  kv("setups", std::to_string(setups));
  kv("slices", std::to_string(window.slice_seconds.size()));
  kv("clean_slices", std::to_string(window.clean_slices));
  kv("steal_share", JsonNumber(window.steal_share));
  kv("op1", JsonString(kOpNames[spec.op1]));
  kv("op2", JsonString(kOpNames[spec.op2]));
  kv("scale", JsonNumber(cfg.scale), true);
  j += "}}";
  printf("%s\n", j.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) j += ", ";
    j += JsonString(metrics[i].name) + ": {\"value\": " +
         JsonNumber(metrics[i].value) +
         ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  j += "}}";
  printf("%s\n", j.c_str());
  fflush(stdout);
}

int Fail(const std::string& why) {
  fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  return 1;
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload ingest|query|serve --seed N --seconds S "
          "--trace 0|1 --dir DATA_DIR [--git-sha SHA] [--scale F] "
          "[--inject drop|corrupt]\n",
          argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      cfg->workload = v;
    } else if (k == "--seed") {
      cfg->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      cfg->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(cfg->seconds > 0) || cfg->seconds > 600) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      cfg->trace = v == "1";
    } else if (k == "--dir") {
      cfg->dir = v;
    } else if (k == "--git-sha") {
      cfg->git_sha = v;
    } else if (k == "--scale") {
      cfg->scale = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(cfg->scale > 0) || cfg->scale > 1) return false;
    } else if (k == "--inject") {
      if (v != "drop" && v != "corrupt") return false;
      cfg->inject = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !cfg->workload.empty() && !cfg->dir.empty();
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) return Usage(argv[0]);
  Spec spec;
  if (!MakeSpec(cfg.workload, cfg.scale, &spec)) {
    fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return Usage(argv[0]);
  }

  Properties props;
  Status s = ycsb::CoreWorkload::Table1Preset(spec.mix, &props);
  if (!s.ok()) return Fail(s.ToString());
  props.Set("recordcount", std::to_string(spec.preload));
  s = ycsb::CoreWorkload::Validate(props);
  if (!s.ok()) return Fail(s.ToString());
  ycsb::CoreWorkload wl(props);

  // Set-up is repeated and its median reported, so one slow set-up does
  // not move setup_s; the traced run sets up once.
  const int setups = cfg.trace ? 1 : 3;
  std::vector<double> setup_seconds;
  Deployment d;
  for (int i = 0; i < setups; i++) {
    d.Teardown();
    uint64_t t0 = NowNs();
    s = Setup(spec, cfg, wl, &d);
    setup_seconds.push_back(Seconds(NowNs() - t0));
    if (!s.ok()) {
      d.Teardown();
      return Fail("set-up: " + s.ToString());
    }
  }
  if (cfg.scale >= 1.0 && spec.name == "query") {
    // The query workload must be larger than the program's own cache.
    uint64_t disk = 0;
    s = d.store->DiskUsage(&disk);
    uint64_t cache = spec.options.block_cache_bytes *
                     static_cast<uint64_t>(spec.options.num_nodes);
    if (!s.ok() || cache * 4 > disk) {
      d.Teardown();
      return Fail("block cache " + std::to_string(cache) +
                  " B exceeds a quarter of the loaded " +
                  std::to_string(disk) + " B");
    }
  }

  KeySpace keys(spec.preload, spec.threads);
  Violations violations;
  WindowResult window;
  RunWindow(spec, cfg, &wl, &d, &keys, &violations, &window);

  // Read back and size the data once background work has settled, so
  // neither depends on where a compaction happened to be when the timed
  // window closed.
  Quiesce(spec, d.store.get());
  ReadbackResult readback;
  Readback(cfg, wl, keys, d.access(), cfg.scale < 1.0 ? 1000 : 10000,
           &violations, &readback);

  // LSM stores: live table bytes. DiskUsage() also counts compacted
  // tables that wait to be unlinked, which linger on an idle engine until
  // its next background job and made the figure bimodal run to run.
  uint64_t disk_bytes = SnapshotLsm(d.store.get(), spec.options.num_nodes)
                            .live_table_bytes;
  if (spec.store == "redis") {
    s = d.access()->DiskUsage(&disk_bytes);
    if (!s.ok()) violations.Add("disk usage: " + s.ToString());
  }

  LadderResult ladder;
  if (cfg.trace) {
    s = RunLadder(spec, cfg, wl, keys, &d, &violations, &ladder);
    if (!s.ok()) violations.Add("ladder: " + s.ToString());
  }
  const double rss_mb = PeakRssMb();
  d.Teardown();

  const uint64_t attempted =
      window.attempted + readback.attempted + ladder.attempted;
  const uint64_t failed = window.failed + readback.failed + ladder.failed;
  const std::string violation = violations.first();
  if (!violation.empty()) return Fail(violation);
  if (failed != 0) return Fail(std::to_string(failed) + " operations failed");

  PrintProvenance(spec, cfg, setups, window);
  auto all = [](uint32_t) { return true; };
  auto p = [](double q) {
    return [q](uint32_t, std::vector<double>& v) { return Quantile(v, q); };
  };
  auto throughput = [&](uint32_t i, std::vector<double>& v) {
    return static_cast<double>(v.size()) / window.slice_seconds[i];
  };

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    metrics.push_back({"throughput_ops_s",
                       SliceMedian(window, all, throughput, -1), "ops/s"});
    metrics.push_back(
        {"op1_p50_us", SliceMedian(window, all, p(0.50), spec.op1), "us"});
    metrics.push_back({"op1_p99_us", WindowQuantile(window, spec.op1, 0.99),
                       "us"});
    metrics.push_back(
        {"op2_p50_us", SliceMedian(window, all, p(0.50), spec.op2), "us"});
    metrics.push_back({"op2_p99_us", WindowQuantile(window, spec.op2, 0.99),
                       "us"});
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
    metrics.push_back(
        {"bytes_per_record",
         Ratio(static_cast<double>(disk_bytes), static_cast<double>(keys.Total())),
         "B"});
    metrics.push_back({"rss_mb", rss_mb, "MB"});
    PrintResult(true, attempted, failed, metrics);
    return 0;
  }

  // Traced run: per-layer metrics.
  auto traced = [&](uint32_t i) { return SliceTraced(cfg, i); };
  auto untraced = [&](uint32_t i) { return !SliceTraced(cfg, i); };
  double tput_untraced = SliceMedian(window, untraced, throughput, -1);
  double tput_traced = SliceMedian(window, traced, throughput, -1);
  uint64_t gen_ns = 0, gen_ops = 0;
  double op_ns_traced = 0;
  for (const ThreadResult& r : window.threads) {
    gen_ns += r.gen_ns;
    gen_ops += r.gen_ops;
    for (const Sample& smp : r.samples) {
      if (SliceTraced(cfg, smp.slice)) op_ns_traced += static_cast<double>(smp.ns);
    }
  }
  const double gen_us = Ratio(static_cast<double>(gen_ns) / 1000.0,
                              static_cast<double>(gen_ops));
  const double op_us = Ratio(op_ns_traced / 1000.0, static_cast<double>(gen_ops));
  const double ops = static_cast<double>(window.ops_in_window);
  const LsmTotals& ld = window.lsm_delta;
  // Server counters: the timed window's server on serve, else the ladder's.
  net::Server::Stats sd = ladder.server_delta;
  if (spec.connections > 0) {
    sd.requests = window.server_after.requests - window.server_before.requests;
    sd.batches = window.server_after.batches - window.server_before.batches;
    sd.bytes_in = window.server_after.bytes_in - window.server_before.bytes_in;
    sd.bytes_out =
        window.server_after.bytes_out - window.server_before.bytes_out;
  }

  metrics.push_back({"ycsb.gen_us", gen_us, "us"});
  metrics.push_back({"ycsb.gen_share", Ratio(gen_us, op_us), "ratio"});
  metrics.push_back({"trace.throughput_gap",
                     Ratio(tput_untraced - tput_traced, tput_untraced),
                     "ratio"});
  for (int op = 0; op < kNumOps; op++) {
    const std::string n = kOpNames[op];
    const Op o = static_cast<Op>(op);
    metrics.push_back({"engine." + n + "_us", ladder.engine.P50(o), "us"});
    metrics.push_back({"stores." + n + "_us", ladder.store.P50(o), "us"});
    metrics.push_back({"stores.self_" + n + "_us",
                       ladder.store.P50(o) - ladder.engine.P50(o), "us"});
    metrics.push_back({"net.remote_" + n + "_us", ladder.remote.P50(o), "us"});
    metrics.push_back({"net.self_" + n + "_us",
                       ladder.remote.P50(o) - ladder.store.P50(o), "us"});
  }
  metrics.push_back({"net.codec_us", ladder.codec_us, "us"});
  metrics.push_back({"net.requests_per_batch",
                     Ratio(static_cast<double>(sd.requests),
                           static_cast<double>(sd.batches)),
                     "count"});
  metrics.push_back({"net.bytes_per_request",
                     Ratio(static_cast<double>(sd.bytes_in + sd.bytes_out),
                           static_cast<double>(sd.requests)),
                     "B"});
  metrics.push_back({"lsm.writes_per_group",
                     Ratio(static_cast<double>(ld.grouped_writes),
                           static_cast<double>(ld.write_groups)),
                     "count"});
  metrics.push_back({"lsm.parallel_apply_share",
                     Ratio(static_cast<double>(ld.parallel_apply_groups),
                           static_cast<double>(ld.write_groups)),
                     "ratio"});
  metrics.push_back(
      {"lsm.stall_writes", static_cast<double>(ld.stall_writes), "count"});
  metrics.push_back(
      {"lsm.l0_files_max", static_cast<double>(window.l0_files_max), "count"});
  metrics.push_back({"lsm.flushes", static_cast<double>(ld.flushes), "count"});
  metrics.push_back(
      {"lsm.compactions", static_cast<double>(ld.compactions), "count"});
  metrics.push_back(
      {"lsm.compaction_bytes_per_user_byte",
       Ratio(static_cast<double>(ld.compaction_bytes_written),
             static_cast<double>(window.inserts_in_window * kRawRecordBytes)),
       "ratio"});
  metrics.push_back({"lsm.cache_hit_ratio",
                     Ratio(static_cast<double>(ld.cache_hits),
                           static_cast<double>(ld.cache_hits + ld.cache_misses)),
                     "ratio"});
  metrics.push_back({"lsm.cache_evictions",
                     static_cast<double>(ld.cache_evictions), "count"});
  metrics.push_back({"hashkv.appends_per_aof_group",
                     Ratio(static_cast<double>(window.kv_delta.aof_appends),
                           static_cast<double>(window.kv_delta.aof_groups)),
                     "count"});
  metrics.push_back(
      {"cluster.regions_per_scan", ladder.regions_per_scan, "count"});
  metrics.push_back({"proc.cpu_us_per_op",
                     Ratio(static_cast<double>(window.proc_delta.cpu_us), ops),
                     "us"});
  metrics.push_back({"proc.vcsw_per_op",
                     Ratio(static_cast<double>(window.proc_delta.vcsw), ops),
                     "count"});
  metrics.push_back({"proc.ivcsw_per_op",
                     Ratio(static_cast<double>(window.proc_delta.ivcsw), ops),
                     "count"});
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace apmbench::perfbench

int main(int argc, char** argv) {
  return apmbench::perfbench::Main(argc, argv);
}
