#include "stores/redis_store.h"

#include <algorithm>

#include "common/merge_runs.h"

namespace apmbench::stores {

RedisStore::RedisStore(const StoreOptions& options)
    : options_(options),
      ring_(options.num_nodes) {}

Status RedisStore::Open(const StoreOptions& options,
                        std::unique_ptr<RedisStore>* store) {
  if (options.redis_aof && options.base_dir.empty()) {
    return Status::InvalidArgument("AOF requires StoreOptions::base_dir");
  }
  std::unique_ptr<RedisStore> s(new RedisStore(options));
  Env* env = options.env != nullptr ? options.env : Env::Default();
  for (int i = 0; i < options.num_nodes; i++) {
    hashkv::Options kv_options;
    kv_options.env = options.env;
    if (options.redis_aof) {
      std::string dir = options.base_dir + "/node" + std::to_string(i);
      APM_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
      kv_options.aof_path = dir + "/appendonly.aof";
    }
    std::unique_ptr<hashkv::HashKV> kv;
    APM_RETURN_IF_ERROR(hashkv::HashKV::Open(kv_options, &kv));
    s->nodes_.push_back(std::move(kv));
  }
  *store = std::move(s);
  return Status::OK();
}

Status RedisStore::Read(const std::string& table, const Slice& key,
                        ycsb::Record* record) {
  (void)table;
  int node = ring_.Route(key);
  std::string value;
  APM_RETURN_IF_ERROR(nodes_[static_cast<size_t>(node)]->Get(key, &value));
  if (!ycsb::DecodeRecord(Slice(value), record)) {
    return Status::Corruption("undecodable record");
  }
  return Status::OK();
}

Status RedisStore::ScanKeyed(const std::string& table,
                             const Slice& start_key, int count,
                             std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  records->clear();
  if (count <= 0) return Status::OK();
  // Hash sharding scatters the key range: the client queries every
  // instance's sorted index in turn and k-way merges (the YCSB Redis
  // client keeps an index sorted set per instance for exactly this). A
  // shard holds about 1/N of any key window, so each round asks every
  // shard for a little over its share of the keys still missing, not for
  // all of them. Keys up to the smallest last key of a full page are then
  // complete on every shard: the round emits those (stopping at `count`)
  // and the next round resumes just past that key.
  const size_t want = static_cast<size_t>(count);
  std::string cursor = start_key.ToString();
  std::vector<std::pair<std::string, std::string>> merged;
  while (merged.size() < want) {
    const size_t missing = want - merged.size();
    const size_t page = std::min(missing, missing / nodes_.size() + 4);
    std::vector<std::vector<std::pair<std::string, std::string>>> runs(
        nodes_.size());
    const std::string* bound = nullptr;
    for (size_t i = 0; i < nodes_.size(); i++) {
      APM_RETURN_IF_ERROR(
          nodes_[i]->Scan(cursor, static_cast<int>(page), &runs[i]));
      if (runs[i].size() == page &&
          (bound == nullptr || runs[i].back().first < *bound)) {
        bound = &runs[i].back().first;
      }
    }
    if (bound != nullptr) {
      cursor = *bound;
      for (auto& run : runs) {
        while (!run.empty() && run.back().first > cursor) run.pop_back();
      }
    }
    MergeSortedRuns(
        &runs, want, /*dedup=*/false,
        [](const auto& kv) -> const std::string& { return kv.first; },
        &merged);
    if (bound == nullptr) break;  // every shard was read to its end
    cursor.push_back('\0');       // the smallest key after the bound
  }
  records->reserve(merged.size());
  for (const auto& [key, value] : merged) {
    ycsb::KeyedRecord entry;
    entry.key = key;
    if (!ycsb::DecodeRecord(Slice(value), &entry.record)) {
      return Status::Corruption("undecodable record in scan");
    }
    records->push_back(std::move(entry));
  }
  return Status::OK();
}

Status RedisStore::Insert(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  (void)table;
  std::string value;
  ycsb::EncodeRecord(record, &value);
  int node = ring_.Route(key);
  return nodes_[static_cast<size_t>(node)]->Set(key, Slice(value));
}

Status RedisStore::Update(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  return Insert(table, key, record);
}

Status RedisStore::Delete(const std::string& table, const Slice& key) {
  (void)table;
  int node = ring_.Route(key);
  return nodes_[static_cast<size_t>(node)]->Del(key);
}

Status RedisStore::DiskUsage(uint64_t* bytes) {
  // In-memory store; with AOF enabled, report the AOF bytes.
  *bytes = 0;
  for (auto& node : nodes_) {
    *bytes += node->GetStats().aof_bytes;
  }
  return Status::OK();
}

hashkv::HashKV::Stats RedisStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

}  // namespace apmbench::stores
