#ifndef APMBENCH_STORES_REDIS_STORE_H_
#define APMBENCH_STORES_REDIS_STORE_H_

#include <memory>
#include <vector>

#include "cluster/routing.h"
#include "hashkv/hashkv.h"
#include "stores/store_options.h"
#include "ycsb/db.h"

namespace apmbench::stores {

/// Redis-architecture store: independent single-node in-memory instances
/// (dict + skip-list key index, optional AOF) sharded on the client side
/// by the Jedis ring — the exact deployment the paper ran after the Redis
/// cluster version proved unusable. The Jedis ring's imbalance is visible
/// through `ring().OwnershipShares()`.
///
/// Thread-safety: the adapter adds no locking — the shard ring is
/// immutable after Open, and concurrency is handled by HashKV's
/// reader/writer lock and group-committed AOF (see docs/concurrency.md).
class RedisStore final : public ycsb::DB {
 public:
  static Status Open(const StoreOptions& options,
                     std::unique_ptr<RedisStore>* store);

  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override;
  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count,
                   std::vector<ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override;

  hashkv::HashKV::Stats NodeStats(int node);
  const cluster::JedisShardRing& ring() const { return ring_; }

 private:
  explicit RedisStore(const StoreOptions& options);

  StoreOptions options_;
  cluster::JedisShardRing ring_;
  std::vector<std::unique_ptr<hashkv::HashKV>> nodes_;
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_REDIS_STORE_H_
