#ifndef APMBENCH_STORES_MYSQL_STORE_H_
#define APMBENCH_STORES_MYSQL_STORE_H_

#include <memory>
#include <vector>

#include "btree/btree.h"
#include "cluster/routing.h"
#include "stores/store_options.h"
#include "ycsb/db.h"

namespace apmbench::stores {

/// MySQL/InnoDB-architecture store: independent single-node B+tree
/// engines with buffer pools and binary logs, sharded on the client side
/// by key hash (the YCSB RDBMS client's scheme — well balanced, unlike
/// the Jedis ring).
///
/// Scan semantics reproduce the client behavior the paper blames for
/// MySQL's scan collapse: the scan runs as `key >= start` on the shard of
/// the start key with *no LIMIT*, dragging the shard's whole tail;
/// `StoreOptions::mysql_limit_scans` enables the fixed query for the
/// ablation comparison.
///
/// Thread-safety: the adapter adds no locking — sharding is stateless,
/// and concurrency is handled by the B+tree's reader/writer lock and
/// group-committed binlog (see docs/concurrency.md).
class MySQLStore final : public ycsb::DB {
 public:
  static Status Open(const StoreOptions& options,
                     std::unique_ptr<MySQLStore>* store);

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

  btree::BTree::Stats NodeStats(int node);
  const cluster::ModuloSharder& sharder() const { return sharder_; }

 private:
  explicit MySQLStore(const StoreOptions& options);

  StoreOptions options_;
  cluster::ModuloSharder sharder_;
  std::vector<std::unique_ptr<btree::BTree>> nodes_;
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_MYSQL_STORE_H_
