#ifndef APMBENCH_STORES_VOLDEMORT_STORE_H_
#define APMBENCH_STORES_VOLDEMORT_STORE_H_

#include <memory>
#include <vector>

#include "btree/btree.h"
#include "cluster/routing.h"
#include "stores/store_options.h"
#include "ycsb/db.h"

namespace apmbench::stores {

/// Project-Voldemort-architecture store: a distributed persistent hash
/// table over a partition ring (the paper configured two partitions per
/// node) with a BerkeleyDB-style B+tree as the node-local storage engine.
/// Scans return NotSupported: the Voldemort YCSB client has no scan
/// operation, which is why the paper omits Voldemort from workloads RS
/// and RSW.
///
/// Thread-safety: the adapter adds no locking — the partition ring is
/// immutable after Open, and concurrency is handled by the B+tree's
/// reader/writer lock and group-committed binlog (see
/// docs/concurrency.md).
class VoldemortStore final : public ycsb::DB {
 public:
  static Status Open(const StoreOptions& options,
                     std::unique_ptr<VoldemortStore>* store);

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
  const cluster::PartitionRing& ring() const { return ring_; }

 private:
  explicit VoldemortStore(const StoreOptions& options);

  StoreOptions options_;
  cluster::PartitionRing ring_;
  std::vector<std::unique_ptr<btree::BTree>> nodes_;
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_VOLDEMORT_STORE_H_
