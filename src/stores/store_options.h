#ifndef APMBENCH_STORES_STORE_OPTIONS_H_
#define APMBENCH_STORES_STORE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/compression.h"

namespace apmbench {
class Env;
}

namespace apmbench::stores {

/// Shared configuration for the six embedded stores. Each store lays its
/// node-local engines out under `base_dir/node<i>/`.
struct StoreOptions {
  /// Root directory for persistent engines. Must be set for the stores
  /// that touch disk (cassandra, hbase, voldemort, mysql; redis only when
  /// AOF is enabled).
  std::string base_dir;

  /// Simulated cluster size: the store runs one engine instance per node
  /// and routes between them exactly as the paper's deployments did.
  int num_nodes = 1;

  /// Replicas per key for the Cassandra-like store (the paper runs 1;
  /// Section 8 lists replication as future work). Writes go to every
  /// live replica; reads take the first live replica in ring order and
  /// fail over to the next on error (see docs/cluster.md).
  int replication_factor = 1;

  /// Cluster lifecycle knobs (Cassandra-like store; see docs/cluster.md).
  /// Consecutive failed operations before a node is marked down.
  int membership_error_threshold = 3;
  /// How long a down node waits before a single probe may test it again.
  uint64_t membership_probation_micros = 500 * 1000;
  /// Queue writes for unreachable replicas as durable hints, replayed
  /// when the replica recovers; off turns a partial rf>1 write into a
  /// reported error (divergence stays visible via the write report).
  bool hinted_handoff = true;
  /// Repair stale or missing replicas discovered on the read path by
  /// writing the winning row back to them.
  bool read_repair = true;

  Env* env = nullptr;

  /// LSM engines (cassandra-like, hbase-like).
  size_t memtable_bytes = 8 * 1024 * 1024;
  size_t block_cache_bytes = 32 * 1024 * 1024;
  /// log2 of each node's block cache shard count (see lsm::Options).
  int block_cache_shard_bits = 4;
  int bloom_bits_per_key = 10;
  /// Entries between restart points in an SSTable block (lsm::Options).
  int lsm_block_restart_interval = 16;
  /// When > 0, tables also carry a bloom filter over this many leading
  /// key bytes so bounded scans can skip tables (lsm::Options).
  size_t lsm_prefix_bloom_length = 0;
  /// Hash-partitioned shards in each node's live memtable; group commits
  /// apply shards in parallel across the group's writer threads. Must be
  /// a power of two in [1, 64] (lsm::Options::memtable_shards).
  int lsm_memtable_shards = 8;
  /// SSTable block compression (the paper runs uncompressed; Section 8
  /// lists the compression tradeoff as future work).
  CompressionType lsm_compression = CompressionType::kNone;
  /// Compaction pool size per LSM node (flushes always get a dedicated
  /// thread; see lsm::Options::compaction_threads).
  int lsm_compaction_threads = 2;
  /// Write admission control per node: L0 sorted-run counts at which
  /// writes are first delayed (~1ms once per write) and then blocked
  /// until compaction catches up. 0 disables a trigger.
  int lsm_level0_slowdown_trigger = 20;
  int lsm_level0_stop_trigger = 36;

  /// B+tree engines (mysql-like, voldemort-like).
  size_t buffer_pool_bytes = 32 * 1024 * 1024;

  /// Redis-like store: enable the append-only file.
  bool redis_aof = false;

  /// VoltDB-like store: execution sites per host (partitions per node).
  int volt_sites_per_host = 6;

  /// HBase-like store: pre-split regions per region server.
  int regions_per_server = 8;

  /// MySQL-like store: when false (the default, matching the paper's YCSB
  /// RDBMS client), a scan issues "key >= start" with no LIMIT and drags
  /// the whole tail of the shard — the behavior behind MySQL's collapse
  /// in workloads RS/RSW. Set true for the LIMIT-clause ablation.
  bool mysql_limit_scans = false;

  /// Sample keys used to pre-split HBase regions; when empty a sample of
  /// the YCSB key space is generated internally.
  std::vector<std::string> region_split_sample;
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_STORE_OPTIONS_H_
