#ifndef APMBENCH_STORES_LSM_NODE_OPTIONS_H_
#define APMBENCH_STORES_LSM_NODE_OPTIONS_H_

#include <string>

#include "lsm/options.h"
#include "stores/store_options.h"

namespace apmbench::stores {

/// The lsm::Options of one node engine of an LSM-backed store
/// (cassandra-like, hbase-like): the store's shared LSM knobs, the
/// node's directory `base_dir/node<node>/`, and the store's compaction
/// style.
inline lsm::Options LsmNodeOptions(const StoreOptions& options, int node,
                                   lsm::CompactionStyle style) {
  lsm::Options db_options;
  db_options.dir = options.base_dir + "/node" + std::to_string(node);
  db_options.env = options.env;
  db_options.memtable_bytes = options.memtable_bytes;
  db_options.block_cache_bytes = options.block_cache_bytes;
  db_options.block_cache_shard_bits = options.block_cache_shard_bits;
  db_options.bloom_bits_per_key = options.bloom_bits_per_key;
  db_options.block_restart_interval = options.lsm_block_restart_interval;
  db_options.prefix_bloom_length = options.lsm_prefix_bloom_length;
  db_options.memtable_shards = options.lsm_memtable_shards;
  db_options.compression = options.lsm_compression;
  db_options.compaction_style = style;
  db_options.compaction_threads = options.lsm_compaction_threads;
  db_options.level0_slowdown_trigger = options.lsm_level0_slowdown_trigger;
  db_options.level0_stop_trigger = options.lsm_level0_stop_trigger;
  return db_options;
}

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_LSM_NODE_OPTIONS_H_
