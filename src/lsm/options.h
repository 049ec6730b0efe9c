#ifndef APMBENCH_LSM_OPTIONS_H_
#define APMBENCH_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/compression.h"
#include "common/slice.h"

namespace apmbench {
class Env;
}

namespace apmbench::lsm {

/// How SSTables are grouped for compaction.
enum class CompactionStyle {
  /// Cassandra-style: merge runs of similar-sized tables once
  /// `size_tiered_min_files` of them accumulate in a size bucket.
  kSizeTiered,
  /// LevelDB/HBase-major-compaction style: tiered levels with size budgets;
  /// a table from level n is merged with the overlapping tables of n+1.
  kLeveled,
};

/// Tuning knobs of the LSM engine. Defaults are sized for benchmark
/// datasets of a few hundred MB per instance.
struct Options {
  /// Directory holding WAL, SSTables, and MANIFEST. Must be set.
  std::string dir;

  /// Filesystem to use; Env::Default() when null.
  Env* env = nullptr;

  /// Memtable capacity; a full memtable becomes immutable and is flushed
  /// to an SSTable in the background.
  size_t memtable_bytes = 8 * 1024 * 1024;

  /// Arena block size for memtable bump allocation. A memtable can
  /// overshoot `memtable_bytes` by at most one arena block per shard
  /// (plus one oversized value), so smaller blocks mean tighter flush
  /// accounting and larger blocks mean fewer mallocs per memtable.
  /// DB::Open clamps this to `memtable_bytes / (4 * memtable_shards)`
  /// (floor 256) so a tiny write buffer never degenerates into a flush
  /// per write and the overshoot bound stays proportional to
  /// memtable_bytes regardless of shard count.
  size_t arena_block_bytes = 4 * 1024;

  /// Number of hash-partitioned shards in the live memtable, each with
  /// its own arena + skip list. With more than one shard, a write
  /// group's per-shard sub-batches are applied concurrently by the
  /// group-commit leader *and* its follower writers (RocksDB's
  /// allow_concurrent_memtable_write shape), which is what lets put
  /// throughput keep scaling past ~4 writer threads. 1 reproduces the
  /// pre-shard single-skiplist write path exactly. Must be a power of
  /// two in [1, 64]; DB::Open rejects other values, and halves the
  /// effective count until every shard keeps >= 1KiB of `memtable_bytes`
  /// (per-shard arena blocks are what the flush trigger charges, so a
  /// tiny write buffer split too many ways would rotate every few
  /// puts). On-disk format, WAL replay, and crash recovery are
  /// unaffected: a flush merges all shards into ordinary SSTables.
  int memtable_shards = 8;

  /// Target uncompressed size of one SSTable data block.
  size_t block_size = 4 * 1024;

  /// Number of entries between restart points in an SSTable block (see
  /// docs/FORMATS.md). Keys between restarts share a prefix with their
  /// predecessor; larger intervals compress better, smaller intervals make
  /// in-block seeks cheaper. 1 stores every key in full. Clamped to >= 1.
  int block_restart_interval = 16;

  /// Bloom filter bits per key in each SSTable (0 disables filters).
  int bloom_bits_per_key = 10;

  /// When > 0, each table additionally stores a bloom filter over the
  /// first `prefix_bloom_length` bytes of its keys. Range scans issued
  /// with ReadOptions::prefix_same_as_start can then skip whole tables
  /// that contain no key with the scan's prefix, the way point gets
  /// already skip on the full-key bloom. 0 disables prefix blooms.
  size_t prefix_bloom_length = 0;

  /// Per-block compression of SSTable data blocks. The paper ran all
  /// systems uncompressed ("the disk usage can be reduced by using
  /// compression which, however, will decrease the throughput"); the
  /// tradeoff is measured by bench/ablation_compression.
  CompressionType compression = CompressionType::kNone;

  /// Capacity of the shared LRU block cache.
  size_t block_cache_bytes = 32 * 1024 * 1024;

  /// log2 of the block cache's shard count (4 → 16 shards, the
  /// LevelDB/RocksDB default). Each shard is an independent LRU with its
  /// own mutex; more shards means less contention between concurrent
  /// readers. Clamped to [0, 8].
  int block_cache_shard_bits = 4;

  /// fsync the WAL on every write (the paper's systems run with
  /// group-commit / periodic sync; default off to match).
  bool sync_writes = false;

  CompactionStyle compaction_style = CompactionStyle::kSizeTiered;

  /// Size-tiered: minimum number of similar-sized tables to merge.
  /// Tables within [avg * 0.5, avg * 1.5] form one bucket.
  int size_tiered_min_files = 4;

  /// Leveled: level-0 file count that triggers a compaction.
  int level0_compaction_trigger = 4;
  /// Leveled: byte budget of level 1; each deeper level is 10x larger.
  uint64_t level1_max_bytes = 32ull * 1024 * 1024;

  /// Size of the compaction thread pool. Flushes always run on their own
  /// dedicated thread; these threads only run compactions, so a long
  /// merge can never delay memtable flushes. Clamped to >= 1.
  int compaction_threads = 2;

  /// Write admission control (RocksDB semantics). When the number of
  /// level-0 sorted runs reaches `level0_slowdown_trigger`, each write is
  /// delayed once by ~1ms to let compaction gain ground; at
  /// `level0_stop_trigger` writers block until the count drops. Under the
  /// size-tiered style every table lives in L0, so these bound the total
  /// sorted-run count (universal-compaction style). 0 disables a trigger.
  int level0_slowdown_trigger = 20;
  int level0_stop_trigger = 36;

  /// Number of levels maintained by the leveled strategy.
  static constexpr int kNumLevels = 7;
};

/// Read-time options.
struct ReadOptions {
  /// Fill the block cache with blocks read by this operation.
  bool fill_cache = true;

  /// Scan-only: promise that the caller only consumes keys sharing the
  /// first min(prefix_bloom_length, start.size()) bytes of the scan start
  /// key. The scan then truncates its result at the end of that prefix
  /// range and may skip entire tables via their prefix bloom filters.
  /// Ignored by Get.
  bool prefix_same_as_start = false;

  /// Scan-only: exclusive upper bound on the keys a scan returns; empty
  /// means none (RocksDB's iterate_upper_bound). The scan stops at the
  /// first key >= the bound without walking past it, not even over
  /// tombstones, and never opens a table whose manifest key range lies
  /// wholly outside [start, upper_bound). Combines with
  /// prefix_same_as_start: the scan ends at whichever limit comes first.
  /// The bytes must outlive the call. Ignored by Get.
  Slice upper_bound;
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_OPTIONS_H_
