#ifndef APMBENCH_STORES_CASSANDRA_STORE_H_
#define APMBENCH_STORES_CASSANDRA_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hints.h"
#include "cluster/membership.h"
#include "cluster/routing.h"
#include "lsm/db.h"
#include "stores/store_options.h"
#include "ycsb/db.h"

namespace apmbench::stores {

/// Outcome of one replica of a replicated write.
struct ReplicaOutcome {
  int node = -1;
  /// OK when the replica took the write directly; otherwise the direct
  /// write's error (or, when the fallback hint append itself failed, that
  /// append's error).
  Status status;
  /// The write was durably queued as a hint for this replica.
  bool hinted = false;
};

/// Per-replica visibility for replicated writes. A single first error
/// would hide *which* replicas kept the write; this report keeps every
/// outcome so callers (and tests) can see a 1-of-3 partial write instead
/// of a bare error.
struct WriteReport {
  std::vector<ReplicaOutcome> replicas;
  int acked = 0;   ///< replicas that took the write directly
  int hinted = 0;  ///< replicas covered by a durable hint instead
  int failed = 0;  ///< replicas with neither ack nor hint (divergence)

  bool fully_acked() const { return acked > 0 && hinted == 0 && failed == 0; }
};

/// Counters from one anti-entropy Repair() pass.
struct RepairStats {
  uint64_t pairs_compared = 0;    ///< replica pairs whose digests were diffed
  uint64_t buckets_diverged = 0;  ///< digest leaves that disagreed
  uint64_t rows_shipped = 0;      ///< rows written to bring replicas level
};

/// Snapshot of the store's cluster-lifecycle counters.
struct ClusterStats {
  uint64_t failed_over_reads = 0;  ///< reads served by a non-first replica
  uint64_t read_repairs = 0;       ///< stale replicas fixed by the read path
  uint64_t hints_queued = 0;
  uint64_t hints_replayed = 0;
  uint64_t hints_pending = 0;  ///< durable but not yet replayed, all nodes
  cluster::Membership::Counters membership;
};

/// Cassandra-architecture store: one LSM engine (commit log + memtable +
/// size-tiered SSTables) per node, keys placed on a token ring. The paper
/// assigned balanced tokens before loading ("an optimal set of tokens");
/// this store does the same. Scans visit every node in ring order (the
/// random partitioner gives no single-node key locality) and merge, as a
/// Cassandra coordinator does for range slices.
///
/// With replication_factor > 1 the store also implements the cluster
/// lifecycle (docs/cluster.md): per-node liveness tracking with timed
/// probation (cluster::Membership), read failover along the replica walk
/// with optional read repair, hinted handoff for unreachable replicas
/// (durable cluster::HintLog per node, replayed on recovery), and
/// Merkle-style anti-entropy via Repair().
///
/// Thread-safety: routing state is immutable after Open; membership and
/// hint queues carry their own locks; engine concurrency is handled by
/// the LSM's writer queue and lock-free reads (see docs/concurrency.md).
class CassandraStore final : public ycsb::DB {
 public:
  static Status Open(const StoreOptions& options,
                     std::unique_ptr<CassandraStore>* store);

  /// Consistency ONE with failover: tries replicas in ring-walk order,
  /// skipping nodes marked down (unless a probation probe is claimed),
  /// and returns the first replica's row. Replicas that answer NotFound
  /// before the winner get the row written back when read_repair is on.
  Status Read(const std::string& table, const Slice& key,
              ycsb::Record* record) override;
  /// Visits live nodes in ring order and k-way merges; tolerates up to
  /// replication_factor - 1 unreachable nodes (every key still has a
  /// live replica), errors beyond that.
  Status ScanKeyed(const std::string& table, const Slice& start_key,
                   int count,
                   std::vector<ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const ycsb::Record& record) override;
  /// Cassandra deletes are blind tombstone writes: they succeed whether
  /// or not the key exists (no read-before-write).
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override;

  /// Insert with per-replica outcomes. OK iff at least one replica took
  /// the write directly and every other replica is covered by a durable
  /// hint; like Cassandra, a write that fails this bar is NOT rolled
  /// back on the replicas that did take it (the report shows them).
  Status InsertWithReport(const std::string& table, const Slice& key,
                          const ycsb::Record& record, WriteReport* report);
  /// Delete with per-replica outcomes; same acknowledgment rule.
  Status DeleteWithReport(const std::string& table, const Slice& key,
                          WriteReport* report);

  /// Reads `key` from one specific node, no failover, no membership
  /// side effects — the observation seam tests and repair tooling use to
  /// ask "what does replica n actually hold?". NotFound when the node
  /// lacks the key; IOError when the node is killed.
  Status ReadAt(int node, const Slice& key, ycsb::Record* record);

  /// Replays every node's pending hints now (nodes must be up or
  /// probe-able). Returns the first failure but attempts every node.
  Status FlushHints();
  /// Hints durably queued for `node` and not yet replayed.
  uint64_t PendingHints(int node) const;

  /// One anti-entropy pass (Cassandra's nodetool repair, simplified):
  /// every replica pair exchanges per-bucket digests over the keys they
  /// both own (64 Merkle leaves over RingHash), and only the diverged
  /// buckets' rows are compared row-by-row, shipping
  /// the newest version (column timestamp, then value bytes) to the
  /// stale or missing side. Add-only: repair cannot distinguish "never
  /// wrote" from "deleted and compacted", so it never removes rows —
  /// deletes are made durable by hints, not repair (docs/cluster.md).
  Status Repair(RepairStats* stats = nullptr);

  /// Digest pass only: *converged is true when every replica pair's
  /// buckets agree. Errors if any node is unreachable.
  Status CheckReplicasConverged(bool* converged);

  /// Engine stats of one node, for calibration and tests.
  lsm::DB::Stats NodeStats(int node);
  /// Scrubs every node's engine (checksums, ordering, manifest
  /// agreement); Corruption on the first violation.
  Status VerifyIntegrity();
  const cluster::TokenRing& ring() const { return ring_; }
  cluster::Membership& membership() { return membership_; }
  ClusterStats GetClusterStats() const;

  /// Deterministic node-fault seam: a killed node fails every operation
  /// with IOError until revived, exactly as tests and the kill-a-node
  /// bench need (see cluster::NodeFaultSeam). Killing only flips the
  /// seam — membership still discovers the death through failed
  /// operations, as it would a real crash.
  void KillNode(int node) { fault_seam_.Kill(node); }
  void ReviveNode(int node) { fault_seam_.Revive(node); }

 private:
  explicit CassandraStore(const StoreOptions& options);

  /// Node-level ops: fault seam, engine call, membership report (OK and
  /// NotFound are definitive answers; anything else is an error).
  Status NodeGet(int node, const Slice& key, std::string* value);
  Status NodePut(int node, const Slice& key, const Slice& value);
  Status NodeDelete(int node, const Slice& key);
  Status NodeScan(int node, const Slice& start, int count,
                  std::vector<std::pair<std::string, std::string>>* out);

  /// Shared Insert/Delete path: send the op to every replica in ring
  /// order; unreachable or failing replicas fall back to a durable hint.
  Status WriteReplicated(const Slice& key, cluster::HintLog::OpKind op,
                         const std::string& value, WriteReport* report);
  /// One replica's slice of WriteReplicated.
  void WriteOneReplica(int node, cluster::HintLog::OpKind op,
                       const Slice& key, const Slice& value,
                       ReplicaOutcome* out);

  /// Applies `node`'s queued hints in order (at-least-once; see HintLog).
  Status ReplayHintsFor(int node);
  /// Replays hints of nodes that just transitioned down -> up. Called at
  /// the end of public operations, outside any hint-log callback.
  void DrainRecovered();

  /// Phase 1 of Repair: per-node, per-peer, per-bucket XOR digests over
  /// the keys both nodes replicate. scanned[n] is false when node n was
  /// unreachable (its pairs are skipped).
  Status ComputeDigests(
      std::vector<std::vector<std::vector<uint64_t>>>* digests,
      std::vector<bool>* scanned);
  /// Rows of `node` owned by both `node` and `peer` falling in the
  /// marked buckets.
  Status CollectBucketRows(int node, int peer,
                           const std::vector<bool>& buckets,
                           std::map<std::string, std::string>* rows);

  StoreOptions options_;
  cluster::TokenRing ring_;
  int replication_factor_;
  cluster::NodeFaultSeam fault_seam_;
  cluster::Membership membership_;
  Env* env_ = nullptr;
  std::vector<std::unique_ptr<lsm::DB>> nodes_;
  std::vector<std::unique_ptr<cluster::HintLog>> hints_;

  std::atomic<uint64_t> failed_over_reads_{0};
  std::atomic<uint64_t> read_repairs_{0};
  std::atomic<uint64_t> hints_queued_{0};
  std::atomic<uint64_t> hints_replayed_{0};
};

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_CASSANDRA_STORE_H_
