#include "stores/cassandra_store.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/merge_runs.h"
#include "stores/disk_usage.h"
#include "stores/lsm_node_options.h"

namespace apmbench::stores {

namespace {

cluster::MembershipOptions MembershipOptionsFrom(const StoreOptions& options) {
  cluster::MembershipOptions m;
  m.error_threshold = std::max(1, options.membership_error_threshold);
  m.probation_micros = options.membership_probation_micros;
  return m;
}

/// Repair digests: 2^kDigestBits Merkle-style leaves per replica pair,
/// each leaf one prefix of RingHash.
constexpr int kDigestBits = 6;
constexpr size_t kDigestBuckets = size_t{1} << kDigestBits;

size_t DigestBucket(const Slice& key) {
  return static_cast<size_t>(cluster::RingHash(key) >> (64 - kDigestBits));
}

}  // namespace

CassandraStore::CassandraStore(const StoreOptions& options)
    : options_(options),
      ring_(options.num_nodes, cluster::TokenRing::TokenAssignment::kBalanced,
            /*seed=*/1),
      replication_factor_(
          std::max(1, std::min(options.replication_factor,
                               options.num_nodes))),
      fault_seam_(options.num_nodes),
      membership_(options.num_nodes, MembershipOptionsFrom(options)) {}

Status CassandraStore::Open(const StoreOptions& options,
                            std::unique_ptr<CassandraStore>* store) {
  if (options.base_dir.empty()) {
    return Status::InvalidArgument("StoreOptions::base_dir must be set");
  }
  std::unique_ptr<CassandraStore> s(new CassandraStore(options));
  s->env_ = options.env != nullptr ? options.env : Env::Default();
  for (int i = 0; i < options.num_nodes; i++) {
    std::unique_ptr<lsm::DB> db;
    APM_RETURN_IF_ERROR(lsm::DB::Open(
        LsmNodeOptions(options, i, lsm::CompactionStyle::kSizeTiered), &db));
    s->nodes_.push_back(std::move(db));
  }
  // Hint queues live beside the node directories and survive restarts:
  // Open() recovers the pending counts from disk.
  APM_RETURN_IF_ERROR(s->env_->CreateDirIfMissing(options.base_dir));
  const std::string hints_dir = options.base_dir + "/hints";
  APM_RETURN_IF_ERROR(s->env_->CreateDirIfMissing(hints_dir));
  for (int i = 0; i < options.num_nodes; i++) {
    auto log = std::make_unique<cluster::HintLog>(
        s->env_, hints_dir + "/node" + std::to_string(i) + ".hints");
    APM_RETURN_IF_ERROR(log->Open());
    s->hints_.push_back(std::move(log));
  }
  *store = std::move(s);
  return Status::OK();
}

namespace {

// Cassandra 1.0 serializes each column as (name, flags, timestamp,
// value); the per-column timestamp is what drives last-write-wins
// reconciliation — and part of why Figure 17's on-disk footprint is a
// multiple of the 75-byte raw record.
void EncodeRow(const ycsb::Record& record, std::string* out) {
  out->clear();
  PutVarint32(out, static_cast<uint32_t>(record.size()));
  uint64_t now = NowMicros();
  for (const auto& [name, value] : record) {
    PutLengthPrefixedSlice(out, Slice(name));
    out->push_back('\0');  // column flags
    PutFixed64(out, now);  // column timestamp
    PutLengthPrefixedSlice(out, Slice(value));
  }
}

bool DecodeRow(const Slice& data, ycsb::Record* record) {
  record->clear();
  Slice in = data;
  uint32_t count;
  if (!GetVarint32(&in, &count)) return false;
  record->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice name, value;
    uint64_t timestamp;
    if (!GetLengthPrefixedSlice(&in, &name) || in.empty()) return false;
    in.RemovePrefix(1);  // flags
    if (!GetFixed64(&in, &timestamp) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      return false;
    }
    record->emplace_back(name.ToString(), value.ToString());
  }
  return true;
}

// Write timestamp of an encoded row (every column of a row shares one);
// 0 for undecodable rows, which then lose reconciliation.
uint64_t RowTimestamp(const Slice& data) {
  Slice in = data;
  uint32_t count;
  Slice name;
  uint64_t timestamp;
  if (!GetVarint32(&in, &count) || count == 0) return 0;
  if (!GetLengthPrefixedSlice(&in, &name) || in.empty()) return 0;
  in.RemovePrefix(1);  // flags
  if (!GetFixed64(&in, &timestamp)) return 0;
  return timestamp;
}

// Last-write-wins between two encoded rows: newer column timestamp, then
// larger value bytes as a deterministic tie-break (Cassandra does the
// same for identical timestamps).
bool RowWins(const std::string& a, const std::string& b) {
  uint64_t ta = RowTimestamp(Slice(a));
  uint64_t tb = RowTimestamp(Slice(b));
  if (ta != tb) return ta > tb;
  return a > b;
}

// Digest of one (key, value) entry: XOR-combining these per bucket lets
// two replicas compare content without shipping it. Seeding with the
// ring hash ties the value to its key, so swapped values across keys
// cannot cancel.
uint64_t EntryDigest(const Slice& key, const Slice& value) {
  return MurmurHash64A(value.data(), value.size(), cluster::RingHash(key));
}

Status NodeDownError(int node) {
  return Status::IOError("node " + std::to_string(node) + " is down");
}

}  // namespace

Status CassandraStore::NodeGet(int node, const Slice& key,
                               std::string* value) {
  Status s = fault_seam_.Check(node);
  if (s.ok()) {
    s = nodes_[static_cast<size_t>(node)]->Get(lsm::ReadOptions(), key,
                                               value);
  }
  if (s.ok() || s.IsNotFound()) {
    membership_.ReportSuccess(node);
  } else {
    membership_.ReportError(node);
  }
  return s;
}

Status CassandraStore::NodePut(int node, const Slice& key,
                               const Slice& value) {
  Status s = fault_seam_.Check(node);
  if (s.ok()) s = nodes_[static_cast<size_t>(node)]->Put(key, value);
  if (s.ok()) {
    membership_.ReportSuccess(node);
  } else {
    membership_.ReportError(node);
  }
  return s;
}

Status CassandraStore::NodeDelete(int node, const Slice& key) {
  Status s = fault_seam_.Check(node);
  if (s.ok()) s = nodes_[static_cast<size_t>(node)]->Delete(key);
  if (s.ok()) {
    membership_.ReportSuccess(node);
  } else {
    membership_.ReportError(node);
  }
  return s;
}

Status CassandraStore::NodeScan(
    int node, const Slice& start, int count,
    std::vector<std::pair<std::string, std::string>>* out) {
  Status s = fault_seam_.Check(node);
  if (s.ok()) {
    s = nodes_[static_cast<size_t>(node)]->Scan(lsm::ReadOptions(), start,
                                                count, out);
  }
  if (s.ok()) {
    membership_.ReportSuccess(node);
  } else {
    membership_.ReportError(node);
  }
  return s;
}

Status CassandraStore::ReplayHintsFor(int node) {
  uint64_t applied = 0;
  Status s = hints_[static_cast<size_t>(node)]->Replay(
      [&](const cluster::HintLog::Hint& hint) {
        Status as = hint.op == cluster::HintLog::OpKind::kPut
                        ? NodePut(node, hint.key, hint.value)
                        : NodeDelete(node, hint.key);
        if (as.ok()) applied++;
        return as;
      });
  // Count applies even when the run fails part-way: replay is
  // at-least-once and the whole queue is retried later.
  hints_replayed_.fetch_add(applied, std::memory_order_relaxed);
  return s;
}

void CassandraStore::DrainRecovered() {
  if (!options_.hinted_handoff) return;
  for (int node : membership_.TakeRecovered()) {
    if (hints_[static_cast<size_t>(node)]->pending() == 0) continue;
    // Best effort: a failing replay re-marks the node through the
    // applies' error reports and keeps the queue; the write path also
    // drains opportunistically, so no recovery is permanently missed.
    ReplayHintsFor(node);
  }
}

Status CassandraStore::Read(const std::string& table, const Slice& key,
                            ycsb::Record* record) {
  (void)table;
  // Consistency ONE with failover: first live replica in ring-walk order
  // answers; down nodes are skipped unless this request claims their
  // probation probe. NotFound is a definitive answer but a later replica
  // may still hold the row (the node recovered with hints or repair
  // outstanding), so keep walking and remember who to read-repair.
  std::vector<int> replicas = ring_.RouteReplicas(key, replication_factor_);
  std::string value;
  int winner = -1;
  bool any_answered = false;
  Status last_error;
  std::vector<int> stale;  // replicas that answered NotFound before the winner
  for (size_t i = 0; i < replicas.size(); i++) {
    int node = replicas[i];
    if (!membership_.IsLive(node) && !membership_.TryClaimProbe(node)) {
      last_error = NodeDownError(node);
      continue;
    }
    std::string v;
    Status s = NodeGet(node, key, &v);
    if (s.ok()) {
      winner = node;
      value = std::move(v);
      if (i > 0) failed_over_reads_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (s.IsNotFound()) {
      any_answered = true;
      stale.push_back(node);
      continue;
    }
    last_error = s;
  }
  DrainRecovered();
  if (winner < 0) {
    if (any_answered) return Status::NotFound("key not found: " + key.ToString());
    return last_error.ok() ? Status::IOError("no live replica") : last_error;
  }
  if (!DecodeRow(Slice(value), record)) {
    return Status::Corruption("undecodable record");
  }
  if (options_.read_repair) {
    // Write the winning row back to the replicas that missed it; they
    // answered, so they are reachable right now.
    for (int node : stale) {
      if (NodePut(node, key, Slice(value)).ok()) {
        read_repairs_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

Status CassandraStore::ReadAt(int node, const Slice& key,
                              ycsb::Record* record) {
  APM_RETURN_IF_ERROR(fault_seam_.Check(node));
  std::string value;
  APM_RETURN_IF_ERROR(
      nodes_[static_cast<size_t>(node)]->Get(lsm::ReadOptions(), key, &value));
  if (!DecodeRow(Slice(value), record)) {
    return Status::Corruption("undecodable record");
  }
  return Status::OK();
}

Status CassandraStore::ScanKeyed(const std::string& table,
                                 const Slice& start_key, int count,
                                 std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  records->clear();
  // Random partitioning scatters the key range over every node; the
  // coordinator queries the live nodes in ring order and k-way merges the
  // sorted candidate runs, deduplicating the keys replicas contribute
  // twice and stopping at `count` globally-smallest keys. Every key has
  // replication_factor replicas on distinct nodes, so up to rf - 1
  // unreachable nodes still leave one live run per key.
  std::vector<std::vector<std::pair<std::string, std::string>>> runs(
      nodes_.size());
  int unreachable = 0;
  Status first_error;
  for (size_t i = 0; i < nodes_.size(); i++) {
    int node = static_cast<int>(i);
    Status s = membership_.IsLive(node) || membership_.TryClaimProbe(node)
                   ? NodeScan(node, start_key, count, &runs[i])
                   : NodeDownError(node);
    if (!s.ok()) {
      unreachable++;
      if (first_error.ok()) first_error = s;
      runs[i].clear();
    }
  }
  DrainRecovered();
  if (unreachable >= replication_factor_) return first_error;
  std::vector<std::pair<std::string, std::string>> merged;
  MergeSortedRuns(
      &runs, static_cast<size_t>(count), /*dedup=*/true,
      [](const auto& kv) -> const std::string& { return kv.first; }, &merged);
  records->reserve(merged.size());
  for (const auto& [key, value] : merged) {
    ycsb::KeyedRecord entry;
    entry.key = key;
    if (!DecodeRow(Slice(value), &entry.record)) {
      return Status::Corruption("undecodable record in scan");
    }
    records->push_back(std::move(entry));
  }
  return Status::OK();
}

void CassandraStore::WriteOneReplica(int node, cluster::HintLog::OpKind op,
                                     const Slice& key, const Slice& value,
                                     ReplicaOutcome* out) {
  out->node = node;
  bool reachable =
      membership_.IsLive(node) || membership_.TryClaimProbe(node);
  Status s;
  if (reachable && options_.hinted_handoff &&
      hints_[static_cast<size_t>(node)]->pending() > 0) {
    // Queued hints must land before this write or a later replay would
    // clobber it with older data; drain them now, then write directly.
    s = ReplayHintsFor(node);
    reachable = s.ok();
  }
  if (reachable) {
    s = op == cluster::HintLog::OpKind::kPut ? NodePut(node, key, value)
                                             : NodeDelete(node, key);
  } else if (s.ok()) {
    s = NodeDownError(node);
  }
  if (s.ok()) {
    out->status = Status::OK();
    return;
  }
  if (options_.hinted_handoff) {
    Status hs = hints_[static_cast<size_t>(node)]->Append(op, key, value);
    if (hs.ok()) {
      out->status = s;
      out->hinted = true;
      hints_queued_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    out->status = hs;  // not even hinted: real divergence
    return;
  }
  out->status = s;
}

Status CassandraStore::WriteReplicated(const Slice& key,
                                       cluster::HintLog::OpKind op,
                                       const std::string& value,
                                       WriteReport* report) {
  // SimpleStrategy ring walk: the write goes to every replica in ring
  // order. Acknowledgment needs one direct ack plus a durable hint for
  // every replica that missed it — then no acked write can be lost to a
  // single node failure.
  std::vector<int> replicas = ring_.RouteReplicas(key, replication_factor_);
  report->replicas.assign(replicas.size(), ReplicaOutcome());
  for (size_t slot = 0; slot < replicas.size(); slot++) {
    WriteOneReplica(replicas[slot], op, key, Slice(value),
                    &report->replicas[slot]);
  }
  for (const ReplicaOutcome& out : report->replicas) {
    if (out.status.ok()) {
      report->acked++;
    } else if (out.hinted) {
      report->hinted++;
    } else {
      report->failed++;
    }
  }
  DrainRecovered();
  if (report->acked > 0 && report->failed == 0) return Status::OK();
  for (const ReplicaOutcome& out : report->replicas) {
    if (!out.status.ok()) return out.status;
  }
  return Status::IOError("write not acknowledged");
}

Status CassandraStore::Insert(const std::string& table, const Slice& key,
                              const ycsb::Record& record) {
  WriteReport report;
  return InsertWithReport(table, key, record, &report);
}

Status CassandraStore::InsertWithReport(const std::string& table,
                                        const Slice& key,
                                        const ycsb::Record& record,
                                        WriteReport* report) {
  (void)table;
  *report = WriteReport();
  std::string value;
  EncodeRow(record, &value);
  return WriteReplicated(key, cluster::HintLog::OpKind::kPut, value, report);
}

Status CassandraStore::Update(const std::string& table, const Slice& key,
                              const ycsb::Record& record) {
  // Cassandra updates are writes (last-write-wins cells).
  return Insert(table, key, record);
}

Status CassandraStore::Delete(const std::string& table, const Slice& key) {
  WriteReport report;
  return DeleteWithReport(table, key, &report);
}

Status CassandraStore::DeleteWithReport(const std::string& table,
                                        const Slice& key,
                                        WriteReport* report) {
  (void)table;
  *report = WriteReport();
  return WriteReplicated(key, cluster::HintLog::OpKind::kDelete,
                         std::string(), report);
}

Status CassandraStore::FlushHints() {
  if (!options_.hinted_handoff) return Status::OK();
  Status first;
  for (size_t node = 0; node < hints_.size(); node++) {
    if (hints_[node]->pending() == 0) continue;
    int n = static_cast<int>(node);
    if (!membership_.IsLive(n) && !membership_.TryClaimProbe(n)) {
      if (first.ok()) first = NodeDownError(n);
      continue;
    }
    Status s = ReplayHintsFor(n);
    if (first.ok() && !s.ok()) first = s;
  }
  membership_.TakeRecovered();  // replayed above; don't double-drain
  return first;
}

uint64_t CassandraStore::PendingHints(int node) const {
  return hints_[static_cast<size_t>(node)]->pending();
}

Status CassandraStore::ComputeDigests(
    std::vector<std::vector<std::vector<uint64_t>>>* digests,
    std::vector<bool>* scanned) {
  const int n_nodes = static_cast<int>(nodes_.size());
  digests->assign(
      static_cast<size_t>(n_nodes),
      std::vector<std::vector<uint64_t>>(
          static_cast<size_t>(n_nodes),
          std::vector<uint64_t>(kDigestBuckets, 0)));
  scanned->assign(static_cast<size_t>(n_nodes), false);
  for (int node = 0; node < n_nodes; node++) {
    if (!membership_.IsLive(node) && !membership_.TryClaimProbe(node)) {
      continue;
    }
    Status s = fault_seam_.Check(node);
    if (!s.ok()) {
      membership_.ReportError(node);
      continue;
    }
    auto it = nodes_[static_cast<size_t>(node)]->NewSnapshotIterator(
        lsm::ReadOptions());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::vector<int> owners =
          ring_.RouteReplicas(it->key(), replication_factor_);
      if (std::find(owners.begin(), owners.end(), node) == owners.end()) {
        continue;  // stray row this node no longer owns
      }
      uint64_t digest = EntryDigest(it->key(), it->value());
      const size_t bucket = DigestBucket(it->key());
      for (int peer : owners) {
        if (peer == node) continue;
        (*digests)[static_cast<size_t>(node)][static_cast<size_t>(peer)]
                  [bucket] ^= digest;
      }
    }
    s = it->status();
    if (!s.ok()) {
      membership_.ReportError(node);
      return s;
    }
    membership_.ReportSuccess(node);
    (*scanned)[static_cast<size_t>(node)] = true;
  }
  return Status::OK();
}

Status CassandraStore::CollectBucketRows(
    int node, int peer, const std::vector<bool>& buckets,
    std::map<std::string, std::string>* rows) {
  APM_RETURN_IF_ERROR(fault_seam_.Check(node));
  auto it = nodes_[static_cast<size_t>(node)]->NewSnapshotIterator(
      lsm::ReadOptions());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (!buckets[DigestBucket(it->key())]) continue;
    std::vector<int> owners =
        ring_.RouteReplicas(it->key(), replication_factor_);
    if (std::find(owners.begin(), owners.end(), node) == owners.end() ||
        std::find(owners.begin(), owners.end(), peer) == owners.end()) {
      continue;
    }
    (*rows)[it->key().ToString()] = it->value().ToString();
  }
  return it->status();
}

Status CassandraStore::Repair(RepairStats* stats) {
  RepairStats local;
  Status first_error;
  if (replication_factor_ > 1) {
    std::vector<std::vector<std::vector<uint64_t>>> digests;
    std::vector<bool> scanned;
    APM_RETURN_IF_ERROR(ComputeDigests(&digests, &scanned));
    const int n_nodes = static_cast<int>(nodes_.size());
    for (int a = 0; a < n_nodes; a++) {
      for (int b = a + 1; b < n_nodes; b++) {
        if (!scanned[static_cast<size_t>(a)] ||
            !scanned[static_cast<size_t>(b)]) {
          continue;
        }
        local.pairs_compared++;
        std::vector<bool> diverged(kDigestBuckets, false);
        size_t n_diverged = 0;
        for (size_t bucket = 0; bucket < kDigestBuckets; bucket++) {
          if (digests[static_cast<size_t>(a)][static_cast<size_t>(b)]
                     [bucket] !=
              digests[static_cast<size_t>(b)][static_cast<size_t>(a)]
                     [bucket]) {
            diverged[bucket] = true;
            n_diverged++;
          }
        }
        if (n_diverged == 0) continue;
        local.buckets_diverged += n_diverged;
        // Only the diverged buckets' rows cross the wire: collect both
        // sides, union the keys, ship the last-write-wins version to
        // whichever side is stale or missing it.
        std::map<std::string, std::string> rows_a, rows_b;
        Status s = CollectBucketRows(a, b, diverged, &rows_a);
        if (s.ok()) s = CollectBucketRows(b, a, diverged, &rows_b);
        if (!s.ok()) {
          if (first_error.ok()) first_error = s;
          continue;
        }
        auto ship = [&](int target, const std::string& key,
                        const std::string& row) {
          Status ps = NodePut(target, key, Slice(row));
          if (ps.ok()) {
            local.rows_shipped++;
          } else if (first_error.ok()) {
            first_error = ps;
          }
        };
        for (const auto& [key, row_a] : rows_a) {
          auto it_b = rows_b.find(key);
          if (it_b == rows_b.end()) {
            ship(b, key, row_a);
          } else if (row_a != it_b->second) {
            if (RowWins(row_a, it_b->second)) {
              ship(b, key, row_a);
            } else {
              ship(a, key, it_b->second);
            }
          }
        }
        for (const auto& [key, row_b] : rows_b) {
          if (rows_a.find(key) == rows_a.end()) ship(a, key, row_b);
        }
      }
    }
  }
  DrainRecovered();
  if (stats != nullptr) *stats = local;
  return first_error;
}

Status CassandraStore::CheckReplicasConverged(bool* converged) {
  *converged = true;
  if (replication_factor_ <= 1) return Status::OK();
  std::vector<std::vector<std::vector<uint64_t>>> digests;
  std::vector<bool> scanned;
  APM_RETURN_IF_ERROR(ComputeDigests(&digests, &scanned));
  const int n_nodes = static_cast<int>(nodes_.size());
  for (int a = 0; a < n_nodes; a++) {
    if (!scanned[static_cast<size_t>(a)]) {
      return Status::IOError("node " + std::to_string(a) +
                             " unreachable during convergence check");
    }
  }
  for (int a = 0; a < n_nodes && *converged; a++) {
    for (int b = a + 1; b < n_nodes && *converged; b++) {
      for (size_t bucket = 0; bucket < kDigestBuckets; bucket++) {
        if (digests[static_cast<size_t>(a)][static_cast<size_t>(b)][bucket] !=
            digests[static_cast<size_t>(b)][static_cast<size_t>(a)][bucket]) {
          *converged = false;
          break;
        }
      }
    }
  }
  return Status::OK();
}

Status CassandraStore::DiskUsage(uint64_t* bytes) {
  return SumDiskUsage(nodes_, bytes);
}

lsm::DB::Stats CassandraStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

Status CassandraStore::VerifyIntegrity() {
  for (auto& node : nodes_) {
    APM_RETURN_IF_ERROR(node->VerifyIntegrity());
  }
  return Status::OK();
}

ClusterStats CassandraStore::GetClusterStats() const {
  ClusterStats stats;
  stats.failed_over_reads =
      failed_over_reads_.load(std::memory_order_relaxed);
  stats.read_repairs = read_repairs_.load(std::memory_order_relaxed);
  stats.hints_queued = hints_queued_.load(std::memory_order_relaxed);
  stats.hints_replayed = hints_replayed_.load(std::memory_order_relaxed);
  for (const auto& log : hints_) stats.hints_pending += log->pending();
  stats.membership = membership_.GetCounters();
  return stats;
}

}  // namespace apmbench::stores
