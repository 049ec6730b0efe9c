#include "stores/hbase_store.h"

#include <iterator>

#include "common/clock.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/rate_limiter.h"
#include "stores/disk_usage.h"

namespace apmbench::stores {

namespace {

constexpr char kFamily[] = "f";
/// Cells fetched per engine scan batch while assembling rows.
constexpr int kCellBatch = 256;

/// HBase's on-disk KeyValue carries full framing around every cell:
/// key length (4), value length (4), row length (2), family length (1),
/// type (1), and the 8-byte timestamp. We store that framing verbatim —
/// it is the structural reason a 75-byte record costs HBase several
/// hundred bytes on disk (Figure 17).
constexpr size_t kKeyValueFraming = 4 + 4 + 2 + 1 + 1 + 8;

std::string EncodeCellValue(const Slice& row_key, const Slice& value) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(row_key.size() + 2 + 8));
  PutFixed32(&out, static_cast<uint32_t>(value.size()));
  out.push_back(static_cast<char>(row_key.size() & 0xff));
  out.push_back(static_cast<char>((row_key.size() >> 8) & 0xff));
  out.push_back(1);  // family length
  out.push_back(4);  // type = Put
  PutFixed64(&out, NowMicros());
  out.append(value.data(), value.size());
  return out;
}

bool DecodeCellValue(const Slice& cell_value, Slice* value) {
  if (cell_value.size() < kKeyValueFraming) return false;
  *value = Slice(cell_value.data() + kKeyValueFraming,
                 cell_value.size() - kKeyValueFraming);
  return true;
}

/// Cursor for resuming a cell scan strictly after `last_cell_key`:
/// appending the minimum byte yields the smallest key greater than it.
/// (Appending '\x01' — the old cursor — skipped any cell key extending
/// `last_cell_key` with a NUL byte when a page ended exactly there.)
std::string NextCellCursor(const std::string& last_cell_key) {
  return last_cell_key + '\0';
}

/// Collects every cell (key, encoded value) of `row` from `db`.
Status RowCells(lsm::DB* db, const Slice& row,
                std::vector<std::pair<std::string, std::string>>* cells) {
  cells->clear();
  // A row's cells are exactly the keys in [row + '\0', row + '\x01'):
  // the bound keeps the scan off a neighbour like row + "0".
  const std::string row_end = row.ToString() + '\x01';
  lsm::ReadOptions read_options;
  read_options.upper_bound = Slice(row_end);
  // Page through the cells: a wide row can span engine scan batches, and
  // stopping after one batch would silently truncate it.
  std::string scan_from = row.ToString() + '\0';
  for (;;) {
    std::vector<std::pair<std::string, std::string>> page;
    APM_RETURN_IF_ERROR(
        db->Scan(read_options, Slice(scan_from), kCellBatch, &page));
    const bool more = static_cast<int>(page.size()) == kCellBatch;
    if (more) scan_from = NextCellCursor(page.back().first);
    cells->insert(cells->end(), std::make_move_iterator(page.begin()),
                  std::make_move_iterator(page.end()));
    if (!more) return Status::OK();
  }
}

/// Default pre-split sample: the YCSB key space ("user" + FNV-hashed
/// sequence numbers), which is what the benchmark loads.
std::vector<std::string> DefaultSplitSample() {
  std::vector<std::string> sample;
  sample.reserve(4096);
  for (uint64_t i = 0; i < 4096; i++) {
    uint64_t hashed = apmbench::FnvHash64(i);
    std::string digits = std::to_string(hashed);
    std::string key = "user";
    int pad = 25 - 4 - static_cast<int>(digits.size());
    for (int j = 0; j < pad; j++) key.push_back('0');
    key.append(digits);
    sample.push_back(std::move(key));
  }
  return sample;
}

}  // namespace

std::string HBaseStore::CellKey(const Slice& row, const Slice& qualifier) {
  std::string key = row.ToString();
  key.push_back('\0');
  key.append(kFamily);
  key.push_back(':');
  key.append(qualifier.data(), qualifier.size());
  return key;
}

bool HBaseStore::ParseCellKey(const Slice& cell_key, Slice* row,
                              Slice* qualifier) {
  const char* sep = static_cast<const char*>(
      memchr(cell_key.data(), '\0', cell_key.size()));
  if (sep == nullptr) return false;
  size_t row_len = static_cast<size_t>(sep - cell_key.data());
  *row = Slice(cell_key.data(), row_len);
  // Skip '\0' + family + ':'.
  size_t prefix = row_len + 1 + sizeof(kFamily) - 1 + 1;
  if (cell_key.size() < prefix) return false;
  *qualifier = Slice(cell_key.data() + prefix, cell_key.size() - prefix);
  return true;
}

HBaseStore::HBaseStore(const StoreOptions& options,
                       cluster::RegionMap regions)
    : options_(options),
      regions_(std::move(regions)) {}

Status HBaseStore::Open(const StoreOptions& options,
                        std::unique_ptr<HBaseStore>* store) {
  if (options.base_dir.empty()) {
    return Status::InvalidArgument("StoreOptions::base_dir must be set");
  }
  std::vector<std::string> sample = options.region_split_sample;
  if (sample.empty()) sample = DefaultSplitSample();
  int num_regions = options.num_nodes * options.regions_per_server;
  cluster::RegionMap regions = cluster::RegionMap::FromSample(
      std::move(sample), num_regions, options.num_nodes);

  std::unique_ptr<HBaseStore> s(new HBaseStore(options, std::move(regions)));
  // One token bucket for the whole store: the region servers share one
  // machine's disk, so their background I/O draws from one budget.
  std::shared_ptr<RateLimiter> rate_limiter;
  if (options.lsm_rate_limit_bytes_per_sec > 0) {
    rate_limiter =
        std::make_shared<RateLimiter>(options.lsm_rate_limit_bytes_per_sec);
  }
  for (int i = 0; i < options.num_nodes; i++) {
    lsm::Options db_options;
    db_options.dir = options.base_dir + "/node" + std::to_string(i);
    db_options.env = options.env;
    db_options.memtable_bytes = options.memtable_bytes;
    db_options.block_cache_bytes = options.block_cache_bytes;
    db_options.block_cache_shard_bits = options.block_cache_shard_bits;
    db_options.bloom_bits_per_key = options.bloom_bits_per_key;
    db_options.block_restart_interval = options.lsm_block_restart_interval;
    db_options.prefix_bloom_length = options.lsm_prefix_bloom_length;
    db_options.arena_block_bytes = options.lsm_arena_block_bytes;
    db_options.memtable_shards = options.lsm_memtable_shards;
    db_options.compression = options.lsm_compression;
    db_options.compaction_style = lsm::CompactionStyle::kLeveled;
    db_options.compaction_threads = options.lsm_compaction_threads;
    db_options.subcompactions = options.lsm_subcompactions;
    db_options.level0_slowdown_trigger = options.lsm_level0_slowdown_trigger;
    db_options.level0_stop_trigger = options.lsm_level0_stop_trigger;
    db_options.rate_limiter = rate_limiter;
    std::unique_ptr<lsm::DB> db;
    APM_RETURN_IF_ERROR(lsm::DB::Open(db_options, &db));
    s->nodes_.push_back(std::move(db));
  }
  *store = std::move(s);
  return Status::OK();
}

Status HBaseStore::Insert(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  (void)table;
  int node = regions_.Route(key);
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  // A row put is atomic in HBase: all cells go through one WAL append.
  lsm::WriteBatch batch;
  for (const auto& [field, value] : record) {
    std::string cell_key = CellKey(key, Slice(field));
    std::string cell_value = EncodeCellValue(key, Slice(value));
    batch.Put(Slice(cell_key), Slice(cell_value));
  }
  return db->Write(batch);
}

Status HBaseStore::Update(const std::string& table, const Slice& key,
                          const ycsb::Record& record) {
  // HBase puts write new cell versions; identical path.
  return Insert(table, key, record);
}

Status HBaseStore::Read(const std::string& table, const Slice& key,
                        ycsb::Record* record) {
  (void)table;
  record->clear();
  std::vector<std::pair<std::string, std::string>> cells;
  APM_RETURN_IF_ERROR(RowCells(
      nodes_[static_cast<size_t>(regions_.Route(key))].get(), key, &cells));
  if (cells.empty()) return Status::NotFound();
  record->reserve(cells.size());
  for (const auto& [cell_key, cell_value] : cells) {
    Slice row, qualifier, value;
    if (!ParseCellKey(Slice(cell_key), &row, &qualifier) ||
        !DecodeCellValue(Slice(cell_value), &value)) {
      return Status::Corruption("bad cell");
    }
    record->emplace_back(qualifier.ToString(), value.ToString());
  }
  return Status::OK();
}

Status HBaseStore::CollectRows(int node, const std::string& cursor,
                               const std::string& region_end, int count,
                               std::vector<ycsb::KeyedRecord>* rows) {
  lsm::DB* db = nodes_[static_cast<size_t>(node)].get();
  // A cell key row + '\0' + ... sorts below region_end exactly when its
  // row does (row keys hold no NUL), so the engine stops at the region's
  // end by itself.
  lsm::ReadOptions read_options;
  read_options.upper_bound = Slice(region_end);
  std::string scan_from = cursor;
  ycsb::KeyedRecord current;
  for (;;) {
    std::vector<std::pair<std::string, std::string>> cells;
    APM_RETURN_IF_ERROR(
        db->Scan(read_options, Slice(scan_from), kCellBatch, &cells));
    for (const auto& [cell_key, cell_value] : cells) {
      Slice row, qualifier, value;
      if (!ParseCellKey(Slice(cell_key), &row, &qualifier)) {
        continue;  // not a cell (defensive)
      }
      if (row.ToView() != current.key) {
        if (!current.key.empty()) {
          rows->push_back(std::move(current));
          current = ycsb::KeyedRecord();
          if (static_cast<int>(rows->size()) >= count) return Status::OK();
        }
        current.key = row.ToString();
      }
      if (!DecodeCellValue(Slice(cell_value), &value)) {
        return Status::Corruption("bad cell value");
      }
      current.record.emplace_back(qualifier.ToString(), value.ToString());
    }
    if (static_cast<int>(cells.size()) < kCellBatch) break;  // exhausted
    scan_from = NextCellCursor(cells.back().first);
  }
  if (!current.key.empty()) rows->push_back(std::move(current));
  return Status::OK();
}

Status HBaseStore::ScanKeyed(const std::string& table,
                             const Slice& start_key, int count,
                             std::vector<ycsb::KeyedRecord>* records) {
  (void)table;
  records->clear();
  // Ordered regions partition the key space, so walking them in order on
  // the caller's thread until `count` rows are in yields the rows in key
  // order — what HBase's ClientScanner does. Nearly every 50-row scan
  // ends inside its first region; fetching the next region in parallel
  // would almost always be thrown away.
  std::string cursor = start_key.ToString();
  for (int r = regions_.RegionOf(start_key);
       r < regions_.num_regions() && static_cast<int>(records->size()) < count;
       r++) {
    std::string region_end = regions_.RegionEndKey(r);
    APM_RETURN_IF_ERROR(CollectRows(r % regions_.num_servers(), cursor,
                                    region_end, count, records));
    cursor = std::move(region_end);
  }
  return Status::OK();
}

Status HBaseStore::Delete(const std::string& table, const Slice& key) {
  (void)table;
  lsm::DB* db = nodes_[static_cast<size_t>(regions_.Route(key))].get();
  // Deleting only part of a row would resurrect it on the next read, so
  // every cell goes, in one batch.
  std::vector<std::pair<std::string, std::string>> cells;
  APM_RETURN_IF_ERROR(RowCells(db, key, &cells));
  if (cells.empty()) return Status::NotFound();
  lsm::WriteBatch batch;
  for (const auto& cell : cells) batch.Delete(Slice(cell.first));
  return db->Write(batch);
}

Status HBaseStore::DiskUsage(uint64_t* bytes) {
  return SumDiskUsage(nodes_, bytes);
}

lsm::DB::Stats HBaseStore::NodeStats(int node) {
  return nodes_[static_cast<size_t>(node)]->GetStats();
}

Status HBaseStore::VerifyIntegrity() {
  for (auto& node : nodes_) {
    APM_RETURN_IF_ERROR(node->VerifyIntegrity());
  }
  return Status::OK();
}

}  // namespace apmbench::stores
