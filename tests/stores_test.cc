#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "stores/cassandra_store.h"
#include "stores/factory.h"
#include "stores/hbase_store.h"
#include "stores/mysql_store.h"
#include "stores/redis_store.h"
#include "tests/test_util.h"
#include "ycsb/client.h"
#include "ycsb/workload.h"

namespace apmbench::stores {
namespace {

using testutil::ScopedTempDir;

ycsb::Record MakeRecord(int tag) {
  ycsb::Record record;
  for (int i = 0; i < 5; i++) {
    record.emplace_back("field" + std::to_string(i),
                        "v" + std::to_string(tag) + "-" + std::to_string(i));
  }
  return record;
}

/// DB-conformance suite run against every store.
class StoreConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  StoreConformanceTest() : dir_("store") {}

  void Open(int num_nodes) {
    StoreOptions options;
    options.base_dir = dir_.path();
    options.num_nodes = num_nodes;
    options.memtable_bytes = 64 * 1024;
    options.buffer_pool_bytes = 1 * 1024 * 1024;
    ASSERT_TRUE(CreateStore(GetParam(), options, &db_).ok());
  }

  ScopedTempDir dir_;
  std::unique_ptr<ycsb::DB> db_;
};

TEST_P(StoreConformanceTest, InsertReadUpdateDelete) {
  Open(3);
  const std::string table = "usertable";
  ycsb::Record record = MakeRecord(1);
  ASSERT_TRUE(db_->Insert(table, "user001", record).ok());

  ycsb::Record read_back;
  ASSERT_TRUE(db_->Read(table, "user001", &read_back).ok());
  // Order-insensitive comparison (per-cell stores may reorder fields).
  std::map<std::string, std::string> got(read_back.begin(), read_back.end());
  for (const auto& [field, value] : record) {
    EXPECT_EQ(got[field], value) << field;
  }

  ycsb::Record updated = MakeRecord(2);
  ASSERT_TRUE(db_->Update(table, "user001", updated).ok());
  ASSERT_TRUE(db_->Read(table, "user001", &read_back).ok());
  std::map<std::string, std::string> got2(read_back.begin(),
                                          read_back.end());
  EXPECT_EQ(got2["field0"], "v2-0");

  EXPECT_TRUE(db_->Read(table, "missing", &read_back).IsNotFound());

  ASSERT_TRUE(db_->Delete(table, "user001").ok());
  EXPECT_TRUE(db_->Read(table, "user001", &read_back).IsNotFound());
}

TEST_P(StoreConformanceTest, ManyKeysAcrossNodes) {
  Open(4);
  const std::string table = "usertable";
  const int n = 400;
  for (int i = 0; i < n; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(db_->Insert(table, key, MakeRecord(i)).ok()) << i;
  }
  Random rng(1);
  for (int probe = 0; probe < 100; probe++) {
    int i = static_cast<int>(rng.Uniform(n));
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ycsb::Record record;
    ASSERT_TRUE(db_->Read(table, key, &record).ok()) << key;
    std::map<std::string, std::string> got(record.begin(), record.end());
    EXPECT_EQ(got["field3"], "v" + std::to_string(i) + "-3");
  }
}

TEST_P(StoreConformanceTest, ScanReturnsOrderedWindow) {
  if (!StoreSupportsScans(GetParam())) {
    GTEST_SKIP() << GetParam() << " has no scan support (as in the paper)";
  }
  Open(3);
  const std::string table = "usertable";
  for (int i = 0; i < 200; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(db_->Insert(table, key, MakeRecord(i)).ok());
  }
  char start[32];
  snprintf(start, sizeof(start), "user%021d", 50);
  std::vector<ycsb::Record> records;
  ASSERT_TRUE(db_->Scan(table, start, 20, &records).ok());
  // MySQL's faithful scan semantics only covers the start key's shard, so
  // it may return fewer than requested; every other store returns the
  // full window.
  if (GetParam() == "mysql") {
    EXPECT_GE(records.size(), 1u);
    EXPECT_LE(records.size(), 20u);
  } else {
    ASSERT_EQ(records.size(), 20u);
    std::map<std::string, std::string> first(records[0].begin(),
                                             records[0].end());
    EXPECT_EQ(first["field0"], "v50-0");
  }
}

TEST_P(StoreConformanceTest, EndToEndYcsbWorkload) {
  Open(2);
  Properties props;
  ASSERT_TRUE(ycsb::CoreWorkload::Table1Preset("RW", &props).ok());
  props.Set("recordcount", "300");
  ycsb::CoreWorkload workload(props);
  ASSERT_TRUE(ycsb::LoadDatabase(db_.get(), &workload, 2).ok());

  ycsb::RunConfig config;
  config.threads = 4;
  config.operation_count = 2000;
  ycsb::RunResult result;
  ASSERT_TRUE(ycsb::RunWorkload(db_.get(), &workload, config, &result).ok());
  EXPECT_EQ(result.measurements.error_count(ycsb::OpType::kRead), 0u);
  EXPECT_EQ(result.measurements.error_count(ycsb::OpType::kInsert), 0u);
  EXPECT_GT(result.throughput_ops_sec, 0);
}

INSTANTIATE_TEST_SUITE_P(AllStores, StoreConformanceTest,
                         ::testing::ValuesIn(StoreNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(StoreFactoryTest, RejectsUnknownName) {
  StoreOptions options;
  options.base_dir = "/tmp";
  std::unique_ptr<ycsb::DB> db;
  EXPECT_TRUE(CreateStore("mongodb", options, &db).IsInvalidArgument());
}

TEST(StoreFactoryTest, ScanSupportMatchesPaper) {
  EXPECT_TRUE(StoreSupportsScans("cassandra"));
  EXPECT_TRUE(StoreSupportsScans("hbase"));
  EXPECT_FALSE(StoreSupportsScans("voldemort"));
  EXPECT_TRUE(StoreSupportsScans("redis"));
  EXPECT_TRUE(StoreSupportsScans("voltdb"));
  EXPECT_TRUE(StoreSupportsScans("mysql"));
}

TEST(HBaseStoreTest, CellKeyRoundTrip) {
  std::string cell_key = HBaseStore::CellKey("row1", "field2");
  Slice row, qualifier;
  ASSERT_TRUE(HBaseStore::ParseCellKey(Slice(cell_key), &row, &qualifier));
  EXPECT_EQ(row.ToString(), "row1");
  EXPECT_EQ(qualifier.ToString(), "field2");
}

// --- kCellBatch boundary regressions ---------------------------------------
// The store assembles rows from the LSM engine in fixed 256-cell scan
// pages; these pin the exact-page-edge behavior of Read/Delete/ScanKeyed.

TEST(HBaseStoreTest, WideRowSurvivesCellBatchBoundary) {
  ScopedTempDir dir("hbase-wide");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 1;
  options.regions_per_server = 1;
  std::unique_ptr<HBaseStore> store;
  ASSERT_TRUE(HBaseStore::Open(options, &store).ok());

  // A row wider than one engine scan page (kCellBatch = 256 cells).
  ycsb::Record record;
  for (int i = 0; i < 300; i++) {
    char q[16];
    snprintf(q, sizeof(q), "f%03d", i);
    record.emplace_back(q, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Insert("t", "wide-row", record).ok());

  // Read must page past the first 256 cells instead of truncating.
  ycsb::Record got;
  ASSERT_TRUE(store->Read("t", "wide-row", &got).ok());
  ASSERT_EQ(got.size(), record.size());
  std::map<std::string, std::string> by_field(got.begin(), got.end());
  for (const auto& [field, value] : record) {
    EXPECT_EQ(by_field[field], value) << field;
  }

  // Delete must remove every cell; deleting only the first page leaves
  // the tail behind and resurrects the row.
  ASSERT_TRUE(store->Delete("t", "wide-row").ok());
  EXPECT_TRUE(store->Read("t", "wide-row", &got).IsNotFound());
}

TEST(HBaseStoreTest, ScanResumesExactlyAtCellBatchEdge) {
  ScopedTempDir dir("hbase-edge");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 1;
  options.regions_per_server = 1;
  std::unique_ptr<HBaseStore> store;
  ASSERT_TRUE(HBaseStore::Open(options, &store).ok());

  // 51 filler rows x 5 cells = 255 cells, so the edge row's first cell is
  // cell 256 — the last cell of scan page one — and its second cell (a
  // qualifier extending the first with a NUL byte, the smallest possible
  // successor key) opens page two. The old resume cursor (last key +
  // '\x01') skipped exactly such cells, truncating the row.
  for (int i = 0; i < 51; i++) {
    char key[16];
    snprintf(key, sizeof(key), "a%02d", i);
    ASSERT_TRUE(store->Insert("t", key, MakeRecord(i)).ok());
  }
  ycsb::Record edge;
  edge.emplace_back("q", "v-first");
  edge.emplace_back(std::string("q\0x", 3), "v-second");
  ASSERT_TRUE(store->Insert("t", "b-edge", edge).ok());

  std::vector<ycsb::KeyedRecord> out;
  ASSERT_TRUE(store->ScanKeyed("t", "a", 60, &out).ok());
  ASSERT_EQ(out.size(), 52u);
  // Filler rows arrive whole and exactly once (no double-count at the
  // page edge)...
  for (int i = 0; i < 51; i++) {
    EXPECT_EQ(out[static_cast<size_t>(i)].record.size(), 5u)
        << out[static_cast<size_t>(i)].key;
  }
  // ...and the edge row keeps both cells.
  EXPECT_EQ(out.back().key, "b-edge");
  EXPECT_EQ(out.back().record.size(), 2u);
}

// --- Region and row boundaries ---------------------------------------------
// Read/Delete bound their engine scan to one row's cells and ScanKeyed
// bounds each region's scan at the region's end key; past scan bugs
// clustered exactly at such edges, so these compare against a model.

ycsb::Record RowRecord(const std::string& key) {
  ycsb::Record record;
  for (int i = 0; i < 5; i++) {
    record.emplace_back("field" + std::to_string(i),
                        key + "/" + std::to_string(i));
  }
  return record;
}

TEST(HBaseStoreTest, ScansAcrossRegionsMatchModel) {
  ScopedTempDir dir("hbase-regions");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 2;
  options.regions_per_server = 2;
  options.memtable_bytes = 16 * 1024;  // rows spread over tables too
  for (int i = 0; i < 400; i++) {
    char key[16];
    snprintf(key, sizeof(key), "row%03d", i);
    options.region_split_sample.push_back(key);
  }
  std::unique_ptr<HBaseStore> store;
  ASSERT_TRUE(HBaseStore::Open(options, &store).ok());
  const cluster::RegionMap& regions = store->regions();
  ASSERT_EQ(regions.num_regions(), 4);

  // Every third row, every region end key itself, and keys that extend a
  // region end key ("row1000" sorts right after "row100").
  std::map<std::string, ycsb::Record> model;
  auto insert = [&](const std::string& key) {
    ASSERT_TRUE(store->Insert("t", key, RowRecord(key)).ok());
    model[key] = RowRecord(key);
  };
  for (int i = 0; i < 400; i += 3) {
    char key[16];
    snprintf(key, sizeof(key), "row%03d", i);
    insert(key);
  }
  for (int r = 0; r + 1 < regions.num_regions(); r++) {
    insert(regions.RegionEndKey(r));
    insert(regions.RegionEndKey(r) + "0");
  }

  auto check = [&](const std::string& start, int count) {
    std::vector<ycsb::KeyedRecord> got;
    ASSERT_TRUE(store->ScanKeyed("t", start, count, &got).ok());
    std::vector<ycsb::KeyedRecord> expected;
    for (auto it = model.lower_bound(start);
         it != model.end() && static_cast<int>(expected.size()) < count;
         ++it) {
      expected.push_back({it->first, it->second});
    }
    ASSERT_EQ(got.size(), expected.size()) << "start=" << start;
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i].key, expected[i].key) << "start=" << start;
      EXPECT_EQ(got[i].record, expected[i].record) << got[i].key;
    }
  };

  // Starting exactly at a region's end key, which is a present row here
  // (the end of the test repeats this with the row deleted).
  check(regions.RegionEndKey(0), 10);
  check(regions.RegionEndKey(1), 1);
  // Crossing at least three regions, which alternate between the nodes.
  std::vector<ycsb::KeyedRecord> wide;
  ASSERT_TRUE(store->ScanKeyed("t", "row050", 150, &wide).ok());
  ASSERT_FALSE(wide.empty());
  EXPECT_GE(regions.RegionOf(Slice(wide.back().key)) -
                regions.RegionOf(Slice("row050")),
            2);
  check("row050", 150);
  check("", 1000);
  // More rows asked for than the last region holds.
  check(regions.RegionEndKey(2), 500);
  check("row399", 10);
  check("zzz", 10);
  Random rng(5);
  for (int trial = 0; trial < 100; trial++) {
    char key[16];
    snprintf(key, sizeof(key), "row%03d", static_cast<int>(rng.Uniform(420)));
    check(key, 1 + static_cast<int>(rng.Uniform(80)));
  }

  const std::string edge = regions.RegionEndKey(0);
  ASSERT_TRUE(store->Delete("t", edge).ok());
  model.erase(edge);
  check(edge, 10);
  check("row090", 10);
}

TEST(HBaseStoreTest, ReadAndDeleteStayInsideTheirRow) {
  ScopedTempDir dir("hbase-rows");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 1;
  options.regions_per_server = 1;
  std::unique_ptr<HBaseStore> store;
  ASSERT_TRUE(HBaseStore::Open(options, &store).ok());

  // user1's cells sort directly before user10's and user100's: a row
  // scan that ran on past user1's last cell would pick theirs up.
  std::map<std::string, ycsb::Record> model;
  for (const char* key : {"user0", "user1", "user10", "user100", "user2"}) {
    ASSERT_TRUE(store->Insert("t", key, RowRecord(key)).ok());
    model[key] = RowRecord(key);
  }
  auto check_all = [&]() {
    for (const char* key : {"user", "user0", "user1", "user10", "user100",
                            "user2", "user3"}) {
      ycsb::Record got;
      Status s = store->Read("t", key, &got);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key << " " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
        EXPECT_EQ(got, it->second) << key;
      }
    }
  };
  check_all();

  ASSERT_TRUE(store->Delete("t", "user1").ok());
  model.erase("user1");
  check_all();
  EXPECT_TRUE(store->Delete("t", "user1").IsNotFound());
  EXPECT_TRUE(store->Delete("t", "user").IsNotFound());

  ASSERT_TRUE(store->Delete("t", "user10").ok());
  model.erase("user10");
  check_all();
}

TEST(HBaseStoreTest, PerCellStorageInflatesDisk) {
  ScopedTempDir dir_h("hbase-disk");
  ScopedTempDir dir_c("cassandra-disk");
  StoreOptions options;
  options.num_nodes = 1;
  options.memtable_bytes = 256 * 1024;
  // Measure the logical KeyValue framing with plain v1 blocks: the v2
  // format's prefix compression squeezes the repeated `row \0 f :
  // qualifier` cell keys back out, which is exactly how real HBase's
  // DataBlockEncoding (FAST_DIFF) mitigates the Figure-17 inflation.
  options.lsm_format_version = 1;

  std::unique_ptr<ycsb::DB> hbase, cassandra;
  options.base_dir = dir_h.path();
  ASSERT_TRUE(CreateStore("hbase", options, &hbase).ok());
  options.base_dir = dir_c.path();
  ASSERT_TRUE(CreateStore("cassandra", options, &cassandra).ok());

  Properties props;
  props.Set("recordcount", "3000");
  ycsb::CoreWorkload workload(props);
  ASSERT_TRUE(ycsb::LoadDatabase(hbase.get(), &workload, 2).ok());
  Properties props2;
  props2.Set("recordcount", "3000");
  ycsb::CoreWorkload workload2(props2);
  ASSERT_TRUE(ycsb::LoadDatabase(cassandra.get(), &workload2, 2).ok());

  uint64_t hbase_bytes = 0, cassandra_bytes = 0;
  ASSERT_TRUE(hbase->DiskUsage(&hbase_bytes).ok());
  ASSERT_TRUE(cassandra->DiskUsage(&cassandra_bytes).ok());
  // Figure 17's shape: per-cell HBase uses clearly more disk than the
  // row-per-value Cassandra layout for identical data.
  EXPECT_GT(hbase_bytes, cassandra_bytes);
}

TEST(MySQLStoreTest, LimitScanAblationReturnsPromptly) {
  ScopedTempDir dir("mysql-scan");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 2;
  options.mysql_limit_scans = true;
  std::unique_ptr<ycsb::DB> db;
  ASSERT_TRUE(CreateStore("mysql", options, &db).ok());
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(db->Insert("t", key, MakeRecord(i)).ok());
  }
  std::vector<ycsb::Record> records;
  ASSERT_TRUE(db->Scan("t", "user", 10, &records).ok());
  EXPECT_LE(records.size(), 10u);
}

TEST(RedisStoreTest, NodeStatsShowImbalance) {
  StoreOptions options;
  options.num_nodes = 12;
  std::unique_ptr<RedisStore> store;
  ASSERT_TRUE(RedisStore::Open(options, &store).ok());
  for (int i = 0; i < 24000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(store->Insert("t", key, MakeRecord(i)).ok());
  }
  size_t min_keys = SIZE_MAX, max_keys = 0;
  for (int node = 0; node < 12; node++) {
    size_t keys = store->NodeStats(node).num_keys;
    min_keys = std::min(min_keys, keys);
    max_keys = std::max(max_keys, keys);
  }
  // The Jedis ring leaves visible skew across instances.
  EXPECT_GT(static_cast<double>(max_keys) / static_cast<double>(min_keys),
            1.15);
}

// Regression test for the cross-shard scan: fanning a scan out to every
// node and k-way merging the runs must return exactly what a single node
// holding all the data would — same keys, same order, no over-fetch past
// `count` and no shard-boundary gaps.
TEST(RedisStoreTest, CrossShardScanMatchesSingleNode) {
  StoreOptions sharded_options;
  sharded_options.num_nodes = 5;
  std::unique_ptr<RedisStore> sharded;
  ASSERT_TRUE(RedisStore::Open(sharded_options, &sharded).ok());
  StoreOptions single_options;
  single_options.num_nodes = 1;
  std::unique_ptr<RedisStore> single;
  ASSERT_TRUE(RedisStore::Open(single_options, &single).ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 400; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%08d", i * 3);
    keys.push_back(key);
    ASSERT_TRUE(sharded->Insert("t", key, MakeRecord(i)).ok());
    ASSERT_TRUE(single->Insert("t", key, MakeRecord(i)).ok());
  }

  Random rng(97);
  for (int i = 0; i < 50; i++) {
    const std::string& start = keys[rng.Uniform(keys.size())];
    int count = 1 + static_cast<int>(rng.Uniform(60));
    std::vector<ycsb::KeyedRecord> got, expected;
    ASSERT_TRUE(sharded->ScanKeyed("t", start, count, &got).ok());
    ASSERT_TRUE(single->ScanKeyed("t", start, count, &expected).ok());
    ASSERT_EQ(got.size(), expected.size()) << "start=" << start;
    for (size_t j = 0; j < got.size(); j++) {
      EXPECT_EQ(got[j].key, expected[j].key);
      EXPECT_EQ(got[j].record, expected[j].record);
    }
  }
}

}  // namespace
}  // namespace apmbench::stores

namespace apmbench::stores {
namespace {

TEST(CassandraReplicationTest, WritesLandOnAllReplicas) {
  ScopedTempDir dir("cass-rf");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 4;
  options.replication_factor = 3;
  std::unique_ptr<CassandraStore> store;
  ASSERT_TRUE(CassandraStore::Open(options, &store).ok());

  const int n = 300;
  for (int i = 0; i < n; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(store->Insert("t", key, MakeRecord(i)).ok());
  }
  // CRUD still correct through the replicated path.
  ycsb::Record record;
  ASSERT_TRUE(store->Read("t", "user000000000000000000005", &record).ok());
  ASSERT_TRUE(store->Delete("t", "user000000000000000000005").ok());
  EXPECT_TRUE(
      store->Read("t", "user000000000000000000005", &record).IsNotFound());
  // Scans deduplicate replica copies.
  std::vector<ycsb::Record> records;
  ASSERT_TRUE(store->Scan("t", "user", 50, &records).ok());
  EXPECT_EQ(records.size(), 50u);
}

TEST(CassandraReplicationTest, DiskUsageScalesWithRf) {
  auto load = [](int rf, uint64_t* bytes) {
    ScopedTempDir dir("cass-rf-disk");
    StoreOptions options;
    options.base_dir = dir.path();
    options.num_nodes = 3;
    options.replication_factor = rf;
    std::unique_ptr<CassandraStore> store;
    ASSERT_TRUE(CassandraStore::Open(options, &store).ok());
    for (int i = 0; i < 2000; i++) {
      char key[32];
      snprintf(key, sizeof(key), "user%021d", i);
      ASSERT_TRUE(store->Insert("t", key, MakeRecord(i)).ok());
    }
    ASSERT_TRUE(store->DiskUsage(bytes).ok());
  };
  uint64_t rf1 = 0, rf3 = 0;
  load(1, &rf1);
  load(3, &rf3);
  EXPECT_GT(rf3, rf1 * 2);
}

}  // namespace
}  // namespace apmbench::stores

namespace apmbench::stores {
namespace {

/// Model-based differential testing: a random CRUD+scan sequence is
/// applied simultaneously to the store under test and to the trivially
/// correct reference DB; every read and scan must agree. This is the
/// strongest conformance check in the suite — it exercises routing,
/// engine flush/compaction boundaries, per-system record codecs, and
/// scan merge logic under one oracle.
class StoreDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreDifferentialTest, MatchesReferenceModel) {
  const std::string name = GetParam();
  testutil::ScopedTempDir dir("diff-" + name);
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 3;
  options.memtable_bytes = 32 * 1024;  // force flush/compaction churn
  options.buffer_pool_bytes = 512 * 1024;
  std::unique_ptr<ycsb::DB> db;
  ASSERT_TRUE(CreateStore(name, options, &db).ok());
  testutil::BasicDB model;

  const bool scans = StoreSupportsScans(name);
  // MySQL's faithful scan only covers one shard; the oracle comparison
  // below accounts for that by checking prefix-consistency instead of
  // equality for it.
  Random rng(2024);
  const std::string table = "usertable";
  for (int i = 0; i < 6000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021llu",
             static_cast<unsigned long long>(rng.Uniform(600)));
    int op = static_cast<int>(rng.Uniform(20));
    if (op < 10) {
      ycsb::Record record = MakeRecord(i);
      ASSERT_TRUE(db->Insert(table, key, record).ok()) << name;
      ASSERT_TRUE(model.Insert(table, key, record).ok());
    } else if (op < 13) {
      ycsb::Record record = MakeRecord(i + 1000000);
      ASSERT_TRUE(db->Update(table, key, record).ok());
      ASSERT_TRUE(model.Update(table, key, record).ok());
    } else if (op < 15) {
      // Delete acknowledgements are system-specific: Cassandra writes a
      // tombstone blindly and reports success even for absent keys, the
      // B+tree stores report NotFound. Only the resulting state must
      // agree, which the read/scan comparisons below enforce.
      Status store_status = db->Delete(table, key);
      ASSERT_TRUE(store_status.ok() || store_status.IsNotFound())
          << name << " " << key << ": " << store_status.ToString();
      Status model_status = model.Delete(table, key);
      (void)model_status;
    } else if (op < 18) {
      ycsb::Record got, expected;
      Status store_status = db->Read(table, key, &got);
      Status model_status = model.Read(table, key, &expected);
      ASSERT_EQ(store_status.IsNotFound(), model_status.IsNotFound())
          << name << " " << key << " op " << i;
      if (store_status.ok()) {
        std::map<std::string, std::string> got_map(got.begin(), got.end());
        std::map<std::string, std::string> expected_map(expected.begin(),
                                                        expected.end());
        ASSERT_EQ(got_map, expected_map) << name << " " << key;
      }
    } else if (scans) {
      int count = 1 + static_cast<int>(rng.Uniform(12));
      std::vector<ycsb::KeyedRecord> got, expected;
      ASSERT_TRUE(db->ScanKeyed(table, key, count, &got).ok());
      ASSERT_TRUE(model.ScanKeyed(table, key, count, &expected).ok());
      if (name == "mysql") {
        // One-shard scan: result must be an ordered subsequence of the
        // model's full-range scan ordering, with correct records.
        for (const auto& entry : got) {
          ycsb::Record expected_record;
          ASSERT_TRUE(model.Read(table, Slice(entry.key), &expected_record)
                          .ok())
              << entry.key;
          std::map<std::string, std::string> a(entry.record.begin(),
                                               entry.record.end());
          std::map<std::string, std::string> b(expected_record.begin(),
                                               expected_record.end());
          ASSERT_EQ(a, b);
        }
        for (size_t k = 1; k < got.size(); k++) {
          ASSERT_LT(got[k - 1].key, got[k].key);
        }
      } else {
        ASSERT_EQ(got.size(), expected.size()) << name << " scan @" << key;
        for (size_t k = 0; k < got.size(); k++) {
          ASSERT_EQ(got[k].key, expected[k].key) << name << " scan @" << key;
          std::map<std::string, std::string> a(got[k].record.begin(),
                                               got[k].record.end());
          std::map<std::string, std::string> b(expected[k].record.begin(),
                                               expected[k].record.end());
          ASSERT_EQ(a, b) << name << " scan @" << key;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, StoreDifferentialTest,
                         ::testing::ValuesIn(StoreNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace apmbench::stores

namespace apmbench::stores {
namespace {

TEST(ScrubTest, LsmBackedStoresVerifyClean) {
  ScopedTempDir dir("scrub");
  StoreOptions options;
  options.base_dir = dir.path();
  options.num_nodes = 2;
  options.memtable_bytes = 32 * 1024;
  std::unique_ptr<CassandraStore> store;
  ASSERT_TRUE(CassandraStore::Open(options, &store).ok());
  for (int i = 0; i < 2000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    ASSERT_TRUE(store->Insert("t", key, MakeRecord(i)).ok());
  }
  EXPECT_TRUE(store->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace apmbench::stores
