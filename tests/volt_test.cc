#include "volt/volt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace apmbench::volt {
namespace {

Options Sites(int sites_per_host) {
  Options options;
  options.sites_per_host = sites_per_host;
  return options;
}

TEST(VoltTest, PutGetDelete) {
  VoltEngine engine(Sites(4));
  ASSERT_TRUE(engine.Put("key1", "value1").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("key1", &value).ok());
  EXPECT_EQ(value, "value1");
  EXPECT_TRUE(engine.Get("missing", &value).IsNotFound());
  ASSERT_TRUE(engine.Delete("key1").ok());
  EXPECT_TRUE(engine.Delete("key1").IsNotFound());
}

TEST(VoltTest, RoutingIsDeterministicAndSpread) {
  VoltEngine engine(Sites(6));
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; i++) {
    std::string key = "user" + std::to_string(i);
    int p = engine.PartitionOf(key);
    EXPECT_EQ(p, engine.PartitionOf(key));
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 6);
    counts[static_cast<size_t>(p)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly uniform (1000 each)
    EXPECT_LT(c, 1300);
  }
}

TEST(VoltTest, ScanIsGloballyOrdered) {
  VoltEngine engine(Sites(5));
  for (int i = 0; i < 500; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(engine.Put(key, std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(engine.Scan("k0100", 50, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; i++) {
    char expect[16];
    snprintf(expect, sizeof(expect), "k%04d", 100 + i);
    EXPECT_EQ(out[static_cast<size_t>(i)].first, expect);
  }
}

TEST(VoltTest, StatsCountTransactionTypes) {
  VoltEngine engine(Sites(3));
  ASSERT_TRUE(engine.Put("a", "1").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("a", &value).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(engine.Scan("", 10, &out).ok());
  VoltEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.single_partition_txns, 2u);
  EXPECT_EQ(stats.multi_partition_txns, 1u);
  size_t total_rows = 0;
  for (size_t rows : stats.rows_per_partition) total_rows += rows;
  EXPECT_EQ(total_rows, 1u);
}

TEST(VoltTest, SerialExecutionUnderConcurrency) {
  VoltEngine engine(Sites(4));
  const int threads = 8;
  const int ops = 500;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < ops; i++) {
        std::string key = std::string("t").append(std::to_string(t)).append(
            "-").append(std::to_string(i));
        if (!engine.Put(key, "v").ok()) failures++;
        std::string value;
        if (!engine.Get(key, &value).ok()) failures++;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  VoltEngine::Stats stats = engine.GetStats();
  size_t total = 0;
  for (size_t rows : stats.rows_per_partition) total += rows;
  EXPECT_EQ(total, static_cast<size_t>(threads * ops));
}

}  // namespace
}  // namespace apmbench::volt

#include "tests/test_util.h"

namespace apmbench::volt {
namespace {

TEST(CommandLogTest, RecoversAfterRestart) {
  testutil::ScopedTempDir dir("voltlog");
  Options options;
  options.sites_per_host = 3;
  options.command_log_path = dir.path() + "/command.log";
  {
    VoltEngine engine(options);
    ASSERT_TRUE(engine.Recover().ok());
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(engine
                      .Put(std::string("key").append(std::to_string(i)),
                           std::string("v").append(std::to_string(i)))
                      .ok());
    }
    for (int i = 0; i < 300; i += 3) {
      ASSERT_TRUE(engine.Delete("key" + std::to_string(i)).ok());
    }
  }
  VoltEngine restored(options);
  ASSERT_TRUE(restored.Recover().ok());
  std::string value;
  for (int i = 0; i < 300; i++) {
    Status s = restored.Get("key" + std::to_string(i), &value);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
}

TEST(CommandLogTest, TornTailTruncatesReplay) {
  testutil::ScopedTempDir dir("voltlog2");
  Options options;
  options.sites_per_host = 2;
  options.command_log_path = dir.path() + "/command.log";
  {
    VoltEngine engine(options);
    ASSERT_TRUE(engine.Recover().ok());
    ASSERT_TRUE(engine.Put("first", "1").ok());
    ASSERT_TRUE(engine.Put("second", "2").ok());
  }
  // Tear the tail of the log mid-record.
  std::string data;
  ASSERT_TRUE(
      Env::Default()->ReadFileToString(options.command_log_path, &data).ok());
  data.resize(data.size() - 4);
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFile(options.command_log_path, Slice(data))
                  .ok());

  VoltEngine restored(options);
  ASSERT_TRUE(restored.Recover().ok());
  std::string value;
  ASSERT_TRUE(restored.Get("first", &value).ok());
  EXPECT_TRUE(restored.Get("second", &value).IsNotFound());
}

}  // namespace
}  // namespace apmbench::volt
