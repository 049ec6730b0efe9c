#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/node.h"
#include "btree/pager.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace apmbench::btree {
namespace {

using testutil::ScopedTempDir;

TEST(NodeTest, LeafInsertAndLookup) {
  std::vector<char> page(4096);
  NodeRef node(page.data(), page.size());
  node.Init(NodeRef::kLeaf);
  EXPECT_TRUE(node.is_leaf());
  EXPECT_EQ(node.nkeys(), 0);

  ASSERT_TRUE(node.InsertLeaf("banana", "yellow"));
  ASSERT_TRUE(node.InsertLeaf("apple", "red"));
  ASSERT_TRUE(node.InsertLeaf("cherry", "dark"));
  ASSERT_EQ(node.nkeys(), 3);
  EXPECT_EQ(node.KeyAt(0).ToString(), "apple");
  EXPECT_EQ(node.KeyAt(1).ToString(), "banana");
  EXPECT_EQ(node.KeyAt(2).ToString(), "cherry");
  EXPECT_EQ(node.ValueAt(1).ToString(), "yellow");

  EXPECT_EQ(node.LowerBound("banana"), 1);
  EXPECT_EQ(node.LowerBound("b"), 1);
  EXPECT_EQ(node.LowerBound("zzz"), 3);
}

TEST(NodeTest, RemoveAndCompact) {
  std::vector<char> page(4096);
  NodeRef node(page.data(), page.size());
  node.Init(NodeRef::kLeaf);
  for (int i = 0; i < 20; i++) {
    char key[8];
    snprintf(key, sizeof(key), "k%02d", i);
    ASSERT_TRUE(node.InsertLeaf(key, std::string(50, 'v')));
  }
  size_t free_before = node.FreeSpace();
  node.Remove(5);
  node.Remove(5);
  EXPECT_EQ(node.nkeys(), 18);
  EXPECT_GT(node.FragBytes(), 0u);
  node.Compact();
  EXPECT_EQ(node.FragBytes(), 0u);
  EXPECT_GT(node.FreeSpace(), free_before);
  EXPECT_EQ(node.KeyAt(5).ToString(), "k07");
}

TEST(NodeTest, UpdateLeafInPlace) {
  std::vector<char> page(4096);
  NodeRef node(page.data(), page.size());
  node.Init(NodeRef::kLeaf);
  ASSERT_TRUE(node.InsertLeaf("key", "short"));
  ASSERT_TRUE(node.UpdateLeaf(0, "a much longer value than before"));
  EXPECT_EQ(node.ValueAt(0).ToString(), "a much longer value than before");
  EXPECT_EQ(node.nkeys(), 1);
}

TEST(NodeTest, SplitKeepsOrder) {
  std::vector<char> page(4096), page2(4096);
  NodeRef node(page.data(), page.size());
  node.Init(NodeRef::kLeaf);
  int inserted = 0;
  for (int i = 0; i < 1000; i++) {
    char key[8];
    snprintf(key, sizeof(key), "k%03d", i);
    if (!node.InsertLeaf(key, std::string(30, 'v'))) break;
    inserted++;
  }
  ASSERT_GT(inserted, 10);
  NodeRef right(page2.data(), page2.size());
  right.Init(NodeRef::kLeaf);
  std::string promoted = node.SplitInto(&right);
  EXPECT_EQ(node.nkeys() + right.nkeys(), inserted);
  EXPECT_EQ(right.KeyAt(0).ToString(), promoted);
  EXPECT_LT(node.KeyAt(node.nkeys() - 1).ToString(), promoted);
}

TEST(NodeTest, InternalChildPointers) {
  std::vector<char> page(4096);
  NodeRef node(page.data(), page.size());
  node.Init(NodeRef::kInternal);
  ASSERT_TRUE(node.InsertInternal("m", 10));
  ASSERT_TRUE(node.InsertInternal("f", 5));
  node.set_right(99);
  EXPECT_EQ(node.ChildAt(0), 5u);
  EXPECT_EQ(node.ChildAt(1), 10u);
  EXPECT_EQ(node.right(), 99u);
  node.SetChildAt(0, 55);
  EXPECT_EQ(node.ChildAt(0), 55u);
  EXPECT_EQ(node.KeyAt(0).ToString(), "f");
}

TEST(PagerTest, NewFetchPersist) {
  ScopedTempDir dir("pager");
  PagerOptions options;
  options.path = dir.path() + "/pages.db";
  uint32_t page_id = 0;
  {
    bool created = false;
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(options, &created, &pager).ok());
    EXPECT_TRUE(created);
    Pager::PageHandle handle;
    ASSERT_TRUE(pager->NewPage(&page_id, &handle).ok());
    EXPECT_EQ(page_id, 1u);
    memcpy(handle.data(), "persisted-bytes", 15);
    handle.MarkDirty();
    pager->set_root(page_id);
    pager->set_user_counter(123);
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    bool created = true;
    std::unique_ptr<Pager> pager;
    ASSERT_TRUE(Pager::Open(options, &created, &pager).ok());
    EXPECT_FALSE(created);
    EXPECT_EQ(pager->root(), page_id);
    EXPECT_EQ(pager->user_counter(), 123u);
    Pager::PageHandle handle;
    ASSERT_TRUE(pager->FetchPage(page_id, &handle).ok());
    EXPECT_EQ(memcmp(handle.data(), "persisted-bytes", 15), 0);
  }
}

TEST(PagerTest, EvictionWritesDirtyPages) {
  ScopedTempDir dir("pager2");
  PagerOptions options;
  options.path = dir.path() + "/pages.db";
  options.buffer_pool_bytes = 8 * 4096;  // tiny pool: 8 frames
  bool created;
  std::unique_ptr<Pager> pager;
  ASSERT_TRUE(Pager::Open(options, &created, &pager).ok());
  std::vector<uint32_t> ids;
  for (int i = 0; i < 32; i++) {
    uint32_t id;
    Pager::PageHandle handle;
    ASSERT_TRUE(pager->NewPage(&id, &handle).ok());
    snprintf(handle.data(), 32, "page-%d", i);
    handle.MarkDirty();
    ids.push_back(id);
  }
  // All pages readable despite pool churn.
  for (int i = 0; i < 32; i++) {
    Pager::PageHandle handle;
    ASSERT_TRUE(pager->FetchPage(ids[static_cast<size_t>(i)], &handle).ok());
    char expect[32];
    snprintf(expect, sizeof(expect), "page-%d", i);
    EXPECT_STREQ(handle.data(), expect);
  }
  EXPECT_GT(pager->pool_misses(), 0u);
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : dir_("btree") {
    options_.path = dir_.path() + "/tree.db";
  }

  void Open() { ASSERT_TRUE(BTree::Open(options_, &tree_).ok()); }
  void Reopen() {
    tree_.reset();
    Open();
  }

  ScopedTempDir dir_;
  Options options_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, PutGetDelete) {
  Open();
  ASSERT_TRUE(tree_->Put("a", "1").ok());
  ASSERT_TRUE(tree_->Put("b", "2").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_TRUE(tree_->Get("c", &value).IsNotFound());
  ASSERT_TRUE(tree_->Delete("a").ok());
  EXPECT_TRUE(tree_->Get("a", &value).IsNotFound());
  EXPECT_TRUE(tree_->Delete("a").IsNotFound());
}

TEST_F(BTreeTest, OverwriteValue) {
  Open();
  ASSERT_TRUE(tree_->Put("k", "old").ok());
  ASSERT_TRUE(tree_->Put("k", "new-and-considerably-longer").ok());
  std::string value;
  ASSERT_TRUE(tree_->Get("k", &value).ok());
  EXPECT_EQ(value, "new-and-considerably-longer");
  EXPECT_EQ(tree_->GetStats().num_keys, 1u);
}

TEST_F(BTreeTest, ManyInsertsForceSplits) {
  Open();
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i * 7919 % n);
    ASSERT_TRUE(tree_->Put(key, "value-" + std::to_string(i)).ok()) << i;
  }
  BTree::Stats stats = tree_->GetStats();
  EXPECT_GE(stats.height, 2);
  EXPECT_EQ(stats.num_keys, static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += 97) {
    char key[32];
    snprintf(key, sizeof(key), "user%021d", i);
    std::string value;
    ASSERT_TRUE(tree_->Get(key, &value).ok()) << key;
  }
}

TEST_F(BTreeTest, ScanFollowsLeafChain) {
  Open();
  for (int i = 0; i < 5000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(tree_->Put(key, std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan("k001234", 50, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; i++) {
    char expect[16];
    snprintf(expect, sizeof(expect), "k%06d", 1234 + i);
    EXPECT_EQ(out[static_cast<size_t>(i)].first, expect);
    EXPECT_EQ(out[static_cast<size_t>(i)].second, std::to_string(1234 + i));
  }
  // Scan past the end.
  ASSERT_TRUE(tree_->Scan("k004990", 50, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  // Scan on empty prefix covers from the start.
  ASSERT_TRUE(tree_->Scan("", 3, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, "k000000");
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree_->Put("key" + std::to_string(i),
                           "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(tree_->Checkpoint().ok());
  Reopen();
  EXPECT_EQ(tree_->GetStats().num_keys, 3000u);
  std::string value;
  for (int i = 0; i < 3000; i += 113) {
    ASSERT_TRUE(tree_->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST_F(BTreeTest, BinlogGrowsWithWrites) {
  options_.binlog_path = dir_.path() + "/binlog.001";
  Open();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree_->Put("key" + std::to_string(i), std::string(64, 'b'))
                    .ok());
  }
  BTree::Stats stats = tree_->GetStats();
  EXPECT_GT(stats.binlog_bytes, 100u * 64u);
  uint64_t disk = 0;
  ASSERT_TRUE(tree_->DiskUsage(&disk).ok());
  EXPECT_GT(disk, stats.binlog_bytes);
}

TEST_F(BTreeTest, RejectsOversizedRecords) {
  Open();
  std::string huge(options_.page_size, 'x');
  EXPECT_TRUE(tree_->Put("k", huge).IsInvalidArgument());
}

TEST_F(BTreeTest, SmallBufferPoolStillCorrect) {
  options_.buffer_pool_bytes = 16 * 4096;  // 16 frames
  Open();
  std::map<std::string, std::string> model;
  Random rng(31);
  for (int i = 0; i < 8000; i++) {
    std::string key =
        std::string("k").append(std::to_string(rng.Uniform(3000)));
    std::string value = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(tree_->Put(key, value).ok());
    model[key] = value;
  }
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(tree_->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, expected);
  }
  EXPECT_GT(tree_->GetStats().pool_misses, 0u);
}

TEST_F(BTreeTest, PropertyRandomOpsAgainstModel) {
  Open();
  std::map<std::string, std::string> model;
  Random rng(404);
  for (int i = 0; i < 20000; i++) {
    int op = static_cast<int>(rng.Uniform(10));
    std::string key = "key" + std::to_string(rng.Uniform(800));
    if (op < 6) {
      std::string value(1 + rng.Uniform(60), 'a' + (i % 26));
      ASSERT_TRUE(tree_->Put(key, value).ok());
      model[key] = value;
    } else if (op < 8) {
      Status s = tree_->Delete(key);
      bool existed = model.erase(key) > 0;
      EXPECT_EQ(s.ok(), existed);
    } else if (op < 9) {
      std::string value;
      Status s = tree_->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(value, it->second);
      }
    } else {
      std::vector<std::pair<std::string, std::string>> got;
      ASSERT_TRUE(tree_->Scan(key, 8, &got).ok());
      auto it = model.lower_bound(key);
      for (const auto& [got_key, got_value] : got) {
        ASSERT_NE(it, model.end());
        EXPECT_EQ(got_key, it->first);
        EXPECT_EQ(got_value, it->second);
        ++it;
      }
    }
    if (i % 5000 == 4999) {
      EXPECT_EQ(tree_->GetStats().num_keys, model.size());
    }
  }
}

}  // namespace
}  // namespace apmbench::btree
