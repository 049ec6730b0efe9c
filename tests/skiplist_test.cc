#include "common/skiplist.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "common/slice.h"

namespace apmbench {
namespace {

struct StrCompare {
  int operator()(const std::string& a, const std::string& b) const {
    return Slice(a).Compare(Slice(b));
  }
};

using StrList = SkipList<std::string, int, StrCompare>;

TEST(SkipListTest, InsertFindErase) {
  StrList list;
  EXPECT_TRUE(list.Insert("b", 2));
  EXPECT_TRUE(list.Insert("a", 1));
  EXPECT_TRUE(list.Insert("c", 3));
  EXPECT_EQ(list.size(), 3u);

  ASSERT_NE(list.Find("b"), nullptr);
  EXPECT_EQ(*list.Find("b"), 2);
  EXPECT_EQ(list.Find("zz"), nullptr);

  // Overwrite.
  EXPECT_FALSE(list.Insert("b", 20));
  EXPECT_EQ(*list.Find("b"), 20);
  EXPECT_EQ(list.size(), 3u);

  EXPECT_TRUE(list.Erase("b"));
  EXPECT_FALSE(list.Erase("b"));
  EXPECT_EQ(list.Find("b"), nullptr);
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, OrderedIteration) {
  StrList list;
  list.Insert("delta", 4);
  list.Insert("alpha", 1);
  list.Insert("charlie", 3);
  list.Insert("bravo", 2);

  StrList::Iterator iter(&list);
  iter.SeekToFirst();
  std::string prev;
  int count = 0;
  while (iter.Valid()) {
    EXPECT_GT(iter.key(), prev);
    prev = iter.key();
    iter.Next();
    count++;
  }
  EXPECT_EQ(count, 4);
}

TEST(SkipListTest, SeekSemantics) {
  StrList list;
  list.Insert("b", 1);
  list.Insert("d", 2);
  list.Insert("f", 3);

  StrList::Iterator iter(&list);
  iter.Seek("c");
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), "d");
  iter.Seek("d");
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), "d");
  iter.Seek("g");
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, PropertyAgainstStdMap) {
  StrList list;
  std::map<std::string, int> model;
  Random rng(123);
  for (int i = 0; i < 20000; i++) {
    std::string key =
        std::string("k").append(std::to_string(rng.Uniform(2000)));
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      int value = static_cast<int>(rng.Uniform(1000));
      bool fresh = list.Insert(key, value);
      bool model_fresh = model.find(key) == model.end();
      EXPECT_EQ(fresh, model_fresh);
      model[key] = value;
    } else if (op == 1) {
      const int* found = list.Find(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(list.Erase(key), model.erase(key) > 0);
    }
    EXPECT_EQ(list.size(), model.size());
  }
  // Final: iteration order matches the model exactly.
  StrList::Iterator iter(&list);
  iter.SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), key);
    EXPECT_EQ(iter.value(), value);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

}  // namespace
}  // namespace apmbench
