#ifndef APMBENCH_COMMON_MERGE_RUNS_H_
#define APMBENCH_COMMON_MERGE_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace apmbench {

/// K-way merge of sorted runs: appends the globally smallest elements (by
/// `get_key`, ascending) to *out until it holds `count`, consuming each
/// run only as far as needed — O(count · log k) instead of
/// sort-everything's O(n log n). Each input run must itself be sorted
/// with unique keys. With `dedup` set, a key present in several runs
/// (replicas) is emitted once, from the lowest-indexed run holding it.
/// Runs are consumed destructively (elements are moved out).
template <typename T, typename GetKey>
void MergeSortedRuns(std::vector<std::vector<T>>* runs, size_t count,
                     bool dedup, GetKey get_key, std::vector<T>* out) {
  // (key, run index) pairs, heap-ordered so the smallest key — and on
  // ties the lowest run — pops first.
  struct Cursor {
    size_t run;
    size_t pos;
  };
  std::vector<Cursor> heap;
  heap.reserve(runs->size());
  auto greater = [&](const Cursor& a, const Cursor& b) {
    const auto& ka = get_key((*runs)[a.run][a.pos]);
    const auto& kb = get_key((*runs)[b.run][b.pos]);
    if (ka != kb) return ka > kb;
    return a.run > b.run;
  };
  for (size_t r = 0; r < runs->size(); r++) {
    if (!(*runs)[r].empty()) heap.push_back(Cursor{r, 0});
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  bool have_last = false;
  std::string last_key;
  while (!heap.empty() && out->size() < count) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    Cursor cur = heap.back();
    heap.pop_back();
    T& element = (*runs)[cur.run][cur.pos];
    if (!dedup || !have_last || get_key(element) != last_key) {
      if (dedup) {
        last_key = get_key(element);
        have_last = true;
      }
      out->push_back(std::move(element));
    }
    if (++cur.pos < (*runs)[cur.run].size()) {
      heap.push_back(cur);
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
}

}  // namespace apmbench

#endif  // APMBENCH_COMMON_MERGE_RUNS_H_
