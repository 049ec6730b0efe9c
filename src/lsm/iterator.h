#ifndef APMBENCH_LSM_ITERATOR_H_
#define APMBENCH_LSM_ITERATOR_H_

#include <memory>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace apmbench::lsm {

/// Ordered cursor over key/value entries. Entries may be tombstones
/// (deletion markers); most callers use a DedupIterator on top, which
/// resolves shadowing and hides tombstones.
class Iterator {
 public:
  virtual ~Iterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first entry with key >= target.
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;

  /// Only valid while Valid() is true.
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  virtual bool IsTombstone() const = 0;
  /// Monotone write sequence number; recency is decided per entry (as
  /// Cassandra does with cell timestamps) because compaction strategies
  /// like size-tiered merge arbitrary subsets of tables, making file
  /// numbers useless for ordering.
  virtual uint64_t seq() const = 0;

  virtual Status status() const = 0;
};

/// Merges several child iterators into one stream ordered by
/// (key ascending, seq descending). Duplicate keys across children are all
/// emitted, newest first.
std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children);

/// Keeps only the newest entry of each key from a merging iterator and,
/// when `skip_tombstones` is set, hides deleted keys. A non-empty
/// `upper_bound` (exclusive; its bytes must outlive the iterator) ends
/// the iteration at the first input key >= it, so hidden entries past the
/// bound are never walked.
std::unique_ptr<Iterator> NewDedupIterator(std::unique_ptr<Iterator> input,
                                           bool skip_tombstones,
                                           Slice upper_bound = Slice());

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_ITERATOR_H_
