#ifndef APMBENCH_STORES_DISK_USAGE_H_
#define APMBENCH_STORES_DISK_USAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace apmbench::stores {

/// Sums DiskUsage() over a store's node engines, walking them in order.
template <typename Engine>
Status SumDiskUsage(const std::vector<std::unique_ptr<Engine>>& nodes,
                    uint64_t* bytes) {
  *bytes = 0;
  for (const auto& node : nodes) {
    uint64_t node_bytes = 0;
    APM_RETURN_IF_ERROR(node->DiskUsage(&node_bytes));
    *bytes += node_bytes;
  }
  return Status::OK();
}

}  // namespace apmbench::stores

#endif  // APMBENCH_STORES_DISK_USAGE_H_
