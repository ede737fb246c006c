#include "streamrule/random_partitioner.h"

#include <algorithm>

namespace streamasp {

RandomPartitioner::RandomPartitioner(size_t k, uint64_t seed)
    : k_(std::max<size_t>(k, 1)), rng_(seed) {}

std::vector<std::vector<Triple>> RandomPartitioner::Partition(
    const std::vector<Triple>& window) {
  std::vector<std::vector<Triple>> partitions(k_);
  for (const Triple& item : window) {
    partitions[rng_.NextBounded(k_)].push_back(item);
  }
  return partitions;
}

}  // namespace streamasp
