#ifndef STREAMASP_STREAMRULE_RANDOM_PARTITIONER_H_
#define STREAMASP_STREAMRULE_RANDOM_PARTITIONER_H_

#include <vector>

#include "stream/triple.h"
#include "util/rng.h"

namespace streamasp {

/// The baseline the paper compares against (Germano et al. 2015, and the
/// PR_Ran_k series of Figures 7–10): split the window into k chunks
/// uniformly at random, ignoring dependencies.
///
/// Deterministic under a fixed seed. Items are dealt round-robin over a
/// random permutation-free draw (uniform community per item), matching
/// "partitioning data randomly ... decreases the accuracy of the answers"
/// (§I).
class RandomPartitioner {
 public:
  /// Splits into `k` partitions (k >= 1).
  RandomPartitioner(size_t k, uint64_t seed = 7);

  std::vector<std::vector<Triple>> Partition(
      const std::vector<Triple>& window);

  size_t k() const { return k_; }

 private:
  size_t k_;
  Rng rng_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_RANDOM_PARTITIONER_H_
