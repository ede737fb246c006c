#include "stream/shard_key.h"

namespace streamasp {

uint64_t SubjectShardKey(const Triple& triple) {
  // splitmix64's finalizer over Term::Hash(), so that nearby hashes
  // (small integers, consecutive symbol ids) spread across buckets
  // instead of striding through `% num_shards` in lockstep.
  uint64_t x = static_cast<uint64_t>(triple.subject.Hash());
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace streamasp
