#ifndef STREAMASP_STREAM_SHARD_KEY_H_
#define STREAMASP_STREAM_SHARD_KEY_H_

#include <cstdint>

#include "stream/triple.h"

namespace streamasp {

/// The bucket key of a stream item: its subject term's deep hash, mixed.
/// PartitioningHandler splits each dependency community into num_shards
/// buckets and routes an item to bucket `SubjectShardKey(t) % num_shards`,
/// so all items about one entity — the join variable of entity-centric
/// rule sets such as the paper's traffic programs — land in one bucket
/// regardless of the bucket count. Items of duplicated predicates are
/// copied to every bucket instead, so the key only has to respect the
/// joins among non-duplicated predicates.
uint64_t SubjectShardKey(const Triple& triple);

}  // namespace streamasp

#endif  // STREAMASP_STREAM_SHARD_KEY_H_
