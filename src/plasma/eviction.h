// EvictionPolicy — LRU ordering over sealed, pool-resident objects.
//
// Upstream Plasma evicts least-recently-used unpinned objects when a
// create cannot be satisfied. The paper highlights the distributed twist:
// "in-use objects will not be evicted, because clients might still be
// reading from memory" (§IV-A2). Remote readers are not tracked here:
// their descriptors are validated against the generation table, which
// every eviction bumps (plasma/generation_table.h).
//
// Contract — what is (and is not) in the LRU:
//
//   * Only SEALED objects are registered (Store calls Add at seal time
//     and after a spill-tier restore). Unsealed creations are never
//     eviction candidates, and spilled objects leave the LRU until
//     restored — they hold no pool bytes to reclaim.
//   * This policy tracks recency ONLY. It does not know about pins; the
//     caller passes an `evictable` predicate to ChooseVictims and the
//     Store's predicate (IsEvictable) excludes every object still
//     mapped by a local client (local_refs != 0 — a Get that has not
//     been Released keeps the buffer mmap'd, so its memory must not be
//     reused under the reader).
//     An object excluded by the predicate is skipped, not unqueued: it
//     keeps its LRU position and becomes a candidate again the moment
//     its last pin drops. eviction_test's EvictWhileMappedIsRefused
//     locks the whole contract end to end.
//   * ChooseVictims is all-or-nothing: if the evictable candidates
//     cannot cover `bytes_needed`, it returns an empty list so the
//     caller fails the allocation instead of thrashing the cache for a
//     create that cannot succeed anyway.
//
// Not internally synchronized: each store shard owns one policy for its
// arena, guarded (with the table and arena) by the shard's mutex.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"

namespace mdos::plasma {

class EvictionPolicy {
 public:
  // Registers a newly sealed object (most-recently-used position).
  void Add(const ObjectId& id, uint64_t size);

  // Marks a use (Get); moves to MRU position.
  void Touch(const ObjectId& id);

  // Removes an object from consideration (deleted or evicted).
  void Remove(const ObjectId& id);

  [[nodiscard]] bool Contains(const ObjectId& id) const;
  size_t size() const { return index_.size(); }

  // Returns candidate victims in LRU-first order whose cumulative size
  // reaches `bytes_needed`, skipping ids rejected by `evictable`. Does not
  // mutate the policy; the caller removes the ids it actually evicts.
  template <typename Pred>
  std::vector<ObjectId> ChooseVictims(uint64_t bytes_needed,
                                      Pred&& evictable) const {
    std::vector<ObjectId> victims;
    uint64_t chosen = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (chosen >= bytes_needed) break;
      if (!evictable(it->id)) continue;
      victims.push_back(it->id);
      chosen += it->size;
    }
    if (chosen < bytes_needed) {
      victims.clear();  // cannot satisfy the request; do not thrash
    }
    return victims;
  }

 private:
  struct Node {
    ObjectId id;
    uint64_t size;
  };
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<ObjectId, std::list<Node>::iterator> index_;
};

}  // namespace mdos::plasma
