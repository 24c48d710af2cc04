// LookupCache — LRU cache of remote object locations (paper §V-B).
//
// The paper's prototype pays one Plasma.Lookup RPC for every remote Get;
// §V-B suggests "caching the look-up results" as future work. This cache
// implements it: a bounded, thread-safe LRU map of id → home-store
// location. It is policy-free storage: the owning RemoteStoreRegistry
// decides what to admit (generation-stamped locations only) and
// re-validates every hit against the home store's generation table
// before serving it, dropping entries that fail (and entries homed on a
// peer that died or restarted).
//
// Thread-safety: several store shard threads read and write it on their
// Get paths concurrently — one mutex covers all access.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/mutex.h"
#include "common/object_id.h"
#include "plasma/store.h"

namespace mdos::dist {

struct LookupCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t invalidations = 0;
  uint64_t evictions = 0;
};

class LookupCache {
 public:
  explicit LookupCache(size_t capacity = 4096) : capacity_(capacity) {}

  // Returns the cached location and refreshes LRU position.
  std::optional<plasma::RemoteObjectLocation> Get(const ObjectId& id);

  // Inserts or overwrites; evicts the LRU entry beyond capacity.
  void Put(const ObjectId& id, const plasma::RemoteObjectLocation& loc);

  // Drops one id (no-op and not counted when absent).
  void Invalidate(const ObjectId& id);

  // Drops every entry homed on `node` (peer declared dead: its cached
  // locations dangle). Returns how many entries were dropped.
  size_t InvalidateNode(uint32_t node);

  // Empties the cache and resets all statistics to zero.
  void Clear();

  size_t size() const;
  LookupCacheStats stats() const;

 private:
  struct Entry {
    ObjectId id;
    plasma::RemoteObjectLocation location;
  };

  size_t capacity_;
  mutable Mutex mutex_;
  // MRU at front.
  std::list<Entry> lru_ GUARDED_BY(mutex_);
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_
      GUARDED_BY(mutex_);
  LookupCacheStats stats_ GUARDED_BY(mutex_);
};

}  // namespace mdos::dist
